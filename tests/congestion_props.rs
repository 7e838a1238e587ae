//! Property tests of the negotiated-congestion machinery (DESIGN.md §4h):
//! history monotonicity, order-invariance of cost updates, and bounded
//! cancellation of the iteration loop.

use info_rdl::generators::{build_dense, dense_spec};
use info_rdl::model::{drc, Package};
use info_rdl::tile::CancelToken;
use info_rdl::tile::CongestionMap;
use info_rdl::{InfoRouter, RouteOutcome, RouterConfig};

/// The densest of the golden circuits (`g4` in `golden_layouts.rs`): the
/// legacy path leaves one net failed here, so the negotiated loop
/// actually iterates.
fn g4() -> Package {
    let mut spec = dense_spec(2);
    spec.io_pads = 20;
    spec.nets = 10;
    spec.bump_pads = 56;
    spec.seed = 31;
    build_dense(spec, false)
}

/// Sequential-only negotiated config: every net goes through the
/// negotiated front, nothing is absorbed by the concurrent stage.
fn neg_seq_only() -> RouterConfig {
    RouterConfig::default()
        .with_global_cells(14)
        .with_threads(1)
        .with_congestion_mode()
        .without_concurrent()
        .without_lp()
}

fn assert_drc_legal(out: &RouteOutcome) {
    for v in out.drc.violations() {
        assert!(
            matches!(v, drc::Violation::Disconnected { .. }),
            "layout must stay DRC-legal: {v}"
        );
    }
}

/// History only ever escalates: the per-iteration accumulated totals are
/// monotone non-decreasing, on a normally-converging run.
#[test]
fn history_is_monotone_across_iterations() {
    let out = InfoRouter::new(neg_seq_only()).route(&g4());
    let stats = out.negotiation.as_ref().expect("negotiation stats");
    assert!(!stats.history_totals.is_empty());
    for w in stats.history_totals.windows(2) {
        assert!(
            w[1] >= w[0],
            "history decreased between iterations: {:?}",
            stats.history_totals
        );
    }
}

/// With a strangled search budget every net fails at once — and mass
/// failure is not a negotiation regime: the front must *decline* after
/// its first iteration (restoring the stage-entry layout for the legacy
/// front) instead of churning victims for the full cap, and the layout
/// it returns is the legacy one byte for byte.
#[test]
fn strangled_budget_declines_to_the_legacy_path() {
    let mut cfg = neg_seq_only();
    cfg.retry_expansion_budget = Some(1);
    let out = InfoRouter::new(cfg).route(&g4());
    let mut legacy_cfg = cfg;
    legacy_cfg.congestion_mode = false;
    let legacy = InfoRouter::new(legacy_cfg).route(&g4());
    let stats = out.negotiation.as_ref().expect("negotiation stats");
    assert_eq!(
        stats.iterations, 1,
        "mass failure must stop the front after one iteration, not run to the cap"
    );
    assert!(stats.declined, "a fully-failed front is mass failure: it must decline");
    assert!(!stats.converged);
    assert_eq!(
        out.layout.canonical_hash(),
        legacy.layout.canonical_hash(),
        "a declined run must return the exact legacy layout"
    );
    assert_eq!(out.stats.routed_nets, 0, "a one-expansion budget routes nothing");
    assert_drc_legal(&out);
}

/// Cost updates within an iteration are order-invariant: applying the
/// same multiset of history/present updates in different interleavings
/// produces identical maps — penalties are sums over commutative
/// increments, and the negotiated loop additionally batches them at
/// iteration boundaries.
#[test]
fn cost_updates_are_order_invariant() {
    let updates: Vec<(usize, usize, usize, f64, i64)> = vec![
        (0, 1, 1, 1.0, 2),
        (1, 2, 3, 0.5, 1),
        (0, 1, 1, 2.0, 1),
        (1, 0, 0, 1.5, 3),
        (0, 3, 2, 1.0, 1),
        (1, 2, 3, 0.5, 2),
    ];
    let apply = |order: &[usize]| -> CongestionMap {
        let mut m = CongestionMap::new(4, 4, 2, 10.0, 20.0);
        for &i in order {
            let (l, cx, cy, h, p) = updates[i];
            m.add_history(l, cx, cy, h);
            m.note_present(l, cx, cy, p);
            m.add_via_history(cx, cy, h);
            m.note_via_present(cx, cy, p);
        }
        m
    };
    let a = apply(&[0, 1, 2, 3, 4, 5]);
    let b = apply(&[5, 3, 1, 4, 2, 0]);
    let c = apply(&[2, 0, 5, 4, 3, 1]);
    assert_eq!(a, b, "update order must not matter");
    assert_eq!(a, c, "update order must not matter");
    for l in 0..2 {
        for cx in 0..4 {
            for cy in 0..4 {
                assert_eq!(a.cell_penalty(l, (cx, cy)), b.cell_penalty(l, (cx, cy)));
            }
        }
    }
}

/// A token cancelled before `route()` starts: the iteration loop never
/// commits a net, everything is accounted for, and the (empty) layout is
/// legal.
#[test]
fn pre_cancelled_token_stops_the_loop_with_a_legal_layout() {
    let pkg = g4();
    let token = CancelToken::new();
    token.cancel();
    let out = InfoRouter::new(neg_seq_only()).with_cancel_token(token).route(&pkg);
    assert!(out.cancelled, "outcome records the cancellation");
    assert_eq!(out.stats.routed_nets, 0, "nothing commits on a dead token");
    assert_eq!(
        out.net_status.len(),
        pkg.nets().len(),
        "every net is accounted for on the cancel path"
    );
    assert_drc_legal(&out);
    if let Some(stats) = &out.negotiation {
        assert!(stats.iterations <= 1, "a dead token stops the loop immediately");
        assert!(!stats.converged, "an interrupted run never claims convergence");
    }
}

/// A token tripped mid-run stops the loop between net commits: committed
/// work survives, the layout is legal, and the run reports degraded.
#[test]
fn mid_run_cancel_leaves_a_legal_partial_layout() {
    let pkg = g4();
    let token = CancelToken::new();
    // Checkpoints fire every `CHECK_INTERVAL` (4096) expansions; g4's
    // sequential stage runs a few such windows, so a trip after 2 lands
    // mid-run — after some commits, before the loop finishes.
    token.trip_after_checks(2);
    let out = InfoRouter::new(neg_seq_only()).with_cancel_token(token).route(&pkg);
    assert!(out.cancelled);
    assert_drc_legal(&out);
    if let Some(stats) = &out.negotiation {
        assert!(!stats.converged, "an interrupted run never claims convergence");
    }
}
