//! Anytime prefix consistency: a budget-truncated run is a *prefix* of
//! the full run, not a different answer. Every net the truncated run
//! managed to route must appear in the full run's layout with
//! byte-identical geometry.
//!
//! The guarantee holds whenever the full run never rips up a committed
//! net (rip-up rewrites history, so a truncated prefix could diverge);
//! the test guards on the full run's `ripup_attempts` counter and skips
//! circuits where rip-up fired.

use info_rdl::generators::{build_dense, dense_spec};
use info_rdl::model::{Layout, NetId, Package};
use info_rdl::router::{Completion, NetStatus};
use info_rdl::tile::CancelToken;
use info_rdl::{InfoRouter, RouterConfig};

/// Golden-suite-style circuits (scaled dense instances, three sizes).
fn circuits() -> Vec<(&'static str, Package)> {
    let mk = |idx: usize, io: usize, bumps: usize, seed: u64| {
        let mut spec = dense_spec(idx);
        spec.io_pads = io;
        spec.nets = io / 2;
        spec.bump_pads = bumps;
        spec.seed = seed;
        build_dense(spec, false)
    };
    vec![
        ("p1_two_chip", mk(1, 12, 30, 7)),
        ("p2_three_chip", mk(2, 16, 48, 23)),
        ("p3_six_chip", mk(3, 20, 40, 41)),
    ]
}

/// Deterministic config; LP off (it moves geometry after
/// routing) and concurrent off (the prefix property is a statement about
/// the sequential commit order).
fn cfg() -> RouterConfig {
    RouterConfig::default()
        .with_global_cells(14)
        .without_concurrent()
        .without_lp()
        .with_telemetry()
}

/// Canonical, id-independent serialization of one net's geometry.
fn net_geometry(layout: &Layout, net: NetId) -> String {
    let mut routes: Vec<String> =
        layout.routes_of(net).map(|r| format!("{:?} {:?}", r.layer, r.path)).collect();
    routes.sort();
    let mut vias: Vec<String> = layout
        .vias_of(net)
        .map(|v| format!("{:?} {:?} {:?} {:?}", v.center, v.width, v.top, v.bottom))
        .collect();
    vias.sort();
    format!("routes[{}] vias[{}]", routes.join(";"), vias.join(";"))
}

#[test]
fn truncated_runs_are_prefixes_of_the_full_run() {
    for (name, pkg) in circuits() {
        let full = InfoRouter::new(cfg()).route(&pkg);
        let ripups = full
            .telemetry
            .as_ref()
            .map(|t| t.counter("ripup_attempts"))
            .unwrap_or(u64::MAX);
        if ripups > 0 {
            // Rip-up rewrites committed geometry; the prefix property is
            // only promised for monotone runs.
            eprintln!("{name}: skipped (full run used {ripups} rip-ups)");
            continue;
        }
        for k in [2u64, 5, 9] {
            let token = CancelToken::new();
            token.trip_after_checks(k);
            let cut = InfoRouter::new(cfg()).with_cancel_token(token).route(&pkg);
            let mut compared = 0;
            for (net, status) in &cut.net_status {
                if *status != NetStatus::Routed {
                    continue;
                }
                assert_eq!(
                    net_geometry(&cut.layout, *net),
                    net_geometry(&full.layout, *net),
                    "{name} k={k}: {net} differs between truncated and full run"
                );
                compared += 1;
            }
            // The truncated run must still be an honest prefix: either it
            // was actually cut short (degraded) or it finished everything
            // the full run did.
            if cut.completion == Completion::Full {
                assert_eq!(
                    cut.layout.canonical_hash(),
                    full.layout.canonical_hash(),
                    "{name} k={k}: an un-truncated run must equal the full run"
                );
            }
            eprintln!("{name} k={k}: {compared} routed nets byte-identical");
        }
    }
}

/// Larger budgets never lose nets: the routed set grows monotonically
/// with the checkpoint budget (anytime behavior, not thrash).
#[test]
fn routed_set_is_monotone_in_the_budget() {
    let (_, pkg) = circuits().swap_remove(0);
    let full = InfoRouter::new(cfg()).route(&pkg);
    let ripups =
        full.telemetry.as_ref().map(|t| t.counter("ripup_attempts")).unwrap_or(u64::MAX);
    if ripups > 0 {
        // Same monotonicity caveat as the prefix test: rip-up may
        // legitimately un-commit a net between two budgets.
        eprintln!("skipped (full run used {ripups} rip-ups)");
        return;
    }
    let mut prev: Option<Vec<NetId>> = None;
    for k in [1u64, 3, 6, 12, 1_000_000] {
        let token = CancelToken::new();
        token.trip_after_checks(k);
        let out = InfoRouter::new(cfg()).with_cancel_token(token).route(&pkg);
        let routed: Vec<NetId> = out
            .net_status
            .iter()
            .filter(|(_, s)| *s == NetStatus::Routed)
            .map(|(n, _)| *n)
            .collect();
        if let Some(prev) = &prev {
            assert!(
                prev.iter().all(|n| routed.contains(n)),
                "k={k}: routed set shrank: {prev:?} -> {routed:?}"
            );
        }
        prev = Some(routed);
    }
}
