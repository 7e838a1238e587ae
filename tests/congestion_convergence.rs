//! Convergence/equivalence suite for negotiated-congestion routing
//! (DESIGN.md §4h).
//!
//! Routes the six golden circuits with `congestion_mode` on and pins the
//! negotiated front's contract:
//!
//! - the iteration loop terminates within [`NEGOTIATION_MAX_ITERS`];
//! - the final layout is DRC-legal (failed nets surface as
//!   `Disconnected`, never as geometry violations) and its canonical
//!   hash is pinned;
//! - a declined front returns the legacy layout byte for byte;
//! - on these six circuits, routability is no worse than the legacy
//!   rip-up path's (a measured fact here, not a guarantee: only a
//!   declined run is never worse by construction);
//! - threads 1 and 4 produce byte-identical layouts *and* the same
//!   iteration count — the negotiated loop's decisions (failure sets,
//!   contested cells, victims, re-queue order) are thread-invariant.

use info_rdl::generators::{build_dense, dense_spec};
use info_rdl::model::{drc, Package};
use info_rdl::router::sequential::NEGOTIATION_MAX_ITERS;
use info_rdl::{InfoRouter, RouteOutcome, RouterConfig};

/// The same six pinned circuits as `golden_layouts.rs`.
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
        ("g1_two_chip", mk(1, 12, 30, 7)),
        ("g2_two_chip_alt_seed", mk(1, 16, 40, 11)),
        ("g3_three_chip", mk(2, 16, 48, 23)),
        ("g4_three_chip_dense", mk(2, 20, 56, 31)),
        ("g5_six_chip", mk(3, 20, 40, 41)),
        ("g6_six_chip_dense", mk(3, 24, 48, 53)),
    ]
}

fn route(pkg: &Package, threads: usize, negotiated: bool) -> RouteOutcome {
    let mut cfg = RouterConfig::default().with_global_cells(14).with_threads(threads);
    if negotiated {
        cfg = cfg.with_congestion_mode();
    }
    InfoRouter::new(cfg).route(pkg)
}

/// No geometry violation is ever tolerated; `Disconnected` is the legal
/// way a failed net shows up in the report.
fn assert_drc_legal(name: &str, out: &RouteOutcome) {
    for v in out.drc.violations() {
        assert!(
            matches!(v, drc::Violation::Disconnected { .. }),
            "{name}: negotiated layout must stay DRC-legal: {v}"
        );
    }
}

/// Canonical hashes of the six goldens routed in congestion mode
/// (global_cells 14), in [`circuits`] order. Congestion-mode geometry is
/// under the same contract as the default path's `tests/golden/`
/// snapshots: a change may move it only by routing strictly more nets.
const NEGOTIATED_GOLDEN_HASHES: [&str; 6] = [
    "e3388f685960bcd1",
    "cea0bb5a46ba8e1e",
    "8f67154921bfa728",
    "45c7c8468188846a",
    "12bb90c2cd457255",
    "a1d92031d063b468",
];

/// Legacy layout of g4 routed sequential-only, without LP, under a
/// 30-expansion search budget — the layout a declined run must return.
const G4_BUDGET30_LEGACY_HASH: &str = "29cf6a7c4d0105f1";

/// Termination, legality, pinned geometry, and
/// routability-no-worse-than-rip-up, per golden circuit.
#[test]
fn negotiated_terminates_legal_and_routes_no_worse() {
    for ((name, pkg), pinned) in circuits().into_iter().zip(NEGOTIATED_GOLDEN_HASHES) {
        let neg = route(&pkg, 1, true);
        let legacy = route(&pkg, 1, false);
        assert_eq!(
            format!("{:016x}", neg.layout.canonical_hash()),
            pinned,
            "{name}: congestion-mode layout moved"
        );

        let stats = neg
            .negotiation
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: congestion_mode must report NegotiationStats"));
        assert!(
            (1..=NEGOTIATION_MAX_ITERS).contains(&stats.iterations),
            "{name}: iteration count {} outside [1, {NEGOTIATION_MAX_ITERS}]",
            stats.iterations
        );
        if stats.converged {
            assert_eq!(
                stats.final_overuse, 0,
                "{name}: a converged run has no contested cells left"
            );
        }
        assert_drc_legal(name, &neg);
        assert!(
            legacy.negotiation.is_none(),
            "{name}: the legacy path must not report negotiation stats"
        );
        assert!(
            neg.stats.routed_nets >= legacy.stats.routed_nets,
            "{name}: negotiated routability regressed: {} routed vs legacy {}",
            neg.stats.routed_nets,
            legacy.stats.routed_nets
        );
        assert!(
            neg.failed.len() <= legacy.failed.len(),
            "{name}: negotiated failed-net count regressed: {:?} vs legacy {:?}",
            neg.failed,
            legacy.failed
        );
    }
}

/// The decline guarantee (DESIGN.md §4h): a mass-failure front restores
/// the stage-entry layout and the stage re-runs the legacy path from it,
/// so under any fixed search budget a declined negotiated route *is* the
/// legacy route, byte for byte.
#[test]
fn declined_run_is_byte_identical_to_legacy() {
    let pkg = circuits().swap_remove(3).1; // g4_three_chip_dense
    // Sequential-only so every net goes through the negotiated front (the
    // concurrent stage would otherwise absorb most of g4 and mass failure
    // could never trip on a 10-net circuit), with a search budget small
    // enough that >8 of the 10 nets fail within the front's first couple
    // of iterations.
    let budget = Some(30usize);
    let base = || {
        RouterConfig::default()
            .with_global_cells(14)
            .with_threads(1)
            .without_concurrent()
            .without_lp()
    };
    let mut neg_cfg = base().with_congestion_mode();
    neg_cfg.retry_expansion_budget = budget;
    let mut legacy_cfg = base();
    legacy_cfg.retry_expansion_budget = budget;
    let neg = InfoRouter::new(neg_cfg).route(&pkg);
    let legacy = InfoRouter::new(legacy_cfg).route(&pkg);

    let stats = neg.negotiation.as_ref().expect("negotiation stats");
    assert!(
        stats.declined,
        "a 30-expansion budget must mass-fail g4's front (routed {} of {})",
        neg.stats.routed_nets,
        pkg.nets().len()
    );
    assert!(!stats.converged, "a declined front never claims convergence");
    assert_eq!(
        format!("{:016x}", legacy.layout.canonical_hash()),
        G4_BUDGET30_LEGACY_HASH,
        "the legacy reference layout moved"
    );
    assert_eq!(
        neg.layout.canonical_hash(),
        legacy.layout.canonical_hash(),
        "a declined run must return the exact legacy layout"
    );
    assert_eq!(neg.failed, legacy.failed, "a declined run fails exactly the legacy nets");
    assert_drc_legal("g4_declined", &neg);
}

/// Thread matrix: negotiated layouts and iteration counts are identical
/// at 1 and 4 threads, per golden circuit.
#[test]
fn negotiated_thread_matrix_identical() {
    for (name, pkg) in circuits() {
        let base = route(&pkg, 1, true);
        let par = route(&pkg, 4, true);
        assert_eq!(
            base.layout.canonical_hash(),
            par.layout.canonical_hash(),
            "{name}: threads=4 negotiated layout differs from threads=1"
        );
        assert_eq!(base.failed, par.failed, "{name}: failed-net sets differ");
        let (b, p) = (
            base.negotiation.as_ref().expect("stats at threads=1"),
            par.negotiation.as_ref().expect("stats at threads=4"),
        );
        assert_eq!(
            b.iterations, p.iterations,
            "{name}: iteration counts differ across thread counts"
        );
        assert_eq!(b.converged, p.converged, "{name}: convergence verdicts differ");
        assert_eq!(
            b.history_totals, p.history_totals,
            "{name}: per-iteration history escalation differs across thread counts"
        );
    }
}
