//! Telemetry determinism suite.
//!
//! Locks down the three contracts the telemetry subsystem makes:
//!
//! 1. The layout, the per-net route journal, every work counter and the
//!    search statistics are deterministic output: routing a golden
//!    circuit twice in one process reproduces all of them. Each
//!    `HashMap` in the process draws its own `RandomState` seed, so any
//!    output that leaked a hash map's iteration order would differ.
//! 2. Telemetry is observation-only: the routed layout is byte-identical
//!    (canonical hash) with telemetry on and off.
//! 3. Counters are monotonic: a rip-up trial that fails and restores the
//!    layout snapshot does not roll its counters back — every trial
//!    resolves to exactly one commit or one restore, and work done during
//!    restored trials stays counted.

use info_rdl::generators::{build_dense, dense_spec};
use info_rdl::model::Package;
use info_rdl::{InfoRouter, RouteOutcome, RouterConfig, TelemetryReport};

/// The six golden circuits from `tests/golden_layouts.rs`, same specs.
fn golden_circuits() -> Vec<(&'static str, Package)> {
    vec![
        ("g1_two_chip", mk(1, 12, 30, 7)),
        ("g2_two_chip_alt_seed", mk(1, 16, 40, 11)),
        ("g3_three_chip", mk(2, 16, 48, 23)),
        ("g4_three_chip_dense", mk(2, 20, 56, 31)),
        ("g5_six_chip", mk(3, 20, 40, 41)),
        ("g6_six_chip_dense", mk(3, 24, 48, 53)),
    ]
}

fn mk(idx: usize, io: usize, bumps: usize, seed: u64) -> Package {
    let mut spec = dense_spec(idx);
    spec.io_pads = io;
    spec.nets = io / 2;
    spec.bump_pads = bumps;
    spec.seed = seed;
    build_dense(spec, false)
}

fn route_telemetry_on(pkg: &Package, cells: usize) -> RouteOutcome {
    InfoRouter::new(RouterConfig::default().with_global_cells(cells).with_telemetry()).route(pkg)
}

/// Counters that measure wall-clock time rather than work.
const WALL_CLOCK_COUNTERS: [&str; 1] = ["ripup_wall_us"];

/// Routing the same circuit twice reproduces the layout, the failed
/// set, the journal — order, contents, victims, outcomes — every work
/// counter and the search statistics.
#[test]
fn journal_identical_across_repeat_routes() {
    let mut circuits = golden_circuits();
    // A congested variant that exercises rip-up (commits *and* restores)
    // so the invariance claim covers RipUp records too (at 14 global
    // cells none of the goldens rip up).
    circuits.push(("g3_congested", mk(2, 16, 48, 23)));
    for (name, pkg) in circuits {
        let cells = if name == "g3_congested" { 10 } else { 14 };
        let first_out = route_telemetry_on(&pkg, cells);
        let again_out = route_telemetry_on(&pkg, cells);
        assert_eq!(
            first_out.layout.canonical_hash(),
            again_out.layout.canonical_hash(),
            "{name}: layout differs between two routes"
        );
        assert_eq!(first_out.failed, again_out.failed, "{name}: failed-net sets differ");
        assert_eq!(
            first_out.timings.search, again_out.timings.search,
            "{name}: search statistics differ between two routes"
        );
        let first = first_out.telemetry.expect("telemetry enabled");
        let again = again_out.telemetry.expect("telemetry enabled");
        assert_eq!(first.journal, again.journal, "{name}: route journal differs between two routes");
        let work = |r: &TelemetryReport| -> Vec<(&'static str, u64)> {
            r.counters.iter().copied().filter(|(l, _)| !WALL_CLOCK_COUNTERS.contains(l)).collect()
        };
        assert_eq!(
            work(&first),
            work(&again),
            "{name}: telemetry counters differ between two routes"
        );
        if name == "g3_congested" {
            assert!(
                first.counter("ripup_attempts") > 0,
                "g3_congested no longer exercises rip-up; pick a denser probe"
            );
        }
    }
}

/// Telemetry must be observation-only: enabling it cannot change a single
/// byte of the routed layout or any routing statistic.
#[test]
fn layouts_byte_identical_telemetry_on_off() {
    for (name, pkg) in golden_circuits() {
        let base_cfg = RouterConfig::default().with_global_cells(14);
        let off = InfoRouter::new(base_cfg).route(&pkg);
        let on = InfoRouter::new(base_cfg.with_telemetry()).route(&pkg);
        assert!(off.telemetry.is_none(), "{name}: telemetry-off outcome carries a report");
        assert!(on.telemetry.is_some(), "{name}: telemetry-on outcome missing its report");
        assert_eq!(
            off.layout.canonical_hash(),
            on.layout.canonical_hash(),
            "{name}: layout differs with telemetry enabled"
        );
        assert_eq!(off.failed, on.failed, "{name}: failed-net sets differ");
        assert_eq!(
            off.stats.total_wirelength_um, on.stats.total_wirelength_um,
            "{name}: wirelength differs with telemetry enabled"
        );
        assert_eq!(off.stats.via_count, on.stats.via_count, "{name}: via counts differ");
    }
}

/// Rip-up restores roll back the *layout*, never the counters. Every
/// trial increments `ripup_attempts` and then resolves to exactly one of
/// `ripup_commits` (net stuck) or `snapshot_restores` (rolled back), so
/// the three counters stay in lockstep — and expansion work journaled at
/// commit points can never exceed the total the counters accumulated,
/// restored trials included.
#[test]
fn counters_monotonic_across_ripup_restores() {
    let pkg = mk(2, 16, 48, 23);
    let rep = route_telemetry_on(&pkg, 10).telemetry.expect("telemetry enabled");
    let attempts = rep.counter("ripup_attempts");
    let commits = rep.counter("ripup_commits");
    let restores = rep.counter("snapshot_restores");
    assert!(attempts > 0, "probe circuit must exercise rip-up");
    assert!(restores > 0, "probe circuit must restore at least one snapshot");
    assert_eq!(
        attempts,
        commits + restores,
        "every rip-up trial must resolve to exactly one commit or one restore"
    );
    let non_concurrent =
        rep.journal.iter().filter(|r| r.pass.label() != "concurrent").count() as u64;
    assert!(
        rep.counter("searches") >= non_concurrent,
        "searches counter ({}) fell below journaled sequential attempts ({non_concurrent}) — \
         a restore rolled the counter back",
        rep.counter("searches")
    );
    let journaled: u64 =
        rep.journal.iter().filter(|r| r.pass.label() != "concurrent").map(|r| r.expansions).sum();
    assert!(
        rep.counter("nodes_expanded") >= journaled,
        "nodes_expanded counter ({}) fell below journaled expansion work ({journaled})",
        rep.counter("nodes_expanded")
    );
}
