//! Differential suite for the windowed A\* search.
//!
//! The window is lossless by construction (a windowed result is accepted
//! only when provably identical to the full-graph search; see
//! `info_tile::astar` and DESIGN.md §4d). This suite locks that proof in
//! end to end: routing each golden circuit with the window on vs forced
//! off must produce identical routability, wirelength, and canonical
//! layout hashes.

use info_rdl::generators::{build_dense, dense_spec};
use info_rdl::model::Package;
use info_rdl::{InfoRouter, RouteOutcome, RouterConfig};

/// The same six circuits the golden suite pins (kept in sync by hand —
/// both files construct them from `dense_spec`).
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

fn route(pkg: &Package, cfg: RouterConfig) -> RouteOutcome {
    InfoRouter::new(cfg.with_global_cells(14)).route(pkg)
}

/// Windowed vs forced-full-graph search: bit-identical outcomes on every
/// golden circuit. Any window that changed a path, a tie-break, or a
/// failure verdict shows up as a hash mismatch here.
#[test]
fn windowed_search_matches_full_graph_on_golden_circuits() {
    for (name, pkg) in circuits() {
        let windowed = route(&pkg, RouterConfig::default());
        let full = route(&pkg, RouterConfig::default().without_search_window());
        assert_eq!(
            windowed.layout.canonical_hash(),
            full.layout.canonical_hash(),
            "{name}: windowed layout differs from full-graph layout"
        );
        assert_eq!(windowed.failed, full.failed, "{name}: routability differs");
        assert_eq!(
            windowed.stats.total_wirelength_um.to_bits(),
            full.stats.total_wirelength_um.to_bits(),
            "{name}: wirelength differs"
        );
        assert_eq!(
            windowed.stats.via_count, full.stats.via_count,
            "{name}: via count differs"
        );
        // The full-graph baseline must never escalate (there is no window
        // to escalate from); the windowed run must have searched at least
        // as often as nets exist, and both report live stats.
        assert_eq!(full.timings.search.window_escalations, 0, "{name}");
        assert!(windowed.timings.search.searches >= full.failed.len() as u64, "{name}");
    }
}
