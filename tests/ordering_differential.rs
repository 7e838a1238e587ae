//! Differential tests of the feature-driven net ordering the negotiated
//! front uses (`info_router::ordering`, DESIGN.md §4h) against the legacy
//! shortest-first order.

use info_rdl::generators::{build_dense, dense_spec};
use info_rdl::model::{Layout, NetId, Package};
use info_rdl::router::ordering::{feature_order, net_features};
use info_rdl::router::sequential::space_config;
use info_rdl::tile::RoutingSpace;
use info_rdl::{InfoRouter, RouterConfig};
use std::collections::BTreeMap;

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

fn stage_space(pkg: &Package, cfg: &RouterConfig) -> RoutingSpace {
    RoutingSpace::build(pkg, &Layout::new(pkg), space_config(pkg, cfg))
}

fn all_nets(pkg: &Package) -> Vec<NetId> {
    pkg.nets().iter().map(|n| n.id).collect()
}

/// The order is a pure function of (package, space, failure records):
/// recomputing it, or permuting the input net list, changes nothing.
#[test]
fn feature_order_is_deterministic_and_permutation_invariant() {
    for (name, pkg) in circuits() {
        let cfg = RouterConfig::default().with_global_cells(14);
        let space = stage_space(&pkg, &cfg);
        let nets = all_nets(&pkg);
        let mut reversed = nets.clone();
        reversed.reverse();
        let fails = BTreeMap::new();
        let a = feature_order(&pkg, &space, &nets, &fails, 1);
        let b = feature_order(&pkg, &space, &nets, &fails, 1);
        let c = feature_order(&pkg, &space, &reversed, &fails, 1);
        assert_eq!(a, b, "{name}: feature order must be deterministic");
        assert_eq!(a, c, "{name}: feature order must not depend on input permutation");
    }
}

/// The features read only the package, the stage-start space, and the
/// authoritative failure map — none of which vary with the worker thread
/// count — so two configs differing only in `threads`, each computing on
/// its own thread count, see identical features and identical orders.
#[test]
fn ordering_features_are_thread_invariant() {
    for (name, pkg) in circuits() {
        let one = RouterConfig::default().with_global_cells(14).with_threads(1);
        let four = RouterConfig::default().with_global_cells(14).with_threads(4);
        let (s1, s4) = (stage_space(&pkg, &one), stage_space(&pkg, &four));
        let nets = all_nets(&pkg);
        let mut fails = BTreeMap::new();
        fails.insert(nets[0], 250_000u64);
        let f1 = net_features(&pkg, &s1, &nets, &fails, 1);
        let f4 = net_features(&pkg, &s4, &nets, &fails, 4);
        assert_eq!(f1, f4, "{name}: features differ with the thread count");
        assert_eq!(
            feature_order(&pkg, &s1, &nets, &fails, 1),
            feature_order(&pkg, &s4, &nets, &fails, 4),
            "{name}: order differs with the thread count"
        );
    }
}

/// Recording a failure for a net can only move it *earlier*: its score
/// strictly rises while every other net's stays put (their detour terms
/// are zero with or without the record).
#[test]
fn a_failure_record_never_demotes_a_net() {
    for (name, pkg) in circuits() {
        let cfg = RouterConfig::default().with_global_cells(14);
        let space = stage_space(&pkg, &cfg);
        let nets = all_nets(&pkg);
        let base = feature_order(&pkg, &space, &nets, &BTreeMap::new(), 1);
        for &probe in &nets {
            let mut fails = BTreeMap::new();
            fails.insert(probe, 500_000u64);
            let with = feature_order(&pkg, &space, &nets, &fails, 1);
            let pos = |order: &[NetId]| order.iter().position(|&n| n == probe).expect("present");
            assert!(
                pos(&with) <= pos(&base),
                "{name}: failure record demoted {probe:?} from {} to {}",
                pos(&base),
                pos(&with)
            );
        }
    }
}

/// End-to-end differential on the two densest goldens: the negotiated
/// front (feature-ordered) never routes fewer nets than the legacy
/// shortest-first + rip-up path.
#[test]
fn feature_order_never_drops_routability() {
    for (name, pkg) in circuits().into_iter().filter(|(n, _)| *n == "g4_three_chip_dense" || *n == "g6_six_chip_dense") {
        let legacy = InfoRouter::new(RouterConfig::default().with_global_cells(14)).route(&pkg);
        let neg = InfoRouter::new(
            RouterConfig::default().with_global_cells(14).with_congestion_mode(),
        )
        .route(&pkg);
        assert!(
            neg.stats.routed_nets >= legacy.stats.routed_nets,
            "{name}: negotiated {} routed vs legacy {}",
            neg.stats.routed_nets,
            legacy.stats.routed_nets
        );
    }
}
