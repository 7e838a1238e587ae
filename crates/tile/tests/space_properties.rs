//! Property tests on the routing space: tiles partition the free space,
//! blockage tagging is sound, and adjacency is symmetric.

use info_geom::{Point, Polyline, Rect};
use info_model::{DesignRules, Layout, NetId, Package, PackageBuilder, WireLayer};
use info_tile::{RoutingSpace, SpaceConfig};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn random_package(seed: u64) -> (Package, Layout) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = PackageBuilder::new(
        Rect::new(Point::new(0, 0), Point::new(600_000, 600_000)),
        DesignRules::default(),
        2,
    );
    let chip = b.add_chip(Rect::new(Point::new(60_000, 60_000), Point::new(240_000, 240_000)));
    let n_obs = rng.gen_range(0..4);
    for _ in 0..n_obs {
        let x = rng.gen_range(260_000..500_000);
        let y = rng.gen_range(260_000..500_000);
        let w = rng.gen_range(10_000..60_000);
        let h = rng.gen_range(10_000..60_000);
        let _ = b.add_obstacle(
            WireLayer(rng.gen_range(0..2)),
            Rect::new(Point::new(x, y), Point::new(x + w, y + h)),
        );
    }
    let io = b.add_io_pad(chip, Point::new(200_000, 200_000)).unwrap();
    let bump = b.add_bump_pad(Point::new(450_000, 150_000)).unwrap();
    b.add_net(io, bump).unwrap();
    let pkg = b.build().unwrap();
    let mut layout = Layout::new(&pkg);
    // A couple of committed foreign wires.
    for k in 0..rng.gen_range(0..3) {
        let y = 300_000 + 60_000 * k;
        layout.add_route(
            NetId(0),
            WireLayer(0),
            Polyline::new(vec![Point::new(280_000, y), Point::new(520_000, y)]),
        );
    }
    (pkg, layout)
}

fn cfg() -> SpaceConfig {
    SpaceConfig {
        cells_x: 5,
        cells_y: 5,
        clearance: 4_000,
        min_thickness: 4_000,
        via_width: 5_000,
        via_cost: 20_000.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tiles within a cell never overlap in their interiors.
    #[test]
    fn tiles_have_disjoint_interiors(seed in 0u64..500) {
        let (pkg, layout) = random_package(seed);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        for layer in [WireLayer(0), WireLayer(1)] {
            for cy in 0..5 {
                for cx in 0..5 {
                    let ids = space.tiles_in_cell(layer, cx, cy);
                    for (i, &a) in ids.iter().enumerate() {
                        for &b in &ids[i + 1..] {
                            let ta = &space.tile(a).shape;
                            let tb = &space.tile(b).shape;
                            let ix = ta.intersection(tb);
                            if !ix.is_empty() {
                                prop_assert_eq!(
                                    ix.area(), 0,
                                    "tiles {:?} and {:?} overlap: {} vs {}", a, b, ta, tb
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Sampled points near foreign wires are blocked for other nets;
    /// sampled far-away free points are reachable.
    #[test]
    fn wire_bands_block_foreign_nets(seed in 0u64..500) {
        let (pkg, layout) = random_package(seed);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        for r in layout.routes() {
            for seg in r.path.segments() {
                let m = seg.midpoint();
                // 2 µm above the wire centerline: inside the 4 µm band.
                let near = Point::new(m.x, m.y + 2_000);
                if seg.distance_to_point(near) < 3_000.0 {
                    prop_assert!(
                        space.tile_at(r.layer, near, NetId(42)).is_none(),
                        "point {} within the band of {:?} must be blocked",
                        near, r.id
                    );
                }
            }
        }
    }

    /// Planar adjacency is symmetric for a free-roaming net.
    #[test]
    fn adjacency_is_symmetric(seed in 0u64..200) {
        let (pkg, layout) = random_package(seed);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        let probe_net = NetId(7); // foreign to everything committed
        let mut checked = 0;
        for (id, t) in space.live_tiles() {
            if !t.is_free() || checked > 300 {
                continue;
            }
            for e in space.planar_neighbors(id, probe_net) {
                let back = space.planar_neighbors(e.to, probe_net);
                prop_assert!(
                    back.iter().any(|b| b.to == id),
                    "edge {:?} -> {:?} has no reverse", id, e.to
                );
                checked += 1;
            }
        }
    }

    /// Every via site sits in free space on both of its layers.
    #[test]
    fn via_sites_are_usable(seed in 0u64..500) {
        let (pkg, layout) = random_package(seed);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        for cy in 0..5 {
            for cx in 0..5 {
                for site in space.via_sites(cx, cy) {
                    for layer in [site.upper, site.lower] {
                        prop_assert!(
                            space.tile_at(layer, site.at, NetId(99)).is_some(),
                            "via site {:?} unusable on {layer}", site.at
                        );
                    }
                }
            }
        }
    }
}
