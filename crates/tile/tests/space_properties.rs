//! Property tests on the routing space: tiles partition the free space,
//! blockage tagging is sound, adjacency is symmetric, and a trial's undo
//! journal rolls back (or commits) exactly.

use info_geom::{Octagon, Point, Polyline, Rect, Segment};
use info_model::{DesignRules, Layout, NetId, Package, PackageBuilder, WireLayer};
use info_tile::space::{Blocker, ViaSite};
use info_tile::{RoutingSpace, SpaceConfig, TileId};
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

/// One live tile: `(id, layer, cell, shape, blockers)`.
type TileRow = (TileId, WireLayer, (usize, usize), Octagon, Vec<Blocker>);

/// Everything a search can observe of a space: tile slots, revision, every
/// live tile, every cell's tile list and via sites, and the planar
/// neighbors of every live tile for the committed wires' own net and for
/// a foreign net. Querying neighbors fills (and so exercises) the
/// adjacency cache.
#[derive(Debug, PartialEq)]
struct Observed {
    slots: usize,
    revision: u64,
    tiles: Vec<TileRow>,
    cells: Vec<Vec<TileId>>,
    via_sites: Vec<Vec<ViaSite>>,
    neighbors: Vec<Vec<(TileId, Segment)>>,
}

fn observe(space: &RoutingSpace) -> Observed {
    let tiles: Vec<_> = space
        .live_tiles()
        .map(|(id, t)| (id, t.layer, t.cell, t.shape, t.blockers.clone()))
        .collect();
    let mut cells = Vec::new();
    let mut via_sites = Vec::new();
    for cy in 0..5 {
        for cx in 0..5 {
            for layer in [WireLayer(0), WireLayer(1)] {
                cells.push(space.tiles_in_cell(layer, cx, cy).to_vec());
            }
            via_sites.push(space.via_sites(cx, cy).to_vec());
        }
    }
    let neighbors = tiles
        .iter()
        .flat_map(|&(id, ..)| [NetId(0), NetId(42)].map(|net| (id, net)))
        .map(|(id, net)| {
            space.planar_neighbors(id, net).iter().map(|e| (e.to, e.crossing)).collect()
        })
        .collect();
    Observed {
        slots: space.tile_slots(),
        revision: space.revision(),
        tiles,
        cells,
        via_sites,
        neighbors,
    }
}

/// One random layout edit — a wire of net 0–3 added (horizontal,
/// vertical or diagonal) or every wire of one such net removed — and the
/// rects it dirties. Net 0 is the package's own net, so removing all of
/// its wires also reopens its pads' escape keepouts.
fn random_edit(rng: &mut rand::rngs::StdRng, layout: &mut Layout) -> Vec<Rect> {
    let net = NetId(rng.gen_range(0..4));
    if rng.gen_bool(0.3) {
        let dirty: Vec<Rect> = layout
            .routes_of(net)
            .flat_map(|r| r.path.segments().map(|s| Rect::new(s.a, s.b)).collect::<Vec<_>>())
            .collect();
        layout.remove_net(net);
        return dirty;
    }
    let a = Point::new(rng.gen_range(20_000..400_000), rng.gen_range(20_000..400_000));
    let len = rng.gen_range(20_000..180_000);
    let b = match rng.gen_range(0..3) {
        0 => Point::new(a.x + len, a.y),
        1 => Point::new(a.x, a.y + len),
        _ => Point::new(a.x + len, a.y + len),
    };
    layout.add_route(net, WireLayer(rng.gen_range(0..2)), Polyline::new(vec![a, b]));
    vec![Rect::new(a, b)]
}

/// Runs 1–4 rounds of random edits, each followed by a dirty rebuild.
/// With `probe`, every round also queries the neighbors of every live
/// tile, so the trial stamps adjacency entries of its own.
fn edit_rounds(
    pkg: &Package,
    layout: &mut Layout,
    space: &mut RoutingSpace,
    rng: &mut rand::rngs::StdRng,
    probe: bool,
) {
    for _ in 0..rng.gen_range(1..=4) {
        let dirty: Vec<Rect> =
            (0..rng.gen_range(1..=3)).flat_map(|_| random_edit(rng, layout)).collect();
        space.rebuild_dirty_multi(pkg, layout, &dirty);
        if probe {
            observe(space);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A rolled-back trial leaves the space observationally equal to a
    /// pre-trial clone — tile ids, revision and cached adjacency included
    /// — and both then evolve identically under the same next rebuild.
    #[test]
    fn rollback_restores_the_pre_trial_space(seed in 0u64..500) {
        let (pkg, mut layout) = random_package(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7121);
        let mut space = RoutingSpace::build(&pkg, &layout, cfg());
        // Warm the cache first: the journal must hand back the entries of
        // the cells it retires.
        let before = observe(&space);
        let mut clone = space.clone();
        let base = layout.clone();

        space.begin_trial();
        edit_rounds(&pkg, &mut layout, &mut space, &mut rng, true);
        space.rollback_trial();
        layout = base;
        prop_assert_eq!(&observe(&space), &before);
        prop_assert_eq!(&observe(&clone), &before);

        // Truncated tile ids are handed out again exactly as the clone
        // hands them out (a rebuild's revision is globally fresh, so that
        // one field differs).
        let dirty = random_edit(&mut rng, &mut layout);
        space.rebuild_dirty_multi(&pkg, &layout, &dirty);
        clone.rebuild_dirty_multi(&pkg, &layout, &dirty);
        let (mut got, mut want) = (observe(&space), observe(&clone));
        got.revision = 0;
        want.revision = 0;
        prop_assert_eq!(got, want);
    }

    /// A committed trial equals the same rebuild sequence run with no
    /// trial open, tile ids included (revisions are globally fresh per
    /// rebuild, so they are the one field that differs).
    #[test]
    fn commit_equals_untrialed_rebuilds(seed in 0u64..500) {
        let (pkg, layout) = random_package(seed);
        let mut space = RoutingSpace::build(&pkg, &layout, cfg());
        observe(&space);
        let mut plain = space.clone();

        let mut trial_layout = layout.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7121);
        space.begin_trial();
        edit_rounds(&pkg, &mut trial_layout, &mut space, &mut rng, true);
        space.commit_trial();

        let mut plain_layout = layout;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7121);
        edit_rounds(&pkg, &mut plain_layout, &mut plain, &mut rng, false);

        let (mut got, mut want) = (observe(&space), observe(&plain));
        got.revision = 0;
        want.revision = 0;
        prop_assert_eq!(got, want);
    }
}

/// One live tile without its id: layer, cell, shape and blockers.
type RankedTile = (WireLayer, (usize, usize), Octagon, Vec<Blocker>);

/// What a search observes of a space with every tile id replaced by its
/// rank among the live ids, so two spaces that differ by an
/// order-preserving renumbering observe equal: the live tiles in id
/// order, every cell's tile list, every cell's via sites, `tile_at` on a
/// grid of points for two nets, the planar neighbors of every live tile
/// for two nets, and the adjacency-cache tallies after those lookups.
#[derive(Debug, PartialEq)]
struct Ranked {
    tiles: Vec<RankedTile>,
    cells: Vec<Vec<usize>>,
    via_sites: Vec<Vec<ViaSite>>,
    tile_at: Vec<Option<usize>>,
    neighbors: Vec<Vec<(usize, Segment)>>,
    cache_stats: (u64, u64),
}

fn observe_ranked(space: &RoutingSpace) -> Ranked {
    let ids: Vec<TileId> = space.live_tiles().map(|(id, _)| id).collect();
    let rank = |id: TileId| ids.binary_search(&id).expect("a live tile id");
    let nets = [NetId(0), NetId(42)];
    let mut cells = Vec::new();
    let mut via_sites = Vec::new();
    for cy in 0..5 {
        for cx in 0..5 {
            for layer in [WireLayer(0), WireLayer(1)] {
                cells.push(space.tiles_in_cell(layer, cx, cy).iter().map(|&id| rank(id)).collect());
            }
            via_sites.push(space.via_sites(cx, cy).to_vec());
        }
    }
    let mut tile_at = Vec::new();
    for x in (15_000..600_000).step_by(30_000) {
        for y in (15_000..600_000).step_by(30_000) {
            for layer in [WireLayer(0), WireLayer(1)] {
                for net in nets {
                    tile_at.push(space.tile_at(layer, Point::new(x, y), net).map(rank));
                }
            }
        }
    }
    let neighbors = ids
        .iter()
        .flat_map(|&id| nets.map(|net| (id, net)))
        .map(|(id, net)| {
            space.planar_neighbors(id, net).iter().map(|e| (rank(e.to), e.crossing)).collect()
        })
        .collect();
    let tiles = ids
        .iter()
        .map(|&id| {
            let t = space.tile(id);
            (t.layer, t.cell, t.shape, t.blockers.clone())
        })
        .collect();
    Ranked {
        tiles,
        cells,
        via_sites,
        tile_at,
        neighbors,
        cache_stats: space.adjacency_cache_stats(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compaction is invisible up to the renumbering: two twins replay
    /// the same random rebuilds, outside trials and inside trials that
    /// roll back or commit, and one compacts after every round. Lookups
    /// inside the trials stamp adjacency entries that a rollback leaves
    /// stale, which the compaction must drop rather than renumber.
    #[test]
    fn compaction_is_invisible_up_to_renumbering(seed in 0u64..500) {
        let (pkg, mut layout) = random_package(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xc0a1);
        let mut compacted = RoutingSpace::build(&pkg, &layout, cfg());
        let mut plain = compacted.clone();
        for round in 0..6 {
            // 0: no trial, 1: a trial rolled back, 2: a trial committed.
            let mode = rng.gen_range(0..3);
            let base = layout.clone();
            if mode > 0 {
                compacted.begin_trial();
                plain.begin_trial();
            }
            for _ in 0..rng.gen_range(1..=3) {
                let dirty: Vec<Rect> = (0..rng.gen_range(1..=3))
                    .flat_map(|_| random_edit(&mut rng, &mut layout))
                    .collect();
                compacted.rebuild_dirty_multi(&pkg, &layout, &dirty);
                plain.rebuild_dirty_multi(&pkg, &layout, &dirty);
                prop_assert_eq!(
                    observe_ranked(&compacted), observe_ranked(&plain),
                    "seed {} round {} mode {}", seed, round, mode
                );
            }
            match mode {
                1 => {
                    compacted.rollback_trial();
                    plain.rollback_trial();
                    layout = base;
                }
                2 => {
                    compacted.commit_trial();
                    plain.commit_trial();
                }
                _ => {}
            }
            compacted.compact();
            prop_assert_eq!(compacted.tile_slots(), compacted.live_tile_count());
            prop_assert_eq!(plain.live_tile_count(), compacted.live_tile_count());
            prop_assert_eq!(
                observe_ranked(&compacted), observe_ranked(&plain),
                "seed {} after round {}", seed, round
            );
        }
        prop_assert!(plain.tile_slots() > plain.live_tile_count(), "no tile was ever retired");
    }
}
