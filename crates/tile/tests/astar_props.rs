//! Property tests on the A\* search layer: on randomized tile graphs,
//! every returned path is a genuine walk of the graph (endpoint-anchored,
//! every hop an existing planar or via adjacency), its cost is exactly
//! the sum of its edge costs, its realization obeys the 90°/135° turn
//! rule, and unroutable instances return `None` instead of panicking. A
//! search capped by its expansion budget stops one expansion past it. The
//! rip-up refutation probe is sound: its step relation contains every
//! reversed search edge, and each refutation it returns is a no-path the
//! unbounded full-graph search confirms.

use info_geom::{x_arch_len, Point, Polyline, Rect};
use info_model::{DesignRules, Layout, NetId, Package, PackageBuilder, WireLayer};
use info_tile::{astar, realize, AstarResult, RoutingSpace, SearchOptions, SpaceConfig};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Searches net 0 from `src` to `dst`; `None` when it fails.
fn search(
    space: &RoutingSpace,
    src: (WireLayer, Point),
    dst: (WireLayer, Point),
    opts: SearchOptions,
    stats: &mut astar::SearchStats,
) -> Option<AstarResult> {
    astar::route_cancellable(space, NetId(0), src, dst, opts, None, stats).ok()
}

/// A randomized routing instance: one net between an I/O pad and a bump
/// pad, with random obstacles and random committed foreign wires between
/// them.
fn random_instance(seed: u64) -> (Package, Layout) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = PackageBuilder::new(
        Rect::new(Point::new(0, 0), Point::new(600_000, 600_000)),
        DesignRules::default(),
        2,
    );
    let chip = b.add_chip(Rect::new(Point::new(60_000, 60_000), Point::new(240_000, 240_000)));
    for _ in 0..rng.gen_range(0..5) {
        let x = rng.gen_range(260_000..500_000);
        let y = rng.gen_range(60_000..500_000);
        let w = rng.gen_range(10_000..80_000);
        let h = rng.gen_range(10_000..80_000);
        let _ = b.add_obstacle(
            WireLayer(rng.gen_range(0..2)),
            Rect::new(Point::new(x, y), Point::new(x + w, y + h)),
        );
    }
    let io = b.add_io_pad(chip, Point::new(200_000, 200_000)).unwrap();
    let bump = b
        .add_bump_pad(Point::new(rng.gen_range(380_000..560_000), rng.gen_range(60_000..560_000)))
        .unwrap();
    b.add_net(io, bump).unwrap();
    let pkg = b.build().unwrap();
    let mut layout = Layout::new(&pkg);
    // Committed foreign wires the search must respect.
    for k in 0..rng.gen_range(0..4i64) {
        let x = 280_000 + 50_000 * k;
        let (y0, y1) = (rng.gen_range(0..250_000), rng.gen_range(350_000..600_000));
        layout.add_route(
            NetId(7),
            WireLayer(rng.gen_range(0..2)),
            Polyline::new(vec![Point::new(x, y0), Point::new(x, y1)]),
        );
    }
    (pkg, layout)
}

fn cfg() -> SpaceConfig {
    SpaceConfig {
        cells_x: 6,
        cells_y: 6,
        clearance: 4_000,
        min_thickness: 4_000,
        via_width: 5_000,
        via_cost: 20_000.0,
    }
}

/// The net-0 terminals of an instance, as `(layer, point)` pairs.
fn terminals(pkg: &Package) -> ((WireLayer, Point), (WireLayer, Point)) {
    let net = pkg.net(NetId(0));
    (
        (pkg.pad_layer(net.a), pkg.pad(net.a).center),
        (pkg.pad_layer(net.b), pkg.pad(net.b).center),
    )
}

/// Asserts that `r` is a genuine walk of `space`'s adjacency structure
/// from `src` to `dst`, and that its cost is the sum of its edge costs.
fn assert_well_formed_path(
    space: &RoutingSpace,
    r: &astar::AstarResult,
    src: (WireLayer, Point),
    dst: (WireLayer, Point),
) {
    assert!(!r.steps.is_empty());
    let first = &r.steps[0];
    let last = r.steps.last().unwrap();
    // Endpoint anchoring: the walk starts at the source point on the
    // source layer and ends in a tile of the destination layer whose
    // shape contains the destination point.
    assert_eq!(first.entry, src.1, "first entry must be the source point");
    assert_eq!(space.tile(first.tile).layer, src.0);
    assert_eq!(space.tile(last.tile).layer, dst.0);
    assert!(
        space.tile(last.tile).shape.contains(dst.1),
        "last tile must contain the destination point"
    );
    let via_cost = space.config().via_cost;
    let mut total = 0.0;
    for w in r.steps.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        match b.via {
            // A via hop: the destination tile must be a via neighbor of
            // the source tile, reached exactly at the recorded site.
            Some((site, _, _)) => {
                assert_eq!(b.entry, site, "via step enters at the via site");
                let vn = space.via_neighbors(a.tile, NetId(0));
                assert!(
                    vn.iter().any(|&(to, s)| to == b.tile && s == site),
                    "via hop {:?} -> {:?} at {:?} is not an existing via adjacency",
                    a.tile,
                    b.tile,
                    site
                );
                total += x_arch_len(a.entry, site);
                total += via_cost;
            }
            // A planar hop: the destination tile must be a planar
            // neighbor, entered at the crossing midpoint of that edge.
            None => {
                let pn = space.planar_neighbors(a.tile, NetId(0));
                assert!(
                    pn.iter().any(|e| e.to == b.tile && e.crossing.midpoint() == b.entry),
                    "planar hop {:?} -> {:?} at {:?} is not an existing adjacency",
                    a.tile,
                    b.tile,
                    b.entry
                );
                total += x_arch_len(a.entry, b.entry);
            }
        }
    }
    total += x_arch_len(last.entry, dst.1);
    assert!(
        (total - r.cost).abs() <= 1e-6,
        "cost {} must equal the edge-cost sum {}",
        r.cost,
        total
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Found paths are genuine graph walks with exact edge-cost sums, and
    /// their realizations obey the 90°/135° turn rule.
    fn paths_are_legal_walks(seed in 0u64..1_000_000) {
        let (pkg, layout) = random_instance(seed);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        let (src, dst) = terminals(&pkg);
        // Must not panic either way; `None` is a legal outcome on a
        // blocked instance.
        let mut stats = astar::SearchStats::default();
        let Some(r) = search(&space, src, dst, SearchOptions::default(), &mut stats) else {
            return Ok(());
        };
        assert_well_formed_path(&space, &r, src, dst);
        if let Some(real) = realize::realize(&r, src, dst) {
            for (_, pl) in &real.routes {
                prop_assert!(
                    pl.validate().is_ok(),
                    "realized polyline violates the turn rule: {:?}",
                    pl
                );
            }
        }
    }

    /// Fully fenced instances return `None` — never panic — with or
    /// without vias.
    fn unroutable_returns_none(seed in 0u64..1_000_000, cells in 4usize..9) {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(600_000, 600_000)),
            DesignRules::default(),
            2,
        );
        let chip =
            b.add_chip(Rect::new(Point::new(60_000, 60_000), Point::new(240_000, 240_000)));
        let io = b.add_io_pad(chip, Point::new(150_000, 150_000)).unwrap();
        let bump = b.add_bump_pad(Point::new(450_000, 450_000)).unwrap();
        b.add_net(io, bump).unwrap();
        // A fence ring around the chip on *both* layers: no escape exists.
        let (lo, hi, t) = (40_000i64, 280_000i64, 10_000i64);
        for layer in [WireLayer(0), WireLayer(1)] {
            for fence in [
                Rect::new(Point::new(lo, lo), Point::new(hi, lo + t)),
                Rect::new(Point::new(lo, hi - t), Point::new(hi, hi)),
                Rect::new(Point::new(lo, lo), Point::new(lo + t, hi)),
                Rect::new(Point::new(hi - t, lo), Point::new(hi, hi)),
            ] {
                b.add_obstacle(layer, fence).unwrap();
            }
        }
        let pkg = b.build().unwrap();
        let layout = Layout::new(&pkg);
        let mut c = cfg();
        c.cells_x = cells;
        c.cells_y = cells;
        let space = RoutingSpace::build(&pkg, &layout, c);
        let (src, dst) = terminals(&pkg);
        let mut stats = astar::SearchStats::default();
        let got = search(&space, src, dst, SearchOptions::default(), &mut stats);
        prop_assert!(got.is_none(), "fenced net must be unroutable (seed {})", seed);
        // The no-via same-layer search must complete without panicking;
        // whether it routes depends on the obstacle draw, so only the
        // absence of a panic is asserted.
        let no_vias = SearchOptions { allow_vias: false, ..SearchOptions::default() };
        let _ = search(&space, src, (src.0, dst.1), no_vias, &mut astar::SearchStats::default());
    }
}

/// Every search edge `u → v` for `net` — planar or via, from every live
/// tile `u` passable for `net` — has `u` in `refute`'s step set from `v`,
/// so a sweep from the destination can never miss a search path.
fn assert_steps_contain_reversed_edges(space: &RoutingSpace, net: NetId) -> usize {
    let mut edges = 0;
    for (u, tile) in space.live_tiles() {
        if !tile.passable_for(net) {
            continue;
        }
        let planar = space.planar_neighbors(u, net).into_iter().map(|e| e.to);
        let via = space.via_neighbors(u, net).into_iter().map(|(to, _)| to);
        for v in planar.chain(via) {
            edges += 1;
            assert!(
                astar::refute_steps(space, v, net).contains(&u),
                "search edge {u:?} -> {v:?} of net {net:?} is missing from the steps of {v:?}"
            );
        }
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The refutation step relation contains every reversed planar and
    /// via edge, for the routed net and for the foreign wires' net.
    fn refute_steps_contain_every_reversed_search_edge(seed in 0u64..1_000_000) {
        let (pkg, layout) = random_instance(seed);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        let edges = assert_steps_contain_reversed_edges(&space, NetId(0))
            + assert_steps_contain_reversed_edges(&space, NetId(7));
        prop_assert!(edges > 0, "no search edges to check");
    }
}

/// A random instance whose destination pad is boxed in by foreign wires:
/// a square ring around the bump pad on every layer, except that some
/// draws leave one side open on one layer (then the net may escape).
fn boxed_instance(seed: u64) -> (Package, Layout) {
    let (pkg, mut layout) = random_instance(seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
    let c = pkg.pad(pkg.net(NetId(0)).b).center;
    let d = rng.gen_range(25_000..60_000);
    let open = rng.gen_bool(0.3).then(|| (rng.gen_range(0..2u8), rng.gen_range(0..4usize)));
    let corners = [
        Point::new(c.x - d, c.y - d),
        Point::new(c.x + d, c.y - d),
        Point::new(c.x + d, c.y + d),
        Point::new(c.x - d, c.y + d),
    ];
    for layer in 0..2u8 {
        for side in 0..4 {
            if open == Some((layer, side)) {
                continue;
            }
            let (a, b) = (corners[side], corners[(side + 1) % 4]);
            layout.add_route(NetId(7), WireLayer(layer), Polyline::new(vec![a, b]));
        }
    }
    (pkg, layout)
}

/// Every refutation is a no-path the full-graph search with an unbounded
/// budget confirms, and at least one boxed-in destination is refuted.
#[test]
fn refutations_are_confirmed_by_the_unbounded_full_search() {
    let (mut refuted, mut routed) = (0, 0);
    for seed in 0..48 {
        let (pkg, layout) = boxed_instance(seed);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        let (src, dst) = terminals(&pkg);
        let unbounded =
            SearchOptions { expansion_budget: Some(usize::MAX), ..SearchOptions::default() };
        let mut stats = astar::SearchStats::default();
        let full =
            astar::route_cancellable(&space, NetId(0), src, dst, unbounded, None, &mut stats);
        match astar::refute(&space, NetId(0), src, dst) {
            Some(visited) => {
                refuted += 1;
                assert!(visited as usize <= astar::REFUTE_LIMIT, "seed {seed}: sweep overran");
                assert!(
                    matches!(
                        full,
                        Err(astar::SearchFailure::Exhausted
                            | astar::SearchFailure::NoViaPath { .. })
                    ),
                    "seed {seed}: refuted, but the full search gave {:?}",
                    full.map(|r| r.cost)
                );
            }
            None => routed += usize::from(full.is_ok()),
        }
    }
    assert!(refuted > 0, "no boxed-in destination was refuted");
    assert!(routed > 0, "no open draw routed, so the refutations were never contrasted");
}

/// A search capped by `expansion_budget: Some(n)` reports `BudgetCapped`
/// after exactly `n + 1` expansions, the prefix of the uncapped search,
/// within its one run: nothing searches on past the budget.
#[test]
fn capped_search_stops_one_expansion_past_its_budget() {
    let mut capped = 0;
    for seed in 0..16 {
        let (pkg, layout) = random_instance(seed);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        let (src, dst) = terminals(&pkg);
        let mut full = astar::SearchStats::default();
        if search(&space, src, dst, SearchOptions::default(), &mut full).is_none() {
            continue;
        }
        let n = full.nodes_expanded as usize / 2;
        if n == 0 {
            continue;
        }
        let opts = SearchOptions { expansion_budget: Some(n), ..SearchOptions::default() };
        let mut stats = astar::SearchStats::default();
        let got = astar::route_cancellable(&space, NetId(0), src, dst, opts, None, &mut stats);
        let Err(astar::SearchFailure::BudgetCapped { last_tile }) = got else {
            panic!("seed {seed}: budget {n} of {} did not cap the search", full.nodes_expanded);
        };
        assert!(space.tile(last_tile).passable_for(NetId(0)), "seed {seed}");
        assert_eq!(stats.searches, 1, "seed {seed}");
        assert_eq!(stats.nodes_expanded, n as u64 + 1, "seed {seed}");
        assert_eq!(stats.window_escalations, 0, "seed {seed}");
        capped += 1;
    }
    assert!(capped > 0, "no instance needed more than one expansion");
}
