//! A\*-search over the multi-layer tile graph (§III-D).
//!
//! ## Search architecture (see DESIGN.md §4d)
//!
//! The hot path avoids per-net allocation entirely:
//!
//! - **Open list** — a [`BucketQueue`] (exact-min calendar queue) instead
//!   of a binary heap; pop order, including `(f_bits, tile_id)`
//!   tie-breaks, is identical to the historical
//!   `BinaryHeap<Reverse<(u64, u32)>>`.
//! - **Node state** — generation-stamped flat arrays (one scratch per
//!   thread, reused across every net) instead of a per-net `HashMap`.
//! - **Heuristic** — `h = x_arch_len(entry, dst) + layer_hops · via_cost`,
//!   a few arithmetic operations computed where a node is pushed and at the
//!   stale-pop check.
//!
//! Each search is one bounded run over the whole tile graph, capped at
//! [`MAX_EXPANSIONS`] expansions.
//!
//! **Refutation.** A search toward a pad walled into a small pocket
//! exhausts the whole open side before it fails. [`refute`] proves the
//! same no-path from the other end: a bounded sweep over the pocket,
//! following a superset of the reversed search edges (see
//! [`refute_steps`]).

use crate::bucket::BucketQueue;
use crate::cancel::{CancelToken, CHECK_INTERVAL};
use crate::space::{PlanarEdge, RoutingSpace, TileId};
use info_geom::{x_arch_len, Point};
use info_model::{NetId, WireLayer};
use std::cell::RefCell;

/// One step of a tile path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStep {
    /// The tile being traversed.
    pub tile: TileId,
    /// The point at which the path enters the tile (the source point for
    /// the first step; the crossing midpoint or via site afterwards).
    pub entry: Point,
    /// When this step changed layers, the via use `(site, upper, lower)`.
    pub via: Option<(Point, WireLayer, WireLayer)>,
}

/// Result of a successful search.
#[derive(Debug, Clone)]
pub struct AstarResult {
    /// The steps from source tile to destination tile, inclusive.
    pub steps: Vec<PathStep>,
    /// Total path cost (wirelength estimate plus via penalties), in nm.
    pub cost: f64,
    /// Queue key (`g + h`) of the accepting destination pop.
    pub f_accept: f64,
    /// Accumulated path cost at the accepting destination pop. Can differ
    /// from `cost` in the last bits (see the reconstruction comment in
    /// `run`).
    pub g_accept: f64,
}

/// Why a search found no path (the telemetry taxonomy's search half).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchFailure {
    /// A terminal had no usable tile (blocked pad), or the search was
    /// asked to cross layers with vias disallowed.
    BlockedTerminal,
    /// The open list went dry: provably no path in the tile graph.
    Exhausted,
    /// The expansion budget tripped; `last_tile` is where the search was
    /// grinding when it gave up.
    BudgetCapped {
        /// The last tile popped before the budget tripped.
        last_tile: TileId,
    },
    /// A cross-layer search that never enumerated a single via adjacency:
    /// the terminal's region offers no via capacity at all. `cell` is the
    /// source tile's global cell.
    NoViaPath {
        /// Global cell `(cx, cy)` of the stranded source.
        cell: (usize, usize),
    },
    /// The search's [`CancelToken`] tripped (explicit cancel, deadline,
    /// or deterministic check trip); the search stopped within
    /// [`CHECK_INTERVAL`] expansions of the trip. Not a statement about
    /// the net's routability.
    Cancelled,
}

/// Aggregate statistics of one or more searches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Public search entry points taken.
    pub searches: u64,
    /// Nodes expanded (neighbor enumerations), across all searches.
    pub nodes_expanded: u64,
    /// Always 0: searches no longer run windowed, so none escalates. Kept
    /// only because the benchmark crate still reads it; goes with the
    /// benchmark's next revision.
    pub window_escalations: u64,
    /// Largest open-list population observed.
    pub heap_peak: u64,
}

impl SearchStats {
    /// Folds another stats block into this one (sums, max of peaks).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.searches += other.searches;
        self.nodes_expanded += other.nodes_expanded;
        self.heap_peak = self.heap_peak.max(other.heap_peak);
    }
}

/// Search behavior knobs.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Allow layer changes through candidate via sites.
    pub allow_vias: bool,
    /// Expansion budget override; `None` uses [`MAX_EXPANSIONS`]. A
    /// search expands at most one node past it before it reports
    /// `BudgetCapped`. Tests shrink it to make searches fail cheaply on
    /// demand; shrinking it in production trades completeness for time
    /// (nets whose paths need more expansions report `BudgetCapped`
    /// instead of routing).
    pub expansion_budget: Option<usize>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions { allow_vias: true, expansion_budget: None }
    }
}

/// Routes `net` from `(src_layer, src)` to `(dst_layer, dst)` over the
/// tile space, returning the tile path or *why* the search failed (the
/// telemetry journal's search-level failure taxonomy): blocked
/// terminals, disconnected free space, an exhausted expansion budget,
/// or cancellation. `opts` sets the expansion budget and whether layer
/// changes through via sites are allowed (with
/// `allow_vias = false` the search stays on the source layer — the
/// no-flexible-via regime of the prior-work baseline — so `src` and
/// `dst` must share a layer). Search statistics accumulate into `stats`.
///
/// With a `cancel` token, the expansion loop checkpoints it every
/// [`CHECK_INTERVAL`] expansions and aborts with
/// [`SearchFailure::Cancelled`] when it trips, so a deadline or an
/// explicit cancel lands mid-search in bounded time instead of at the
/// next per-net boundary. With `cancel = None` (or a quiet token) the
/// search never reports `Cancelled`.
pub fn route_cancellable(
    space: &RoutingSpace,
    net: NetId,
    src: (WireLayer, Point),
    dst: (WireLayer, Point),
    opts: SearchOptions,
    cancel: Option<&CancelToken>,
    stats: &mut SearchStats,
) -> Result<AstarResult, SearchFailure> {
    SCRATCH.with(|cell| {
        let mut s = cell.borrow_mut();
        let s = &mut *s;
        s.ensure(space);
        search(s, space, net, src, dst, opts, cancel, stats)
    })
}

/// Tile budget of [`refute`]: a sweep whose component outgrows this gives
/// up without a verdict. The walled-in pads of the dense suite sit in
/// pockets of at most a few hundred tiles, and an undecided probe costs
/// no more than a small search.
pub const REFUTE_LIMIT: usize = 1024;

/// A bounded no-path proof: sweeps outward from the destination terminal
/// tile over [`refute_steps`] and returns `Some(tiles visited)` when the
/// sweep exhausts within [`REFUTE_LIMIT`] tiles without reaching the
/// source terminal tile. Then no search of `net` from `src` to `dst` can
/// succeed, with any budget, so a caller that only
/// needs the verdict may skip it. `None` means no verdict: the component
/// is too large, it holds the source, or a terminal has no passable tile
/// (which the search itself reports as [`SearchFailure::BlockedTerminal`]).
///
/// Soundness: every search edge `u → v` has `u` in `refute_steps(v)`, so
/// a search path `src → … → dst` walked backwards from `dst` never leaves
/// the sweep's closure, which would then contain `src`.
pub fn refute(
    space: &RoutingSpace,
    net: NetId,
    src: (WireLayer, Point),
    dst: (WireLayer, Point),
) -> Option<u64> {
    let src_tile = space.tile_at(src.0, src.1, net)?;
    let dst_tile = space.tile_at(dst.0, dst.1, net)?;
    if src_tile == dst_tile {
        return None;
    }
    SCRATCH.with(|cell| {
        let mut s = cell.borrow_mut();
        let s = &mut *s;
        s.ensure(space);
        // The sweep borrows the node stamps; every search starts a fresh
        // generation, so nothing it leaves behind is ever read.
        s.next_gen();
        let gen = s.gen;
        let mut stack = std::mem::take(&mut s.sweep);
        let mut nbr = std::mem::take(&mut s.nbr);
        stack.clear();
        s.stamp[dst_tile.0 as usize] = gen;
        stack.push(dst_tile.0);
        let mut visited = 1usize;
        let mut reached_src = false;
        while let Some(v) = stack.pop() {
            for_each_refute_step(space, TileId(v), net, &mut nbr, |u| {
                let ui = u.0 as usize;
                if s.stamp[ui] != gen {
                    s.stamp[ui] = gen;
                    visited += 1;
                    reached_src |= u == src_tile;
                    stack.push(u.0);
                }
            });
            if reached_src || visited > REFUTE_LIMIT {
                break;
            }
        }
        let exhausted = stack.is_empty() && !reached_src;
        s.sweep = stack;
        s.nbr = nbr;
        exhausted.then_some(visited as u64)
    })
}

/// The step relation of [`refute`] from tile `v` for `net`: every tile `u`
/// with a search edge `u → v`, plus possibly more. It holds
/// - `v`'s planar neighbors, because planar adjacency is symmetric (the
///   shared boundary and the wires along it do not depend on which side
///   asks, and both ends are passable);
/// - for every via site inside `v` on a layer span containing `v`'s
///   layer, every tile of the paired layer in `v`'s cell that is passable
///   for `net` and covers the site: a superset of the one tile the search's
///   via edge lands on.
pub fn refute_steps(space: &RoutingSpace, v: TileId, net: NetId) -> Vec<TileId> {
    let mut out = Vec::new();
    for_each_refute_step(space, v, net, &mut Vec::new(), |u| out.push(u));
    out
}

fn for_each_refute_step(
    space: &RoutingSpace,
    v: TileId,
    net: NetId,
    nbr: &mut Vec<PlanarEdge>,
    mut step: impl FnMut(TileId),
) {
    space.planar_neighbors_into(v, net, nbr);
    for e in nbr.iter() {
        step(e.to);
    }
    let t = space.tile(v);
    let (cx, cy) = t.cell;
    for site in space.via_sites(cx, cy) {
        let paired = if site.upper == t.layer {
            site.lower
        } else if site.lower == t.layer {
            site.upper
        } else {
            continue;
        };
        if !t.shape.contains(site.at) {
            continue;
        }
        for &u in space.tiles_in_cell(paired, cx, cy) {
            let o = space.tile(u);
            if o.passable_for(net) && o.shape.contains(site.at) {
                step(u);
            }
        }
    }
}

/// Sentinel for "no parent" in the scratch parent array.
const NO_PARENT: u32 = u32::MAX;

/// Expansion budget of one search: keeps failing searches, which
/// otherwise sweep the whole reachable space, bounded on large circuits.
/// Legitimate paths expand a few thousand tiles. 120K is the most a
/// search could spend when each net first ran in a pad-pair window and
/// escalated to the full graph with a second 60K budget; one run with
/// the sum keeps every net that routed then routable.
pub const MAX_EXPANSIONS: usize = 120_000;

/// Per-thread reusable search state. All node arrays are indexed by tile
/// id and validated by generation stamps, so consecutive searches share
/// allocations without clearing.
struct SearchScratch {
    /// Node-state generation; `stamp[i] == gen` means slot `i` is live.
    gen: u32,
    stamp: Vec<u32>,
    g: Vec<f64>,
    entry: Vec<Point>,
    parent: Vec<u32>,
    queue: BucketQueue,
    nbr: Vec<PlanarEdge>,
    vnbr: Vec<(TileId, Point)>,
    /// Work stack of [`refute`]'s sweep.
    sweep: Vec<u32>,
}

impl SearchScratch {
    fn new() -> Self {
        SearchScratch {
            gen: 0,
            stamp: Vec::new(),
            g: Vec::new(),
            entry: Vec::new(),
            parent: Vec::new(),
            queue: BucketQueue::new(1.0),
            nbr: Vec::new(),
            vnbr: Vec::new(),
            sweep: Vec::new(),
        }
    }

    /// Sizes the node arrays to the space's current tile slot count. They
    /// grow as the space does, and shrink (releasing their memory) once
    /// they exceed it by a quarter, as after a [`RoutingSpace::compact`];
    /// the slack keeps a trial rollback, which truncates a few tiles, from
    /// shrinking them only to regrow them. Dropped slots lose only stamps,
    /// which a regrown slot starts without.
    fn ensure(&mut self, space: &RoutingSpace) {
        let slots = space.tile_slots();
        let shrink = self.stamp.len() > slots + slots / 4;
        if self.stamp.len() < slots || shrink {
            let origin = Point::new(0, 0);
            fit(&mut self.stamp, slots, 0, shrink);
            fit(&mut self.g, slots, 0.0, shrink);
            fit(&mut self.entry, slots, origin, shrink);
            fit(&mut self.parent, slots, NO_PARENT, shrink);
        }
    }

    /// Starts a fresh node generation (stamp-invalidates every slot).
    fn next_gen(&mut self) {
        if self.gen == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.gen = 1;
        } else {
            self.gen += 1;
        }
    }

    /// Relaxes the edge into tile `to`, entered at `at` with path cost
    /// `g2` from `parent`: records the node and queues it when it is new
    /// this generation or strictly improved (stale queue entries are
    /// skipped at pop time).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn relax(
        &mut self,
        to: TileId,
        to_layer: WireLayer,
        at: Point,
        g2: f64,
        parent: u32,
        dst: &(WireLayer, Point),
        via_cost: f64,
    ) {
        let i = to.0 as usize;
        if self.stamp[i] != self.gen || g2 < self.g[i] - 1e-9 {
            self.stamp[i] = self.gen;
            self.g[i] = g2;
            self.entry[i] = at;
            self.parent[i] = parent;
            let f2 = g2 + heuristic(at, to_layer, dst, via_cost);
            self.queue.push(f2.to_bits(), to.0);
        }
    }
}

/// The consistent heuristic of a node entered at `entry` on `layer`:
/// straight-line X-architecture length to the target plus the via penalty
/// of the remaining layer hops.
#[inline]
fn heuristic(entry: Point, layer: WireLayer, dst: &(WireLayer, Point), via_cost: f64) -> f64 {
    let hops = layer.index().abs_diff(dst.0.index()) as f64;
    x_arch_len(entry, dst.1) + hops * via_cost
}

/// Resizes `v` to `len`, filling new slots with `fill`, and with `shrink`
/// also releases the capacity past `len`.
fn fit<T: Clone>(v: &mut Vec<T>, len: usize, fill: T, shrink: bool) {
    v.resize(len, fill);
    if shrink {
        v.shrink_to_fit();
    }
}

thread_local! {
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

#[allow(clippy::too_many_arguments)] // internal; the public surface is route_cancellable
fn search(
    s: &mut SearchScratch,
    space: &RoutingSpace,
    net: NetId,
    src: (WireLayer, Point),
    dst: (WireLayer, Point),
    opts: SearchOptions,
    cancel: Option<&CancelToken>,
    stats: &mut SearchStats,
) -> Result<AstarResult, SearchFailure> {
    // A tripped token stops the search before any work; post-trip
    // searches in the same stage expand nothing.
    if cancel.is_some_and(CancelToken::should_stop) {
        return Err(SearchFailure::Cancelled);
    }
    if !opts.allow_vias && src.0 != dst.0 {
        return Err(SearchFailure::BlockedTerminal);
    }
    let (Some(src_tile), Some(dst_tile)) =
        (space.tile_at(src.0, src.1, net), space.tile_at(dst.0, dst.1, net))
    else {
        return Err(SearchFailure::BlockedTerminal);
    };
    stats.searches += 1;
    s.queue.reset_peak();
    s.next_gen();
    s.queue.clear(Some(bucket_width(space)));
    let result = run(s, space, net, src, src_tile, dst, dst_tile, opts, cancel, stats);
    stats.heap_peak = stats.heap_peak.max(s.queue.peak() as u64);
    result
}

/// Bucket width for the open list: one via penalty (≥ one tile thickness)
/// groups a search's frontier into a handful of buckets without letting
/// any bucket grow die-sized.
fn bucket_width(space: &RoutingSpace) -> f64 {
    space.config().via_cost.max(space.config().min_thickness as f64).max(64.0)
}

/// The A\* run: seeds the (freshly cleared) scratch state with the source
/// node and expands until the destination pops, the open list goes dry,
/// the expansion budget is spent or the cancel token trips.
#[allow(clippy::too_many_arguments)]
fn run(
    s: &mut SearchScratch,
    space: &RoutingSpace,
    net: NetId,
    src: (WireLayer, Point),
    src_tile: TileId,
    dst: (WireLayer, Point),
    dst_tile: TileId,
    opts: SearchOptions,
    cancel: Option<&CancelToken>,
    stats: &mut SearchStats,
) -> Result<AstarResult, SearchFailure> {
    let via_cost = space.config().via_cost;
    let budget = opts.expansion_budget.unwrap_or(MAX_EXPANSIONS);
    let si = src_tile.0 as usize;
    s.stamp[si] = s.gen;
    s.g[si] = 0.0;
    s.entry[si] = src.1;
    s.parent[si] = NO_PARENT;
    let h0 = heuristic(src.1, src.0, &dst, via_cost);
    s.queue.push(h0.to_bits(), src_tile.0);
    // A cross-layer search that never enumerates a single via adjacency
    // is stranded by via capacity, not by congestion.
    let mut saw_via = false;
    let mut expansions = 0usize;

    while let Some((fbits, tid_raw)) = s.queue.pop() {
        let tid = TileId(tid_raw);
        let ti = tid_raw as usize;
        let f_popped = f64::from_bits(fbits);
        let node_g = s.g[ti];
        let node_entry = s.entry[ti];
        let layer = space.tile(tid).layer;
        // Stale heap entry?
        if f_popped > node_g + heuristic(node_entry, layer, &dst, via_cost) + 1e-6 {
            continue;
        }
        if tid == dst_tile {
            return Ok(reconstruct(s, space, tid_raw, dst.1, f_popped, node_g));
        }
        expansions += 1;
        stats.nodes_expanded += 1;
        // Cooperative cancellation checkpoint, once per CHECK_INTERVAL
        // expansions (the first at expansion 1, so a post-trip run stops
        // after a single expansion). With no token — or a quiet one — the
        // pop sequence is untouched, so results stay bit-identical.
        if expansions as u64 % CHECK_INTERVAL == 1 && cancel.is_some_and(CancelToken::checkpoint)
        {
            return Err(SearchFailure::Cancelled);
        }
        if expansions > budget {
            return Err(SearchFailure::BudgetCapped { last_tile: tid });
        }

        // Planar moves.
        let mut nbr = std::mem::take(&mut s.nbr);
        space.planar_neighbors_into(tid, net, &mut nbr);
        for e in &nbr {
            let cross = e.crossing.midpoint();
            let g2 = node_g + x_arch_len(node_entry, cross);
            s.relax(e.to, space.tile(e.to).layer, cross, g2, tid_raw, &dst, via_cost);
        }
        s.nbr = nbr;

        // Via moves.
        if !opts.allow_vias {
            continue;
        }
        let mut vnbr = std::mem::take(&mut s.vnbr);
        space.via_neighbors_into(tid, net, &mut vnbr);
        saw_via |= !vnbr.is_empty();
        for &(to_tile, site) in &vnbr {
            let g2 = node_g + x_arch_len(node_entry, site) + via_cost;
            s.relax(to_tile, space.tile(to_tile).layer, site, g2, tid_raw, &dst, via_cost);
        }
        s.vnbr = vnbr;
    }
    if src.0 != dst.0 && !saw_via {
        Err(SearchFailure::NoViaPath { cell: space.tile(src_tile).cell })
    } else {
        Err(SearchFailure::Exhausted)
    }
}

/// Builds the result of a search whose destination tile `dst_tile`
/// popped with key `f_accept` and path cost `g_accept`, by walking the
/// parent chain back to the source.
fn reconstruct(
    s: &SearchScratch,
    space: &RoutingSpace,
    dst_tile: u32,
    dst: Point,
    f_accept: f64,
    g_accept: f64,
) -> AstarResult {
    let mut steps = Vec::new();
    let mut cur = dst_tile;
    loop {
        steps.push(PathStep { tile: TileId(cur), entry: s.entry[cur as usize], via: None });
        cur = s.parent[cur as usize];
        if cur == NO_PARENT {
            break;
        }
    }
    steps.reverse();
    // Planar edges keep their layer and via edges change it, so a step
    // changed layers exactly when its parent reached it through a via,
    // whose site is the step's entry point.
    for i in 1..steps.len() {
        let from = space.tile(steps[i - 1].tile).layer;
        let to = space.tile(steps[i].tile).layer;
        if from != to {
            let (upper, lower) = if from < to { (from, to) } else { (to, from) };
            steps[i].via = Some((steps[i].entry, upper, lower));
        }
    }
    // Cost of the path actually returned, recomputed over the final
    // parent chain. This can differ (rarely) from the accumulated g: a
    // tile's entry point may improve *after* a child's parent pointer was
    // set from the old entry, and the chain snapshot is what realization
    // consumes. The recompute makes `cost` exactly the edge-cost sum of
    // `steps` — the invariant the search property suite pins.
    let via_cost = space.config().via_cost;
    let mut cost = 0.0;
    for i in 1..steps.len() {
        cost += x_arch_len(steps[i - 1].entry, steps[i].entry);
        if steps[i].via.is_some() {
            cost += via_cost;
        }
    }
    cost += x_arch_len(steps[steps.len() - 1].entry, dst);
    AstarResult { steps, cost, f_accept, g_accept }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceConfig;
    use info_geom::{Point, Polyline, Rect};
    use info_model::{DesignRules, Layout, PackageBuilder};

    /// A default-option search with throwaway statistics.
    fn route(
        space: &RoutingSpace,
        net: NetId,
        src: (WireLayer, Point),
        dst: (WireLayer, Point),
    ) -> Option<AstarResult> {
        let mut stats = SearchStats::default();
        route_cancellable(space, net, src, dst, SearchOptions::default(), None, &mut stats).ok()
    }

    fn pkg_two_layer() -> info_model::Package {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(400_000, 400_000)),
            DesignRules::default(),
            2,
        );
        let c = b.add_chip(Rect::new(Point::new(40_000, 40_000), Point::new(160_000, 160_000)));
        let p = b.add_io_pad(c, Point::new(100_000, 100_000)).unwrap();
        let g = b.add_bump_pad(Point::new(300_000, 300_000)).unwrap();
        b.add_net(p, g).unwrap();
        b.build().unwrap()
    }

    fn cfg() -> SpaceConfig {
        SpaceConfig {
            cells_x: 4,
            cells_y: 4,
            clearance: 4_000,
            min_thickness: 4_000,
            via_width: 5_000,
            via_cost: 20_000.0,
        }
    }

    #[test]
    fn same_layer_route_found() {
        let pkg = pkg_two_layer();
        let layout = Layout::new(&pkg);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        let r = route(
            &space,
            NetId(0),
            (WireLayer(0), Point::new(100_000, 100_000)),
            (WireLayer(0), Point::new(300_000, 100_000)),
        )
        .expect("open space route");
        assert!(!r.steps.is_empty());
        assert_eq!(r.steps[0].entry, Point::new(100_000, 100_000));
        // Cost at least the straight distance.
        assert!(r.cost >= 200_000.0 - 1.0);
        // No vias needed.
        assert!(r.steps.iter().all(|s| s.via.is_none()));
    }

    #[test]
    fn cross_layer_route_uses_via() {
        let pkg = pkg_two_layer();
        let layout = Layout::new(&pkg);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        // The real net: I/O pad on layer 0 to bump pad on layer 1.
        let r = route(
            &space,
            NetId(0),
            (WireLayer(0), Point::new(100_000, 100_000)),
            (WireLayer(1), Point::new(300_000, 300_000)),
        )
        .expect("via-based route");
        let via_steps: Vec<_> = r.steps.iter().filter(|s| s.via.is_some()).collect();
        assert_eq!(via_steps.len(), 1, "exactly one layer change expected");
        assert!(r.cost >= 20_000.0, "via cost charged");
    }

    #[test]
    fn blocked_terminal_fails() {
        let pkg = pkg_two_layer();
        let layout = Layout::new(&pkg);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        // A foreign net cannot start on net 0's pad.
        assert!(route(
            &space,
            NetId(7),
            (WireLayer(0), Point::new(100_000, 100_000)),
            (WireLayer(0), Point::new(300_000, 100_000)),
        )
        .is_none());
    }

    #[test]
    fn wall_of_wires_forces_detour_or_failure() {
        let pkg = pkg_two_layer();
        let mut layout = Layout::new(&pkg);
        // Fence the die vertically at x = 200_000 on layer 0 with a foreign
        // wire from top to bottom.
        layout.add_route(
            NetId(3),
            WireLayer(0),
            Polyline::new(vec![Point::new(200_000, 0), Point::new(200_000, 400_000)]),
        );
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        // Same-layer route for net 0 must fail on layer 0 alone...
        let direct = route(
            &space,
            NetId(0),
            (WireLayer(0), Point::new(100_000, 200_000)),
            (WireLayer(0), Point::new(300_000, 200_000)),
        );
        // ... unless it dives to layer 1 through a via, which is allowed
        // and expected (via-based routing is the whole point).
        match direct {
            Some(r) => {
                assert!(
                    r.steps.iter().filter(|s| s.via.is_some()).count() >= 2,
                    "crossing the fence on one layer is impossible; must dive and resurface"
                );
            }
            None => {
                // Acceptable only if no via site existed; with open space
                // this should not happen.
                panic!("expected a via detour around the fence");
            }
        }
    }

    #[test]
    fn fence_on_both_layers_fails() {
        let pkg = pkg_two_layer();
        let mut layout = Layout::new(&pkg);
        for layer in [WireLayer(0), WireLayer(1)] {
            layout.add_route(
                NetId(3),
                layer,
                Polyline::new(vec![Point::new(200_000, 0), Point::new(200_000, 400_000)]),
            );
        }
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        assert!(route(
            &space,
            NetId(0),
            (WireLayer(0), Point::new(100_000, 200_000)),
            (WireLayer(0), Point::new(300_000, 200_000)),
        )
        .is_none());
    }

    #[test]
    fn search_reports_stats() {
        let pkg = pkg_two_layer();
        let layout = Layout::new(&pkg);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        let src = (WireLayer(0), Point::new(100_000, 100_000));
        let dst = (WireLayer(1), Point::new(300_000, 300_000));
        let mut stats = SearchStats::default();
        route_cancellable(&space, NetId(0), src, dst, SearchOptions::default(), None, &mut stats)
            .expect("open space route");
        assert_eq!(stats.searches, 1);
        assert!(stats.nodes_expanded > 0 && stats.heap_peak > 0);
        assert_eq!(stats.window_escalations, 0);
    }
}
