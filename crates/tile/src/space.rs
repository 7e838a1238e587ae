//! The multi-layer octagonal-tile routing space (§III-C).
//!
//! The die is cut into uniform **global cells** (the paper uses 30 × 30).
//! Inside each global cell, on each wire layer, **frames** are derived by
//! extending horizontal/vertical cut lines from component corners and wire
//! endpoints; each frame is then split by the diagonal wires crossing it
//! into **octagonal tiles**. Tiles overlapped by a blockage carry blocker
//! tags; A\* may still traverse tiles whose every blocker belongs to the
//! net being routed (so a net can reach its own pads and vias).
//!
//! Via candidate sites are inserted per global cell into the largest free
//! tile and projected to the adjacent layer (§III-C3); the router
//! materializes a real [`info_model::Via`] when a path uses one.

use info_geom::{Coord, GridIndex, Octagon, Orient4, Point, Rect, Segment, XLine};
use info_model::{Layout, NetId, Package, WireLayer};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotone source of space revisions: every (re)build of any space takes
/// a fresh value, so two spaces with equal revisions hold identical tiles
/// (a clone carries its original's revision, and a rolled-back trial
/// restores the pre-trial revision because it restores that exact state).
static REVISION: AtomicU64 = AtomicU64::new(1);

/// Identifier of a tile in a [`RoutingSpace`] (invalidated by rebuilds of
/// the tile's global cell and by [`RoutingSpace::compact`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileId(pub u32);

/// What occupies (part of) a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Blocker {
    /// Obstacle or foreign fixed geometry: never passable.
    Hard,
    /// Geometry owned by a net (pad, via, wire band): passable only when
    /// routing that same net.
    Net(NetId),
}

/// One octagonal tile on a wire layer.
#[derive(Debug, Clone)]
pub struct TileNode {
    /// Wire layer.
    pub layer: WireLayer,
    /// Global cell coordinates `(cx, cy)`.
    pub cell: (usize, usize),
    /// Shape of the tile.
    pub shape: Octagon,
    /// Blocker tags (empty = free space).
    pub blockers: Vec<Blocker>,
}

impl TileNode {
    /// Whether a net may route through this tile.
    pub fn passable_for(&self, net: NetId) -> bool {
        self.blockers.iter().all(|b| matches!(b, Blocker::Net(n) if *n == net))
    }

    /// Whether the tile is completely free.
    pub fn is_free(&self) -> bool {
        self.blockers.is_empty()
    }
}

/// A candidate via site connecting two adjacent wire layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViaSite {
    /// Center position.
    pub at: Point,
    /// Upper wire layer of the span.
    pub upper: WireLayer,
    /// Lower wire layer (`upper + 1`).
    pub lower: WireLayer,
}

/// Tuning parameters for space construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceConfig {
    /// Global cells along x (the paper's default grid is 30 × 30).
    pub cells_x: usize,
    /// Global cells along y.
    pub cells_y: usize,
    /// Center-line clearance: blockages are inflated by this margin so a
    /// wire centerline anywhere in free space is spacing-legal
    /// (`min_spacing + wire_width` covers wire-vs-shape worst case).
    pub clearance: Coord,
    /// Tiles thinner than this are impassable.
    pub min_thickness: Coord,
    /// Via octagon width.
    pub via_width: Coord,
    /// Extra path cost charged per via, in nm of equivalent wirelength.
    pub via_cost: f64,
}

impl SpaceConfig {
    /// Derives a configuration from a package's design rules with the
    /// paper's 30 × 30 global-cell default.
    pub fn from_package(package: &Package) -> Self {
        let r = package.rules();
        SpaceConfig {
            cells_x: 30,
            cells_y: 30,
            clearance: r.min_spacing + r.wire_width,
            min_thickness: r.min_spacing + r.wire_width,
            via_width: r.via_width,
            via_cost: 4.0 * r.via_width as f64,
        }
    }
}

/// A planar adjacency between two tiles.
#[derive(Debug, Clone, Copy)]
pub struct PlanarEdge {
    /// Destination tile.
    pub to: TileId,
    /// The open crossing interval on the shared boundary.
    pub crossing: Segment,
}

/// One net-agnostic adjacency record: a neighbor sharing a positive-length
/// boundary with the owning tile, plus every wire interval lying along
/// that boundary (tagged with the wire's net so per-net queries can drop
/// the querying net's own wires). Cached per tile in [`AdjCache`].
#[derive(Debug, Clone)]
struct RawEdge {
    to: TileId,
    /// The full shared-boundary segment (before wire subtraction).
    seg: Segment,
    /// Covered parameter intervals `(net, lo, hi)` of `seg`, clamped to
    /// `[0, 1]` and stably sorted by `lo` — the same order a per-net scan
    /// followed by a stable sort would produce.
    covered: Vec<(NetId, f64, f64)>,
}

/// Lazily built per-tile adjacency lists, the A\* hot path's amortization
/// of the octagon-intersection work in [`RoutingSpace::planar_neighbors`].
///
/// Entries are pure functions of the two cells' tiles and wires, so each
/// is stamped with the **adjacency epoch** of its owning cell at build
/// time: [`RoutingSpace::rebuild_cell`] bumps the epoch of the rebuilt
/// cell and its 4-adjacent ring (an O(ring) stamp write instead of an
/// O(tiles) entry sweep), and a lookup treats a mismatched stamp as a
/// miss. Rebuilds never reuse a tile id (retired slots stay `None`, and
/// their entries are dropped when the cell retires them), so a live
/// entry can only describe the current tile. Two operations do hand ids
/// out again, and both keep that true:
///
/// - a rolled-back trial reuses the ids it truncates, but it drops their
///   entries, and every entry stamped during the trial carries an epoch
///   the monotone `epoch_counter` never hands out again;
/// - [`RoutingSpace::compact`] renumbers the live tiles, and it drops the
///   stale entries and renumbers the key and every edge of the rest.
///
/// Keys are hashed by [`IdHasher`]. A vector indexed by tile id would be
/// sparse: the cache holds an entry for the tiles searches touched, a
/// small share of the live ones.
#[derive(Debug, Default)]
struct AdjCache {
    state: Mutex<AdjState>,
}

/// One cached adjacency list: the owning cell's adjacency epoch at build
/// time, and the edges.
type AdjEntry = (u64, Arc<Vec<RawEdge>>);

#[derive(Debug, Default, Clone)]
struct AdjState {
    /// Tile id → its cached adjacency list.
    map: HashMap<u32, AdjEntry, BuildHasherDefault<IdHasher>>,
    /// Legality-cache telemetry: lookups answered from a valid entry.
    hits: u64,
    /// Lookups that rebuilt the entry (first touch or stale stamp).
    misses: u64,
}

/// Multiplicative hashing of the `u32` tile ids [`AdjCache`] is keyed on
/// (the word step of rustc's Fx hash): one multiply per lookup on the A\*
/// hot path instead of SipHash's rounds. The keys are the space's own
/// ids, never outside input, so collision resistance buys nothing.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl AdjCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, AdjState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Clone for AdjCache {
    fn clone(&self) -> Self {
        AdjCache { state: Mutex::new(self.lock().clone()) }
    }
}

/// The tile space over all layers.
#[derive(Debug, Clone)]
pub struct RoutingSpace {
    cfg: SpaceConfig,
    die: Rect,
    layers: usize,
    tiles: Vec<Option<TileNode>>,
    /// `cell_index(layer, cx, cy)` → tile ids in that cell.
    cell_tiles: Vec<Vec<TileId>>,
    /// Per `(layer, cell)`: the inputs its tiles were partitioned from.
    /// A rebuild that collects equal inputs reuses the tiles instead of
    /// re-partitioning, and so does a [`RoutingSpace::derive`] whose memo
    /// stores equal inputs; adjacency reads the wires from here. `Arc` so
    /// clones and derived spaces share them by reference.
    layer_inputs: Vec<Arc<LayerInputs>>,
    /// Candidate via sites per cell column-major; refreshed on rebuild.
    via_sites: Vec<Vec<ViaSite>>,
    /// Lazily built planar-adjacency lists (see [`AdjCache`]).
    adjacency: AdjCache,
    /// Per `(layer, cell)`: spatial index over the cell's tile bboxes,
    /// holding each tile's position in `cell_tiles` (inserted in that
    /// order), so adjacency builds query the handful of tiles near a bbox
    /// instead of scanning the whole cell (dense cells hold thousands of
    /// tiles). Positions rather than ids, so a slot that reuses its tiles
    /// under fresh ids keeps its index. `Arc` so clones and trial journals
    /// share it by reference; a re-partition installs a fresh index
    /// rather than mutating the shared one.
    tile_index: Vec<Arc<GridIndex<u32>>>,
    /// Per `(layer, cell)`: adjacency epoch, bumped when the cell or a
    /// 4-adjacent cell rebuilds. [`AdjCache`] entries are valid only while
    /// their stamp matches their cell's epoch.
    adj_epoch: Vec<u64>,
    /// Source of fresh adjacency epochs (per space; clones keep counting,
    /// and a trial rollback never rewinds it).
    epoch_counter: u64,
    /// Monotone state tag: two spaces with equal revisions are identical.
    /// Search-side caches (the per-target heuristic cache) key on it.
    revision: u64,
    /// Live tiles: the summed length of `cell_tiles`. `tiles.len() - live`
    /// slots are retired.
    live: usize,
    /// High-water marks of `tiles.len()` and of `live` since the build
    /// (see [`RoutingSpace::tile_peaks`]).
    slots_peak: usize,
    live_peak: usize,
    /// The undo journal of the open trial, if any (see
    /// [`RoutingSpace::begin_trial`]).
    trial: Option<Box<Trial>>,
}

/// What one [`RoutingSpace::rebuild_dirty_multi`] or
/// [`RoutingSpace::derive`] call rebuilt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rebuilt {
    /// The rebuilt `(cx, cy)` cells, row-major (for `derive`: the cells
    /// that re-partitioned at least one layer).
    pub cells: Vec<(usize, usize)>,
    /// `(layer, cell)` slots among them whose inputs were unchanged, so
    /// they reused their tiles instead of re-partitioning.
    pub layers_reused: usize,
}

/// Checkpoint and undo journal of one open trial. Opening a trial records
/// the scalar state; the first rebuild of each cell inside the trial moves
/// that cell's pre-trial state here instead of dropping it (a layer that
/// reuses its tiles installs copies of the moved ones). Inside a trial
/// tile ids are append-only ([`RoutingSpace::compact`] refuses to run in
/// one), so every tile born in the trial has an id at or above `tile_len`
/// and rolling back is a truncation plus moving the saved cells back.
#[derive(Debug, Clone)]
struct Trial {
    /// `tiles.len()` at the checkpoint.
    tile_len: usize,
    /// Live tiles at the checkpoint.
    live: usize,
    revision: u64,
    adj_epoch: Vec<u64>,
    /// Adjacency-cache tallies at the checkpoint.
    hits: u64,
    misses: u64,
    /// Per global cell (row-major): already journaled in this trial.
    saved: Vec<bool>,
    cells: Vec<SavedCell>,
}

/// The pre-trial state of one global cell, moved out by its first rebuild
/// inside a trial.
#[derive(Debug, Clone)]
struct SavedCell {
    cx: usize,
    cy: usize,
    /// Per wire layer, in layer order.
    layers: Vec<SavedLayer>,
    via_sites: Vec<ViaSite>,
    /// Adjacency entries of the cell's retired tiles.
    adjacency: Vec<(u32, AdjEntry)>,
}

/// The pre-trial state of one `(layer, cell)` slot.
#[derive(Debug, Clone)]
struct SavedLayer {
    ids: Vec<TileId>,
    /// The tiles of `ids`, in the same order.
    nodes: Vec<TileNode>,
    inputs: Arc<LayerInputs>,
    index: Arc<GridIndex<u32>>,
}

/// Everything one `(layer, cell)` slot's tiles are a function of, besides
/// the slot itself (see [`tile_layer`]). Collected afresh by every
/// rebuild and compared with the slot's stored value: equal inputs mean
/// equal tiles, so the rebuild reuses them.
#[derive(Debug, Clone, Default, PartialEq)]
struct LayerInputs {
    /// Inflated blockages with their tags, in collection order.
    blockages: Vec<(Blocker, Octagon)>,
    /// Frame cuts inside the cell (its bounds included), sorted, deduped.
    xcuts: Vec<Coord>,
    ycuts: Vec<Coord>,
    /// Diagonal cut lines, deduped in first-seen order.
    diag_lines: Vec<XLine>,
    /// Wire segments near the cell: the source of the wire cuts above,
    /// and what adjacency subtracts from shared boundaries.
    wires: Vec<(NetId, Segment)>,
}

/// Per-rebuild spatial indexes over the package and layout geometry, so
/// each cell rebuild queries only nearby items instead of scanning every
/// pad, obstacle, via, and wire in the design.
///
/// Built once per [`RoutingSpace::derive`] / [`RoutingSpace::rebuild_dirty_multi`]
/// call (O(geometry)), then queried per rebuilt cell (O(local)). All
/// indexes are filled in the same iteration order the naive scans used —
/// and [`GridIndex::query`] returns ids in insertion order — so the
/// blockage lists, and therefore the tiles, are identical to the scans'.
struct GeomScratch {
    /// Pad slot → `package.pads()[slot]`, keyed by pad bbox.
    pads: GridIndex<usize>,
    /// Obstacle slot → `package.obstacles()[slot]`, keyed by rect.
    obstacles: GridIndex<usize>,
    /// Via `(net, shape, top, bottom)`, keyed by shape bbox.
    vias: GridIndex<(NetId, Octagon, WireLayer, WireLayer)>,
    /// Per wire layer: route segments `(net, seg)`, keyed by segment bbox.
    route_segs: Vec<GridIndex<(NetId, Segment)>>,
    /// Net of each pad (by pad slot), for blocker tags and escape keepouts.
    pad_nets: Vec<Option<NetId>>,
}

impl GeomScratch {
    fn build(package: &Package, layout: &Layout, layers: usize) -> Self {
        let die = package.die();
        let mut pads = GridIndex::with_capacity_hint(die, package.pads().len());
        for (i, p) in package.pads().iter().enumerate() {
            pads.insert(p.bbox(), i);
        }
        let mut obstacles = GridIndex::with_capacity_hint(die, package.obstacles().len());
        for (i, o) in package.obstacles().iter().enumerate() {
            obstacles.insert(o.rect, i);
        }
        let mut vias = GridIndex::with_capacity_hint(die, layout.via_count());
        for v in layout.vias() {
            let shape = v.shape();
            vias.insert(shape.bbox(), (v.net, shape, v.top, v.bottom));
        }
        let mut route_segs: Vec<GridIndex<(NetId, Segment)>> = (0..layers)
            .map(|_| GridIndex::with_capacity_hint(die, layout.route_count() * 2))
            .collect();
        for r in layout.routes() {
            let idx = &mut route_segs[r.layer.index()];
            for seg in r.path.segments() {
                let (lo, hi) = seg.bbox();
                idx.insert(Rect::new(lo, hi), (r.net, seg));
            }
        }
        let mut pad_nets = vec![None; package.pads().len()];
        for n in package.nets() {
            pad_nets[n.a.index()] = Some(n.id);
            pad_nets[n.b.index()] = Some(n.id);
        }
        GeomScratch { pads, obstacles, vias, route_segs, pad_nets }
    }

    /// Collects the [`LayerInputs`] of one `(layer, cell)` slot: every
    /// blockage within reach of the cell, with the cuts and diagonal
    /// lines it induces, and the wires nearby.
    ///
    /// Each query returns entry ids in insertion (= package / layout
    /// iteration) order and over-approximates the original intersection
    /// predicate, which is re-applied exactly below, so the lists match
    /// full scans byte for byte.
    fn layer_inputs(
        &mut self,
        package: &Package,
        layout: &Layout,
        cfg: &SpaceConfig,
        cell: Rect,
        layer: WireLayer,
    ) -> LayerInputs {
        let reach = cfg.clearance;
        let probe = cell.inflate(reach + cfg.via_width);
        let mut blockages: Vec<(Blocker, Octagon)> = Vec::new();
        let mut xcuts: Vec<Coord> = vec![cell.lo.x, cell.hi.x];
        let mut ycuts: Vec<Coord> = vec![cell.lo.y, cell.hi.y];
        let mut diag_lines: Vec<XLine> = Vec::new();
        let mut wires: Vec<(NetId, Segment)> = Vec::new();

        // Cuts are taken at *inflated* blockage boundaries so that the
        // clearance band around each blocker occupies its own tiles and
        // never poisons surrounding free space.
        for id in self.obstacles.query(probe.inflate(reach)) {
            let o = &package.obstacles()[*self.obstacles.get(id).expect("live entry").1];
            if o.layer == layer && o.rect.inflate(reach).intersects(probe) {
                let shape = Octagon::from_rect(o.rect).inflate(reach);
                let inf = o.rect.inflate(reach);
                xcuts.extend([o.rect.lo.x, o.rect.hi.x, inf.lo.x, inf.hi.x]);
                ycuts.extend([o.rect.lo.y, o.rect.hi.y, inf.lo.y, inf.hi.y]);
                blockages.push((Blocker::Hard, shape));
            }
        }
        // Pad keepouts reach at most 2×clearance (escape lanes below), so
        // probe that superset and re-check the exact reach per pad.
        for id in self.pads.query(probe.inflate(reach * 2)) {
            let p = &package.pads()[*self.pads.get(id).expect("live entry").1];
            // Pads of still-unrouted nets carry an extra keepout so a
            // foreign wire cannot seal off their escape lane before their
            // own net gets its chance.
            let owner = self.pad_nets[p.id.index()];
            let needs_escape = owner.is_some_and(|n| !layout.has_geometry(n));
            let pad_reach = if needs_escape { reach * 2 } else { reach };
            if package.pad_layer(p.id) == layer && p.bbox().inflate(pad_reach).intersects(probe) {
                let shape = p.shape().inflate(pad_reach);
                let bb = p.bbox();
                let inf = bb.inflate(pad_reach);
                xcuts.extend([bb.lo.x, bb.hi.x, inf.lo.x, inf.hi.x]);
                ycuts.extend([bb.lo.y, bb.hi.y, inf.lo.y, inf.hi.y]);
                let tag = match owner {
                    Some(n) => Blocker::Net(n),
                    None => Blocker::Hard,
                };
                blockages.push((tag, shape));
            }
        }
        for id in self.vias.query(probe.inflate(reach)) {
            let &(net, shape, top, bottom) = self.vias.get(id).expect("live entry").1;
            if layer >= top && layer <= bottom {
                let bb = shape.bbox();
                if bb.inflate(reach).intersects(probe) {
                    let inf = bb.inflate(reach);
                    xcuts.extend([bb.lo.x, bb.hi.x, inf.lo.x, inf.hi.x]);
                    ycuts.extend([bb.lo.y, bb.hi.y, inf.lo.y, inf.hi.y]);
                    blockages.push((Blocker::Net(net), shape.inflate(reach)));
                }
            }
        }
        let diag_reach = ((reach as f64) * info_geom::SQRT2).ceil() as Coord;
        let seg_index = &mut self.route_segs[layer.index()];
        for id in seg_index.query(probe.inflate(reach)) {
            let &(net, seg) = seg_index.get(id).expect("live entry").1;
            let (lo, hi) = seg.bbox();
            if !Rect::new(lo, hi).inflate(reach).intersects(probe) {
                continue;
            }
            wires.push((net, seg));
            // The wire's clearance band is carved out as its own strip of
            // tiles: cut at the conductor line and at the band edges
            // (± clearance), plus endpoint caps.
            for p in [seg.a, seg.b] {
                xcuts.extend([p.x - reach, p.x, p.x + reach]);
                ycuts.extend([p.y - reach, p.y, p.y + reach]);
            }
            match seg.orient() {
                Some(Orient4::H) => {
                    ycuts.extend([seg.a.y - reach, seg.a.y + reach]);
                }
                Some(Orient4::V) => {
                    xcuts.extend([seg.a.x - reach, seg.a.x + reach]);
                }
                Some(o @ (Orient4::D45 | Orient4::D135)) => {
                    let line = XLine::through(seg.a, o);
                    diag_lines.push(line);
                    diag_lines.push(XLine::new(o, line.c() - diag_reach));
                    diag_lines.push(XLine::new(o, line.c() + diag_reach));
                }
                None => {}
            }
            // Band blockage: the octagon hull of the segment, inflated by
            // the clearance.
            let hull = Octagon::from_bounds(
                seg.a.x.min(seg.b.x),
                seg.a.x.max(seg.b.x),
                seg.a.y.min(seg.b.y),
                seg.a.y.max(seg.b.y),
                seg.a.sum().min(seg.b.sum()),
                seg.a.sum().max(seg.b.sum()),
                seg.a.diff().min(seg.b.diff()),
                seg.a.diff().max(seg.b.diff()),
            );
            blockages.push((Blocker::Net(net), hull.inflate(reach)));
        }

        xcuts.retain(|&x| x >= cell.lo.x && x <= cell.hi.x);
        ycuts.retain(|&y| y >= cell.lo.y && y <= cell.hi.y);
        xcuts.sort_unstable();
        xcuts.dedup();
        ycuts.sort_unstable();
        ycuts.dedup();
        // Duplicate diagonal lines (shared clearance-band edges of
        // collinear wires) are dropped: clipping by the same line twice is
        // a no-op, so the resulting pieces — and their order — are
        // identical, at a fraction of the clip work.
        let mut seen: Vec<XLine> = Vec::with_capacity(diag_lines.len());
        diag_lines.retain(|l| {
            if seen.contains(l) {
                false
            } else {
                seen.push(*l);
                true
            }
        });
        LayerInputs { blockages, xcuts, ycuts, diag_lines, wires }
    }
}

impl RoutingSpace {
    /// Builds the space from the current layout: [`RoutingSpace::derive`]
    /// with no memo.
    pub fn build(package: &Package, layout: &Layout, cfg: SpaceConfig) -> Self {
        Self::derive(package, layout, cfg, None).0
    }

    /// Builds the space of `(package, layout)`, taking every `(layer,
    /// cell)` slot whose [`LayerInputs`] equal the same slot's stored
    /// inputs in `memo` from the memo instead of re-partitioning it.
    ///
    /// Cells are visited row-major, layers in order, and ids are handed
    /// out in that order, exactly as a build without a memo does; since
    /// [`tile_layer`] is a pure function of the slot and its inputs, and
    /// a cell's via sites a pure function of its tiles, the result equals
    /// `build(package, layout, cfg)` in every tile, id, input and via
    /// site whatever `memo` holds. The memo only saves time. A memo built
    /// under another configuration, die or layer count is ignored.
    ///
    /// Returns the space and the cells that re-partitioned at least one
    /// layer (all of them without a memo), with the slots reused.
    pub fn derive(
        package: &Package,
        layout: &Layout,
        cfg: SpaceConfig,
        memo: Option<&RoutingSpace>,
    ) -> (Self, Rebuilt) {
        let layers = package.wire_layer_count();
        let ncells = cfg.cells_x * cfg.cells_y;
        let memo = memo.filter(|m| m.cfg == cfg && m.die == package.die() && m.layers == layers);
        // Every slot is filled below; the placeholders are never read.
        let empty_index = Arc::new(GridIndex::with_grid(package.die(), 1, 1));
        let no_inputs = Arc::new(LayerInputs::default());
        let mut space = RoutingSpace {
            cfg,
            die: package.die(),
            layers,
            tiles: Vec::new(),
            cell_tiles: vec![Vec::new(); ncells * layers],
            layer_inputs: vec![no_inputs; ncells * layers],
            via_sites: vec![Vec::new(); ncells],
            adjacency: AdjCache::default(),
            tile_index: vec![empty_index; ncells * layers],
            adj_epoch: vec![0; ncells * layers],
            epoch_counter: 0,
            revision: REVISION.fetch_add(1, Ordering::Relaxed),
            live: 0,
            slots_peak: 0,
            live_peak: 0,
            trial: None,
        };
        let mut scratch = GeomScratch::build(package, layout, layers);
        let mut rebuilt = Rebuilt::default();
        for cy in 0..cfg.cells_y {
            for cx in 0..cfg.cells_x {
                let cell = space.cell_rect(cx, cy);
                let mut reused = 0;
                for layer_idx in 0..layers {
                    let layer = WireLayer(layer_idx as u8);
                    let idx = space.cell_index(layer_idx, cx, cy);
                    let inputs = scratch.layer_inputs(package, layout, &cfg, cell, layer);
                    let nodes = match memo.filter(|m| *m.layer_inputs[idx] == inputs) {
                        Some(m) => {
                            reused += 1;
                            space.layer_inputs[idx] = Arc::clone(&m.layer_inputs[idx]);
                            space.tile_index[idx] = Arc::clone(&m.tile_index[idx]);
                            m.cell_tiles[idx].iter().map(|&id| m.tile(id).clone()).collect()
                        }
                        None => {
                            let nodes = tile_layer(layer, (cx, cy), &inputs);
                            space.tile_index[idx] = Arc::new(position_index(cell, &nodes));
                            space.layer_inputs[idx] = Arc::new(inputs);
                            nodes
                        }
                    };
                    space.install(idx, nodes);
                }
                match memo {
                    Some(m) if reused == layers => {
                        let slot = cy * cfg.cells_x + cx;
                        space.via_sites[slot] = m.via_sites[slot].clone();
                    }
                    _ => space.refresh_via_sites(cx, cy),
                }
                if reused < layers {
                    rebuilt.cells.push((cx, cy));
                }
                rebuilt.layers_reused += reused;
            }
        }
        (space, rebuilt)
    }

    /// Installs `nodes` as the tiles of the (empty) slot `idx` under fresh
    /// ids, in order.
    fn install(&mut self, idx: usize, nodes: Vec<TileNode>) {
        let first = self.tiles.len() as u32;
        self.cell_tiles[idx] = (first..first + nodes.len() as u32).map(TileId).collect();
        self.live += nodes.len();
        self.tiles.extend(nodes.into_iter().map(Some));
        self.slots_peak = self.slots_peak.max(self.tiles.len());
        self.live_peak = self.live_peak.max(self.live);
    }

    /// Number of wire layers.
    pub fn layer_count(&self) -> usize {
        self.layers
    }

    /// Configuration in effect.
    pub fn config(&self) -> &SpaceConfig {
        &self.cfg
    }

    /// Upper bound on live tile ids: every `TileId` is `< tile_slots()`.
    /// Search scratch arrays (stamps, g-values, parents) are sized by this.
    pub fn tile_slots(&self) -> usize {
        self.tiles.len()
    }

    /// Number of live tiles; the other `tile_slots() - live_tile_count()`
    /// slots hold retired tiles until [`RoutingSpace::compact`].
    pub fn live_tile_count(&self) -> usize {
        self.live
    }

    /// High-water marks `(tile_slots, live tiles)` since the space was
    /// built. Neither a trial rollback nor a compaction lowers them.
    pub fn tile_peaks(&self) -> (usize, usize) {
        (self.slots_peak, self.live_peak)
    }

    /// Renumbers the live tiles densely, keeping their id order, and frees
    /// the retired slots, so `tile_slots()` falls to `live_tile_count()`.
    ///
    /// Every id the space hands out changes, so the revision is fresh
    /// afterwards, but the relative order of any two live ids is kept.
    /// A search that breaks ties by tile id (the open list's `(f, id)`
    /// keys) therefore pops, expands and returns the same tiles, and
    /// tiles installed later still get ids above every live one, as
    /// without the compaction. Adjacency-cache entries whose epoch is
    /// stale are dropped (after a rollback their edges can name
    /// truncated ids); the valid ones are renumbered and stay valid, so
    /// the cache answers every later lookup as it would have.
    ///
    /// # Panics
    ///
    /// Inside a trial, whose rollback truncates by id.
    pub fn compact(&mut self) {
        assert!(self.trial.is_none(), "compact() inside a trial");
        let (cells_x, cells_y) = (self.cfg.cells_x, self.cfg.cells_y);
        let RoutingSpace { tiles, cell_tiles, adjacency, adj_epoch, .. } = self;
        // Old id -> new id; `u32::MAX` marks a retired slot.
        let mut remap = vec![u32::MAX; tiles.len()];
        let mut next = 0u32;
        for (old, slot) in remap.iter_mut().enumerate() {
            if tiles[old].is_some() {
                *slot = next;
                tiles.swap(next as usize, old);
                next += 1;
            }
        }
        tiles.truncate(next as usize);
        tiles.shrink_to_fit();
        debug_assert_eq!(tiles.len(), self.live);
        for id in cell_tiles.iter_mut().flatten() {
            id.0 = remap[id.0 as usize];
        }
        let state = adjacency.state.get_mut().unwrap_or_else(|e| e.into_inner());
        let entries = std::mem::take(&mut state.map);
        for (id, (stamp, mut edges)) in entries {
            let new_id = remap.get(id as usize).copied().unwrap_or(u32::MAX);
            let Some(t) = tiles.get(new_id as usize) else { continue };
            let t = t.as_ref().expect("compacted slots are live");
            let (cx, cy) = t.cell;
            if stamp != adj_epoch[(t.layer.index() * cells_y + cy) * cells_x + cx] {
                continue;
            }
            // Edges of a valid entry name tiles of its cell and the
            // 4-adjacent ring, none of which rebuilt since it was stamped.
            // The list is unshared except with clones of this space.
            for e in Arc::make_mut(&mut edges) {
                e.to = TileId(remap[e.to.0 as usize]);
                debug_assert_ne!(e.to.0, u32::MAX, "a valid entry names a retired tile");
            }
            state.map.insert(new_id, (stamp, edges));
        }
        self.revision = REVISION.fetch_add(1, Ordering::Relaxed);
    }

    /// The space's state revision: strictly fresh after every rebuild and
    /// compaction, and equal only between value-identical spaces
    /// (clones/restores). Caches
    /// outside the space key their validity on it.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The rectangle of global cell `(cx, cy)`.
    pub fn cell_rect(&self, cx: usize, cy: usize) -> Rect {
        let w = self.die.width() as i128;
        let h = self.die.height() as i128;
        let x0 = self.die.lo.x + (w * cx as i128 / self.cfg.cells_x as i128) as Coord;
        let x1 = self.die.lo.x + (w * (cx + 1) as i128 / self.cfg.cells_x as i128) as Coord;
        let y0 = self.die.lo.y + (h * cy as i128 / self.cfg.cells_y as i128) as Coord;
        let y1 = self.die.lo.y + (h * (cy + 1) as i128 / self.cfg.cells_y as i128) as Coord;
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn cell_of_point(&self, p: Point) -> Option<(usize, usize)> {
        if !self.die.contains(p) {
            return None;
        }
        let w = self.die.width().max(1) as i128;
        let h = self.die.height().max(1) as i128;
        let cx = ((p.x - self.die.lo.x) as i128 * self.cfg.cells_x as i128 / w) as usize;
        let cy = ((p.y - self.die.lo.y) as i128 * self.cfg.cells_y as i128 / h) as usize;
        Some((cx.min(self.cfg.cells_x - 1), cy.min(self.cfg.cells_y - 1)))
    }

    #[inline]
    fn cell_index(&self, layer: usize, cx: usize, cy: usize) -> usize {
        (layer * self.cfg.cells_y + cy) * self.cfg.cells_x + cx
    }

    /// Tile lookup.
    pub fn tile(&self, id: TileId) -> &TileNode {
        self.tiles[id.0 as usize].as_ref().expect("stale tile id")
    }

    /// All live tiles (diagnostics).
    pub fn live_tiles(&self) -> impl Iterator<Item = (TileId, &TileNode)> {
        self.tiles
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (TileId(i as u32), t)))
    }

    /// Tiles of one global cell on one layer.
    pub fn tiles_in_cell(&self, layer: WireLayer, cx: usize, cy: usize) -> &[TileId] {
        &self.cell_tiles[self.cell_index(layer.index(), cx, cy)]
    }

    /// Candidate via sites in a cell.
    pub fn via_sites(&self, cx: usize, cy: usize) -> &[ViaSite] {
        &self.via_sites[cy * self.cfg.cells_x + cx]
    }

    /// The tile containing `p` on `layer` that is passable for `net`
    /// (free tiles preferred, then net-owned ones).
    pub fn tile_at(&self, layer: WireLayer, p: Point, net: NetId) -> Option<TileId> {
        let (cx, cy) = self.cell_of_point(p)?;
        let ids = self.tiles_in_cell(layer, cx, cy);
        let mut owned: Option<TileId> = None;
        for &id in ids {
            let t = self.tile(id);
            if t.shape.contains(p) {
                if t.is_free() {
                    return Some(id);
                }
                if t.passable_for(net) && owned.is_none() {
                    owned = Some(id);
                }
            }
        }
        owned
    }

    /// Rebuilds the union of the global cells touched by each rect in
    /// `dirty` (each inflated by the clearance), refreshing tiles and via
    /// sites and visiting every affected cell exactly once.
    pub fn rebuild_dirty_multi(
        &mut self,
        package: &Package,
        layout: &Layout,
        dirty: &[Rect],
    ) -> Rebuilt {
        let margin = self.cfg.clearance + self.cfg.via_width;
        let areas: Vec<Rect> = dirty.iter().map(|r| r.inflate(margin)).collect();
        let mut cells = Vec::new();
        for cy in 0..self.cfg.cells_y {
            for cx in 0..self.cfg.cells_x {
                let rect = self.cell_rect(cx, cy);
                if areas.iter().any(|a| rect.intersects(*a)) {
                    cells.push((cx, cy));
                }
            }
        }
        if cells.is_empty() {
            return Rebuilt::default();
        }
        let mut scratch = GeomScratch::build(package, layout, self.layers);
        let mut layers_reused = 0;
        for &(cx, cy) in &cells {
            layers_reused += self.rebuild_cell(package, layout, &mut scratch, cx, cy);
        }
        self.revision = REVISION.fetch_add(1, Ordering::Relaxed);
        Rebuilt { cells, layers_reused }
    }

    /// Opens a trial: until [`RoutingSpace::commit_trial`] or
    /// [`RoutingSpace::rollback_trial`], every rebuild journals the
    /// pre-trial state of the cells it replaces, so a rollback restores
    /// the space exactly (tiles, tile ids, via sites, revision, cache
    /// tallies) at a cost proportional to the cells the trial rebuilt,
    /// not to the whole space. Trials do not nest.
    pub fn begin_trial(&mut self) {
        debug_assert!(self.trial.is_none(), "nested trials are not supported");
        let (hits, misses) = self.adjacency_cache_stats();
        self.trial = Some(Box::new(Trial {
            tile_len: self.tiles.len(),
            live: self.live,
            revision: self.revision,
            adj_epoch: self.adj_epoch.clone(),
            hits,
            misses,
            saved: vec![false; self.cfg.cells_x * self.cfg.cells_y],
            cells: Vec::new(),
        }));
    }

    /// Keeps everything the open trial did and drops its journal.
    pub fn commit_trial(&mut self) {
        let trial = self.trial.take();
        debug_assert!(trial.is_some(), "commit_trial without an open trial");
    }

    /// Undoes every rebuild since [`RoutingSpace::begin_trial`] and closes
    /// the trial. Adjacency entries built during the trial for cells it
    /// never rebuilt (nor bordered) stay: they are pure functions of
    /// unchanged tiles, and their epochs match again.
    pub fn rollback_trial(&mut self) {
        let trial = *self.trial.take().expect("rollback_trial without an open trial");
        let mut adj = self.adjacency.lock();
        for id in trial.tile_len..self.tiles.len() {
            adj.map.remove(&(id as u32));
        }
        self.tiles.truncate(trial.tile_len);
        for cell in trial.cells {
            for (layer, saved) in cell.layers.into_iter().enumerate() {
                let idx = self.cell_index(layer, cell.cx, cell.cy);
                for (id, node) in saved.ids.iter().zip(saved.nodes) {
                    self.tiles[id.0 as usize] = Some(node);
                }
                self.cell_tiles[idx] = saved.ids;
                self.layer_inputs[idx] = saved.inputs;
                self.tile_index[idx] = saved.index;
            }
            self.via_sites[cell.cy * self.cfg.cells_x + cell.cx] = cell.via_sites;
            adj.map.extend(cell.adjacency);
        }
        adj.hits = trial.hits;
        adj.misses = trial.misses;
        drop(adj);
        self.adj_epoch = trial.adj_epoch;
        self.revision = trial.revision;
        self.live = trial.live;
    }

    /// Every global cell whose rectangle intersects `area`, row-major.
    pub fn cells_touching(&self, area: Rect) -> Vec<(usize, usize)> {
        let mut cells = Vec::new();
        for cy in 0..self.cfg.cells_y {
            for cx in 0..self.cfg.cells_x {
                if self.cell_rect(cx, cy).intersects(area) {
                    cells.push((cx, cy));
                }
            }
        }
        cells
    }

    /// Rebuilds one global cell across all layers plus its via sites, and
    /// returns how many of its layers reused their tiles.
    ///
    /// Per layer: collect the slot's [`LayerInputs`], retire its tiles,
    /// then install either the old tiles (inputs equal to the stored
    /// ones) or a fresh [`tile_layer`] partition, under fresh ids in
    /// order. Both branches produce the same tiles and ids, since
    /// `tile_layer` is a pure function of the inputs.
    fn rebuild_cell(
        &mut self,
        package: &Package,
        layout: &Layout,
        scratch: &mut GeomScratch,
        cx: usize,
        cy: usize,
    ) -> usize {
        // Adjacency lists of this cell's tiles (about to be retired) and
        // of every tile in a 4-adjacent cell (their cross-border edges
        // reference the tiles being replaced) become stale now.
        self.invalidate_adjacency(cx, cy);
        // Inside a trial, the first rebuild of a cell moves its pre-trial
        // state into the journal instead of dropping it.
        let slot = cy * self.cfg.cells_x + cx;
        let mut saved = match self.trial.as_deref_mut() {
            Some(t) if !t.saved[slot] => {
                t.saved[slot] = true;
                Some(SavedCell {
                    cx,
                    cy,
                    layers: Vec::with_capacity(self.layers),
                    via_sites: std::mem::take(&mut self.via_sites[slot]),
                    adjacency: Vec::new(),
                })
            }
            _ => None,
        };
        let cell = self.cell_rect(cx, cy);
        let mut reused = 0;
        for layer_idx in 0..self.layers {
            let layer = WireLayer(layer_idx as u8);
            let idx = self.cell_index(layer_idx, cx, cy);
            let inputs = scratch.layer_inputs(package, layout, &self.cfg, cell, layer);
            let reuse = inputs == *self.layer_inputs[idx];

            // Retire the old tiles with their cached adjacency (no rebuild
            // hands their ids out again, so the entries could only leak).
            let ids = std::mem::take(&mut self.cell_tiles[idx]);
            self.live -= ids.len();
            let old: Vec<TileNode> = ids
                .iter()
                .map(|id| self.tiles[id.0 as usize].take().expect("live tile"))
                .collect();
            let mut adj = self.adjacency.lock();
            for id in &ids {
                let entry = adj.map.remove_entry(&id.0);
                if let (Some(s), Some(entry)) = (saved.as_mut(), entry) {
                    s.adjacency.push(entry);
                }
            }
            drop(adj);
            let old_inputs = std::mem::replace(&mut self.layer_inputs[idx], Arc::new(inputs));
            let fresh = (!reuse).then(|| tile_layer(layer, (cx, cy), &self.layer_inputs[idx]));
            let nodes = match saved.as_mut() {
                Some(s) => {
                    let nodes = fresh.unwrap_or_else(|| old.clone());
                    let index = Arc::clone(&self.tile_index[idx]);
                    s.layers.push(SavedLayer { ids, nodes: old, inputs: old_inputs, index });
                    nodes
                }
                None => fresh.unwrap_or(old),
            };

            // --- Install in order under fresh ids. A reused slot keeps its
            // position index; a re-partitioned one gets a new one.
            if reuse {
                reused += 1;
            } else {
                self.tile_index[idx] = Arc::new(position_index(cell, &nodes));
            }
            self.install(idx, nodes);
        }
        self.refresh_via_sites(cx, cy);
        if let Some(cell) = saved {
            self.trial.as_deref_mut().expect("journaling trial").cells.push(cell);
        }
        reused
    }

    /// Re-derives the candidate via sites of one cell: for each adjacent
    /// layer pair, up to three of the largest free tiles (meeting the via
    /// footprint) whose interior points are also free on the other layer.
    /// (The paper inserts one via per cell; extra candidates only matter in
    /// crowded cells where the largest tile's site has been consumed.)
    fn refresh_via_sites(&mut self, cx: usize, cy: usize) {
        let slot = cy * self.cfg.cells_x + cx;
        self.via_sites[slot].clear();
        let need = (self.cfg.via_width + 2 * self.cfg.clearance) as f64;
        for upper_idx in 0..self.layers.saturating_sub(1) {
            let upper = WireLayer(upper_idx as u8);
            let lower = WireLayer(upper_idx as u8 + 1);
            let mut cands: Vec<(i128, Point)> = Vec::new();
            for &id in self.tiles_in_cell(upper, cx, cy) {
                let t = self.tile(id);
                if !t.is_free() || t.shape.thickness() < need {
                    continue;
                }
                let p = t.shape.interior_point();
                // The same point must be free on the lower layer.
                let free_below = self
                    .tiles_in_cell(lower, cx, cy)
                    .iter()
                    .any(|&lid| {
                        let lt = self.tile(lid);
                        lt.is_free() && lt.shape.contains(p) && lt.shape.thickness() >= need
                    });
                if !free_below {
                    continue;
                }
                cands.push((t.shape.area(), p));
            }
            cands.sort_by_key(|c| std::cmp::Reverse(c.0));
            for (_, at) in cands.into_iter().take(3) {
                self.via_sites[slot].push(ViaSite { at, upper, lower });
            }
        }
    }

    /// Invalidates cached adjacency lists of every tile in cell `(cx, cy)`
    /// and its 4-adjacent cells, on every layer, by bumping the cells'
    /// adjacency epochs — entries stamped with the old epoch fail the
    /// validity check on their next lookup. Called by cell rebuilds: edges
    /// of ring tiles reference the tiles being replaced, and covered
    /// intervals reference the rebuilt cell's wires.
    fn invalidate_adjacency(&mut self, cx: usize, cy: usize) {
        let mut cells = vec![(cx, cy)];
        if cx > 0 {
            cells.push((cx - 1, cy));
        }
        if cy > 0 {
            cells.push((cx, cy - 1));
        }
        if cx + 1 < self.cfg.cells_x {
            cells.push((cx + 1, cy));
        }
        if cy + 1 < self.cfg.cells_y {
            cells.push((cx, cy + 1));
        }
        self.epoch_counter += 1;
        let epoch = self.epoch_counter;
        for layer in 0..self.layers {
            for &(ox, oy) in &cells {
                let idx = self.cell_index(layer, ox, oy);
                self.adj_epoch[idx] = epoch;
            }
        }
    }

    /// Legality-cache counters: `(hits, misses)` of the adjacency cache
    /// since this space was built (a trial rollback reverts them to the
    /// checkpoint's counts, so lookups of discarded trial work are not
    /// reported).
    pub fn adjacency_cache_stats(&self) -> (u64, u64) {
        let s = self.adjacency.lock();
        (s.hits, s.misses)
    }

    /// Planar neighbors of a tile passable for `net`: tiles in the same or
    /// 4-adjacent global cells on the same layer sharing a positive-length
    /// boundary not covered by a wire.
    pub fn planar_neighbors(&self, id: TileId, net: NetId) -> Vec<PlanarEdge> {
        let mut out = Vec::new();
        self.planar_neighbors_into(id, net, &mut out);
        out
    }

    /// [`RoutingSpace::planar_neighbors`] into a caller-owned buffer
    /// (cleared first) — the A\* inner loop reuses one buffer across every
    /// expansion. Net-agnostic adjacency comes from the per-tile cache;
    /// only the per-net passability filter and wire subtraction run here.
    pub fn planar_neighbors_into(&self, id: TileId, net: NetId, out: &mut Vec<PlanarEdge>) {
        out.clear();
        let epoch = {
            let t = self.tile(id);
            let (cx, cy) = t.cell;
            self.adj_epoch[self.cell_index(t.layer.index(), cx, cy)]
        };
        let cached = {
            let mut s = self.adjacency.lock();
            let hit = match s.map.get(&id.0) {
                Some((stamp, r)) if *stamp == epoch => Some(Arc::clone(r)),
                _ => None,
            };
            if hit.is_some() {
                s.hits += 1;
            } else {
                s.misses += 1;
            }
            hit
        };
        let raw = match cached {
            Some(r) => r,
            None => {
                let built = Arc::new(self.build_raw_edges(id));
                self.adjacency.lock().map.insert(id.0, (epoch, Arc::clone(&built)));
                built
            }
        };
        let min_t = self.cfg.min_thickness as f64;
        for e in raw.iter() {
            if !self.tile(e.to).passable_for(net) {
                continue;
            }
            if let Some(crossing) = open_from_covered(e.seg, &e.covered, net, min_t) {
                out.push(PlanarEdge { to: e.to, crossing });
            }
        }
    }

    /// Computes the net-agnostic adjacency list of one tile: every
    /// boundary-sharing neighbor (passable or not — passability is a
    /// per-net query-time filter) with the wire intervals along the shared
    /// boundary.
    fn build_raw_edges(&self, id: TileId) -> Vec<RawEdge> {
        let t = self.tile(id);
        let (cx, cy) = t.cell;
        let layer = t.layer;
        let mut out = Vec::new();
        let mut cells = vec![(cx, cy)];
        if cx > 0 {
            cells.push((cx - 1, cy));
        }
        if cy > 0 {
            cells.push((cx, cy - 1));
        }
        if cx + 1 < self.cfg.cells_x {
            cells.push((cx + 1, cy));
        }
        if cy + 1 < self.cfg.cells_y {
            cells.push((cx, cy + 1));
        }
        let my_bbox = t.shape.bbox();
        for &(ox, oy) in &cells {
            // Tiles sharing a boundary must have touching bounding boxes,
            // so the per-cell index narrows thousands of cell tiles down
            // to the handful near this one. Query results come back in
            // insertion (= `cell_tiles`) order — the same candidate order
            // the full scan used, so edge order (and thus A\* tie-breaks)
            // is unchanged.
            let slot = self.cell_index(layer.index(), ox, oy);
            let index = &self.tile_index[slot];
            for entry in index.query_ref(my_bbox) {
                let (_, &pos) = index.get(entry).expect("live index entry");
                let other = self.cell_tiles[slot][pos as usize];
                if other == id {
                    continue;
                }
                let o = self.tile(other);
                let shared = t.shape.intersection(&o.shape);
                let Some(seg) = shared.as_degenerate_segment() else {
                    continue;
                };
                if seg.len_euclid() < self.cfg.min_thickness as f64 {
                    continue;
                }
                let Some(covered) = self.covered_intervals(layer, (cx, cy), (ox, oy), seg)
                else {
                    continue;
                };
                out.push(RawEdge { to: other, seg, covered });
            }
        }
        out
    }

    /// Collects the parameter intervals `[lo, hi] ⊂ [0, 1]` of `seg`
    /// covered by wires running along it, every net included, stably
    /// sorted by `lo`. `None` when the segment has no supporting line
    /// (the edge is unusable for every net).
    fn covered_intervals(
        &self,
        layer: WireLayer,
        cell_a: (usize, usize),
        cell_b: (usize, usize),
        seg: Segment,
    ) -> Option<Vec<(NetId, f64, f64)>> {
        let line = seg.supporting_line()?;
        let dir = seg.delta();
        let len_sq = dir.norm_sq() as f64;
        let mut covered: Vec<(NetId, f64, f64)> = Vec::new();
        let mut cells = vec![cell_a];
        if cell_b != cell_a {
            cells.push(cell_b);
        }
        for (ox, oy) in cells {
            let idx = self.cell_index(layer.index(), ox, oy);
            for (wnet, w) in &self.layer_inputs[idx].wires {
                let Some(wline) = w.supporting_line() else { continue };
                if wline != line {
                    continue;
                }
                let ta = (w.a - seg.a).dot(dir) as f64 / len_sq;
                let tb = (w.b - seg.a).dot(dir) as f64 / len_sq;
                let (lo, hi) = if ta <= tb { (ta, tb) } else { (tb, ta) };
                let lo = lo.max(0.0);
                let hi = hi.min(1.0);
                if lo < hi {
                    covered.push((*wnet, lo, hi));
                }
            }
        }
        // Stable sort: a per-net filter of this list followed by the
        // longest-gap scan reproduces the historical filter-then-sort
        // result byte for byte.
        covered.sort_by(|a, b| a.1.total_cmp(&b.1));
        Some(covered)
    }

    /// Via-site edges usable from a tile: sites in the tile's cell whose
    /// point lies inside the tile, each linking to the tile at the same
    /// point on the adjacent layer.
    pub fn via_neighbors(&self, id: TileId, net: NetId) -> Vec<(TileId, Point)> {
        let mut out = Vec::new();
        self.via_neighbors_into(id, net, &mut out);
        out
    }

    /// [`RoutingSpace::via_neighbors`] into a caller-owned buffer
    /// (cleared first).
    pub fn via_neighbors_into(&self, id: TileId, net: NetId, out: &mut Vec<(TileId, Point)>) {
        out.clear();
        let t = self.tile(id);
        let (cx, cy) = t.cell;
        for site in self.via_sites(cx, cy) {
            let other_layer = if site.upper == t.layer {
                site.lower
            } else if site.lower == t.layer {
                site.upper
            } else {
                continue;
            };
            if !t.shape.contains(site.at) {
                continue;
            }
            if let Some(dst) = self.tile_at(other_layer, site.at, net) {
                out.push((dst, site.at));
            }
        }
    }
}

/// The longest sub-interval of `seg` not covered by a foreign wire
/// (intervals of `net` itself are skipped), if long enough to pass.
/// `covered` must be sorted by `lo` — see
/// [`RoutingSpace::covered_intervals`].
fn open_from_covered(
    seg: Segment,
    covered: &[(NetId, f64, f64)],
    net: NetId,
    min_thickness: f64,
) -> Option<Segment> {
    let dir = seg.delta();
    let len_sq = dir.norm_sq() as f64;
    let mut best: Option<(f64, f64)> = None;
    let mut cursor = 0.0f64;
    let mut any = false;
    for &(wnet, lo, hi) in covered {
        if wnet == net {
            continue;
        }
        any = true;
        if lo > cursor {
            let gap = (cursor, lo);
            if best.is_none_or(|(a, b)| gap.1 - gap.0 > b - a) {
                best = Some(gap);
            }
        }
        cursor = cursor.max(hi);
    }
    if !any {
        return Some(seg);
    }
    // Trailing sentinel interval (1.0, 1.0): closes the final gap.
    if 1.0 > cursor {
        let gap = (cursor, 1.0);
        if best.is_none_or(|(a, b)| gap.1 - gap.0 > b - a) {
            best = Some(gap);
        }
    }
    let (lo, hi) = best?;
    let min_t = min_thickness / len_sq.sqrt();
    if hi - lo < min_t {
        return None;
    }
    let at = |t: f64| {
        Point::new(
            seg.a.x + (dir.dx as f64 * t).round() as Coord,
            seg.a.y + (dir.dy as f64 * t).round() as Coord,
        )
    };
    Some(Segment::new(at(lo), at(hi)))
}

/// The spatial index of one slot's tiles: each tile's bbox, holding its
/// position in the slot (see `RoutingSpace::tile_index`).
fn position_index(cell: Rect, nodes: &[TileNode]) -> GridIndex<u32> {
    let mut index = GridIndex::with_capacity_hint(cell, nodes.len());
    for (pos, t) in nodes.iter().enumerate() {
        index.insert(t.shape.bbox(), pos as u32);
    }
    index
}

/// Partitions one `(layer, cell)` slot into tiles, in install order (the
/// cuts include the cell's bounds, so the frames cover the cell): free
/// rectangles (strip-merged), then rectangles swallowed by one blockage
/// (merged per tag), then the pieces of busy frames split by the diagonal
/// lines crossing them, each tagged with the blockers overlapping its
/// interior. A pure function of its arguments, which is what lets a
/// rebuild with equal inputs reuse the slot's tiles.
fn tile_layer(layer: WireLayer, at: (usize, usize), inputs: &LayerInputs) -> Vec<TileNode> {
    let LayerInputs { blockages, xcuts, ycuts, diag_lines, .. } = inputs;
    let tile = |shape: Octagon, blockers: Vec<Blocker>| TileNode { layer, cell: at, shape, blockers };
    // Blockage bboxes, computed once: an octagon can only reach a frame
    // (or tile piece) whose bbox its own bbox touches, so the exact
    // intersection below runs on the handful of nearby blockages instead
    // of the cell's whole list.
    let blk_bbox: Vec<Rect> = blockages.iter().map(|(_, oct)| oct.bbox()).collect();

    // --- Frames: rectangular partition of the cell by the cuts, sorted
    // into completely free rectangles (merged to fight fragmentation, per
    // Lee et al.) and frames needing the full split/tag pipeline. A busy
    // frame carries the subset of diagonal lines that actually cross it —
    // every other line would leave its pieces untouched.
    let mut free_frames: Vec<Rect> = Vec::new();
    // Frames fully swallowed by a single blockage merge per tag.
    let mut swallowed: HashMap<Blocker, Vec<Rect>> = HashMap::new();
    let mut busy_frames: Vec<(Rect, Vec<XLine>)> = Vec::new();
    for wx in xcuts.windows(2) {
        for wy in ycuts.windows(2) {
            let frame = Rect::new(Point::new(wx[0], wy[0]), Point::new(wx[1], wy[1]));
            if frame.width() == 0 || frame.height() == 0 {
                continue;
            }
            let crossing: Vec<XLine> = diag_lines
                .iter()
                .filter(|l| {
                    let evals = frame.corners().map(|p| l.eval(p));
                    evals.iter().any(|&e| e > 0) && evals.iter().any(|&e| e < 0)
                })
                .copied()
                .collect();
            if !crossing.is_empty() {
                busy_frames.push((frame, crossing));
                continue;
            }
            let hits: Vec<&(Blocker, Octagon)> = blockages
                .iter()
                .zip(&blk_bbox)
                .filter(|((_, oct), bb)| {
                    frame.intersects(**bb) && {
                        let ix = Octagon::from_rect(frame).intersection(oct);
                        !ix.is_empty() && ix.area() > 0
                    }
                })
                .map(|(b, _)| b)
                .collect();
            if hits.is_empty() {
                free_frames.push(frame);
            } else if hits.len() == 1 && frame.corners().iter().all(|&p| hits[0].1.contains(p)) {
                swallowed.entry(hits[0].0).or_default().push(frame);
            } else {
                busy_frames.push((frame, Vec::new()));
            }
        }
    }

    let mut out: Vec<TileNode> = strip_merge(free_frames)
        .into_iter()
        .map(|rect| tile(Octagon::from_rect(rect), Vec::new()))
        .collect();
    let mut tags: Vec<Blocker> = swallowed.keys().copied().collect();
    tags.sort_by_key(|t| match t {
        Blocker::Hard => (0u8, 0u32),
        Blocker::Net(n) => (1, n.0),
    });
    for tag in tags {
        for rect in strip_merge(swallowed.remove(&tag).expect("key exists")) {
            out.push(tile(Octagon::from_rect(rect), vec![tag]));
        }
    }
    for (frame, crossing) in busy_frames {
        // --- Split the frame by the diagonal wires crossing it. Lines
        // that miss the frame cannot split any piece inside it, so only
        // the crossing subset is clipped against.
        let mut pieces = vec![Octagon::from_rect(frame)];
        for line in &crossing {
            let mut next = Vec::with_capacity(pieces.len() + 1);
            for piece in pieces {
                let lo = piece.clip_halfplane(*line, true);
                let hi = piece.clip_halfplane(*line, false);
                let lo_ok = !lo.is_empty() && lo.area() > 0;
                let hi_ok = !hi.is_empty() && hi.area() > 0;
                if lo_ok && hi_ok {
                    next.push(lo);
                    next.push(hi);
                } else {
                    next.push(piece);
                }
            }
            pieces = next;
        }
        for shape in pieces {
            // --- Tag blockers overlapping the tile interior.
            let piece_bbox = shape.bbox();
            let mut blockers: Vec<Blocker> = Vec::new();
            for ((tag, oct), bb) in blockages.iter().zip(&blk_bbox) {
                if !piece_bbox.intersects(*bb) {
                    continue;
                }
                let ix = shape.intersection(oct);
                if !ix.is_empty() && ix.area() > 0 && !blockers.contains(tag) {
                    blockers.push(*tag);
                }
            }
            out.push(tile(shape, blockers));
        }
    }
    out
}

/// Two-pass strip merging of disjoint rectangles: first horizontally
/// within equal y-spans, then vertically within equal x-spans.
fn strip_merge(mut rects: Vec<Rect>) -> Vec<Rect> {
    let merge_axis = |mut rects: Vec<Rect>, horizontal: bool| -> Vec<Rect> {
        rects.sort_by_key(|r| {
            if horizontal {
                (r.lo.y, r.hi.y, r.lo.x)
            } else {
                (r.lo.x, r.hi.x, r.lo.y)
            }
        });
        let mut out: Vec<Rect> = Vec::with_capacity(rects.len());
        for r in rects {
            if let Some(last) = out.last_mut() {
                let fits = if horizontal {
                    last.lo.y == r.lo.y && last.hi.y == r.hi.y && last.hi.x == r.lo.x
                } else {
                    last.lo.x == r.lo.x && last.hi.x == r.hi.x && last.hi.y == r.lo.y
                };
                if fits {
                    *last = last.union(r);
                    continue;
                }
            }
            out.push(r);
        }
        out
    };
    rects = merge_axis(rects, true);
    merge_axis(rects, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use info_geom::Polyline;
    use info_model::{DesignRules, PackageBuilder, Via};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn small_package() -> Package {
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
    fn build_produces_tiles_everywhere() {
        let pkg = small_package();
        let layout = Layout::new(&pkg);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        // Every cell on every layer has at least one tile.
        for layer in [WireLayer(0), WireLayer(1)] {
            for cy in 0..4 {
                for cx in 0..4 {
                    assert!(
                        !space.tiles_in_cell(layer, cx, cy).is_empty(),
                        "no tiles in cell ({cx},{cy}) layer {layer}"
                    );
                }
            }
        }
    }

    #[test]
    fn pad_tiles_are_net_tagged() {
        let pkg = small_package();
        let layout = Layout::new(&pkg);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        let net = NetId(0);
        let pad_center = Point::new(100_000, 100_000);
        // Own net can stand on its pad.
        assert!(space.tile_at(WireLayer(0), pad_center, net).is_some());
        // A foreign net cannot.
        assert!(space.tile_at(WireLayer(0), pad_center, NetId(99)).is_none());
        // Far away, anyone can.
        assert!(space.tile_at(WireLayer(0), Point::new(350_000, 50_000), NetId(99)).is_some());
    }

    #[test]
    fn via_sites_exist_in_open_cells() {
        let pkg = small_package();
        let layout = Layout::new(&pkg);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        let total: usize = (0..4)
            .flat_map(|cy| (0..4).map(move |cx| (cx, cy)))
            .map(|(cx, cy)| space.via_sites(cx, cy).len())
            .sum();
        assert!(total >= 12, "expected via sites in most cells, got {total}");
    }

    #[test]
    fn planar_neighbors_cross_cell_borders() {
        let pkg = small_package();
        let layout = Layout::new(&pkg);
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        let net = NetId(0);
        let start = space.tile_at(WireLayer(0), Point::new(350_000, 50_000), net).unwrap();
        let edges = space.planar_neighbors(start, net);
        assert!(!edges.is_empty());
        // All crossings are real shared boundaries.
        for e in &edges {
            assert!(e.crossing.len_euclid() > 0.0);
        }
    }

    #[test]
    fn wires_split_tiles_and_block_bands() {
        let pkg = small_package();
        let mut layout = Layout::new(&pkg);
        // A horizontal foreign wire across the middle of a cell.
        layout.add_route(
            NetId(0),
            WireLayer(0),
            info_geom::Polyline::new(vec![Point::new(210_000, 250_000), Point::new(390_000, 250_000)]),
        );
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        // A foreign net standing just above the wire is inside the blocked
        // band (clearance 4 µm): no free tile hosts a point 2 µm away.
        let near = Point::new(300_000, 252_000);
        let t = space.tile_at(WireLayer(0), near, NetId(5));
        assert!(t.is_none(), "point 2 µm from a foreign wire must be blocked");
        // 6 µm away is fine.
        let far = Point::new(300_000, 258_000);
        assert!(space.tile_at(WireLayer(0), far, NetId(5)).is_some());
        // The wire's own net may pass.
        assert!(space.tile_at(WireLayer(0), near, NetId(0)).is_some());
    }

    #[test]
    fn diagonal_wire_produces_octagonal_tiles() {
        let pkg = small_package();
        let mut layout = Layout::new(&pkg);
        layout.add_route(
            NetId(0),
            WireLayer(1),
            info_geom::Polyline::new(vec![Point::new(210_000, 210_000), Point::new(290_000, 290_000)]),
        );
        let space = RoutingSpace::build(&pkg, &layout, cfg());
        // Some tile on layer 1 now has a diagonal boundary (5+ edges or a
        // triangle with a 45° side).
        let has_diag = space.live_tiles().any(|(_, t)| {
            t.layer == WireLayer(1)
                && t.shape
                    .edges()
                    .iter()
                    .any(|(d, s)| d.is_diagonal() && s.len_euclid() > 1_000.0)
        });
        assert!(has_diag, "expected diagonal tile boundaries");
    }

    #[test]
    fn rebuild_dirty_refreshes_only_touched_cells() {
        let pkg = small_package();
        let mut layout = Layout::new(&pkg);
        let space_before = RoutingSpace::build(&pkg, &layout, cfg());
        let far_tile = space_before
            .tile_at(WireLayer(0), Point::new(50_000, 350_000), NetId(9))
            .unwrap();

        layout.add_route(
            NetId(0),
            WireLayer(0),
            info_geom::Polyline::new(vec![Point::new(310_000, 60_000), Point::new(390_000, 60_000)]),
        );
        let mut space = space_before.clone();
        space.rebuild_dirty_multi(
            &pkg,
            &layout,
            &[Rect::new(Point::new(310_000, 60_000), Point::new(390_000, 60_000))],
        );
        // The far-away tile id survives (cell untouched).
        assert!(space.tiles[far_tile.0 as usize].is_some());
        // Near the new wire, a foreign net is now blocked.
        assert!(space.tile_at(WireLayer(0), Point::new(350_000, 61_000), NetId(5)).is_none());
    }

    impl RoutingSpace {
        /// Forgets the partition inputs every slot stores (its wires stay:
        /// adjacency reads them), so the next rebuild re-partitions every
        /// slot it visits. A collected input never equals the forgotten
        /// one, whose cut lists lack even the cell bounds.
        fn forget_inputs(&mut self) {
            for inputs in &mut self.layer_inputs {
                let wires = inputs.wires.clone();
                *inputs = Arc::new(LayerInputs { wires, ..LayerInputs::default() });
            }
        }
    }

    /// One live tile: id, layer, cell, shape and blockers.
    type TileRow = (TileId, WireLayer, (usize, usize), Octagon, Vec<Blocker>);

    /// Everything a search reads from a space, tile ids included (the
    /// revision excluded: every rebuild takes a globally fresh one).
    #[derive(Debug, PartialEq)]
    struct Seen {
        slots: usize,
        tiles: Vec<TileRow>,
        cells: Vec<Vec<TileId>>,
        wires: Vec<Vec<(NetId, Segment)>>,
        via_sites: Vec<Vec<ViaSite>>,
        /// Planar neighbors of every fifth live tile, for nets 0 and 42.
        neighbors: Vec<Vec<(TileId, Segment)>>,
        cache_stats: (u64, u64),
    }

    fn seen(space: &RoutingSpace) -> Seen {
        let tiles: Vec<_> = space
            .live_tiles()
            .map(|(id, t)| (id, t.layer, t.cell, t.shape, t.blockers.clone()))
            .collect();
        let neighbors = tiles
            .iter()
            .step_by(5)
            .flat_map(|&(id, ..)| [NetId(0), NetId(42)].map(|net| (id, net)))
            .map(|(id, net)| {
                space.planar_neighbors(id, net).iter().map(|e| (e.to, e.crossing)).collect()
            })
            .collect();
        Seen {
            slots: space.tile_slots(),
            tiles,
            cells: space.cell_tiles.clone(),
            wires: space.layer_inputs.iter().map(|i| i.wires.clone()).collect(),
            via_sites: space.via_sites.clone(),
            neighbors,
            cache_stats: space.adjacency_cache_stats(),
        }
    }

    /// One random layout edit and the rects it dirties: a wire (H, V or
    /// diagonal) or a via of net 0–3, every shape of one net removed, or
    /// every shape of one net handed to another — the same geometry under
    /// new blocker tags. Vias land on three fixed points, so vias of
    /// different nets meet at the same place.
    fn random_edit(rng: &mut StdRng, layout: &mut Layout) -> Vec<Rect> {
        let net = NetId(rng.gen_range(0..4));
        let mut dirty = Vec::new();
        match rng.gen_range(0..10) {
            0..=3 => {
                let a = Point::new(rng.gen_range(20_000..380_000), rng.gen_range(20_000..380_000));
                let len = rng.gen_range(20_000..150_000);
                let b = match rng.gen_range(0..3) {
                    0 => Point::new(a.x + len, a.y),
                    1 => Point::new(a.x, a.y + len),
                    _ => Point::new(a.x + len, a.y + len),
                };
                layout.add_route(net, WireLayer(rng.gen_range(0..2)), Polyline::new(vec![a, b]));
                dirty.push(Rect::new(a, b));
            }
            4..=5 => {
                let sites = [(250_000, 110_000), (120_000, 320_000), (330_000, 330_000)];
                let (x, y) = sites[rng.gen_range(0..sites.len())];
                let at = Point::new(x, y);
                layout.add_via(net, at, 5_000, WireLayer(0), WireLayer(1), false);
                dirty.push(Rect::new(at, at));
            }
            keep => {
                let routes: Vec<(WireLayer, Polyline)> =
                    layout.routes_of(net).map(|r| (r.layer, r.path.clone())).collect();
                let vias: Vec<Via> = layout.vias_of(net).cloned().collect();
                layout.remove_net(net);
                let heir = (keep >= 8).then(|| NetId((net.0 + rng.gen_range(1..4)) % 4));
                for (layer, path) in routes {
                    dirty.extend(path.segments().map(|s| Rect::new(s.a, s.b)));
                    if let Some(heir) = heir {
                        layout.add_route(heir, layer, path);
                    }
                }
                for v in vias {
                    dirty.push(Rect::new(v.center, v.center));
                    if let Some(heir) = heir {
                        layout.add_via(heir, v.center, v.width, v.top, v.bottom, false);
                    }
                }
            }
        }
        dirty
    }

    /// Every slot's stored partition inputs, in slot order.
    fn inputs(space: &RoutingSpace) -> Vec<LayerInputs> {
        space.layer_inputs.iter().map(|i| (**i).clone()).collect()
    }

    /// A derived space equals a cold build of the same layout slot for
    /// slot — tiles, ids, inputs, via sites and adjacency — whatever its
    /// memo holds: the space of the layout before the edit, the same
    /// space patched by the dirty rebuild, the space of an unrelated
    /// layout, a space over another cell grid (ignored), or none.
    #[test]
    fn derived_spaces_equal_cold_builds() {
        let pkg = small_package();
        let coarse = SpaceConfig { cells_x: 3, cells_y: 3, ..cfg() };
        let mut reused = 0;
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut other = Layout::new(&pkg);
            for _ in 0..rng.gen_range(1..=4) {
                random_edit(&mut rng, &mut other);
            }
            let unrelated = RoutingSpace::build(&pkg, &other, cfg());
            let mut layout = Layout::new(&pkg);
            let mut prev = RoutingSpace::build(&pkg, &layout, cfg());
            for round in 0..6 {
                let dirty: Vec<Rect> = (0..rng.gen_range(1..=3))
                    .flat_map(|_| random_edit(&mut rng, &mut layout))
                    .collect();
                let mut patched = prev.clone();
                patched.rebuild_dirty_multi(&pkg, &layout, &dirty);
                let other_grid = RoutingSpace::build(&pkg, &layout, coarse);
                let cold = RoutingSpace::build(&pkg, &layout, cfg());
                let want = (seen(&cold), inputs(&cold));
                let memos = [
                    ("pre-edit", Some(&prev)),
                    ("patched", Some(&patched)),
                    ("unrelated", Some(&unrelated)),
                    ("other grid", Some(&other_grid)),
                    ("none", None),
                ];
                for (what, memo) in memos {
                    let (got, rebuilt) = RoutingSpace::derive(&pkg, &layout, cfg(), memo);
                    let at = format!("seed {seed} round {round} memo {what}");
                    assert_eq!((seen(&got), inputs(&got)), want, "{at}");
                    if matches!(what, "other grid" | "none") {
                        assert_eq!(rebuilt.cells.len(), 16, "{at}");
                        assert_eq!(rebuilt.layers_reused, 0, "{at}");
                    }
                    if what == "pre-edit" {
                        reused += rebuilt.layers_reused;
                    }
                }
                prev = cold;
            }
        }
        assert!(reused > 0, "no derived build reused a slot of its memo");
    }

    /// Differential check of the input memo: two twins of one space take
    /// the same random rebuilds, outside trials and inside trials that
    /// roll back or commit, and one forgets its stored inputs before every
    /// rebuild. Reusing tiles must never be observable.
    #[test]
    fn memoized_rebuilds_match_forgetful_rebuilds() {
        let pkg = small_package();
        let mut reused = 0;
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut layout = Layout::new(&pkg);
            let mut memo = RoutingSpace::build(&pkg, &layout, cfg());
            let mut plain = memo.clone();
            for round in 0..8 {
                // 0: no trial, 1: a trial rolled back, 2: a trial committed.
                let mode = rng.gen_range(0..3);
                let base = layout.clone();
                if mode > 0 {
                    memo.begin_trial();
                    plain.begin_trial();
                }
                for _ in 0..rng.gen_range(1..=3) {
                    let dirty: Vec<Rect> = (0..rng.gen_range(1..=3))
                        .flat_map(|_| random_edit(&mut rng, &mut layout))
                        .collect();
                    let got = memo.rebuild_dirty_multi(&pkg, &layout, &dirty);
                    plain.forget_inputs();
                    let want = plain.rebuild_dirty_multi(&pkg, &layout, &dirty);
                    assert_eq!(got.cells, want.cells);
                    assert_eq!(want.layers_reused, 0);
                    reused += got.layers_reused;
                    assert_eq!(seen(&memo), seen(&plain), "seed {seed} round {round} mode {mode}");
                }
                match mode {
                    1 => {
                        memo.rollback_trial();
                        plain.rollback_trial();
                        layout = base;
                    }
                    2 => {
                        memo.commit_trial();
                        plain.commit_trial();
                    }
                    _ => {}
                }
                assert_eq!(seen(&memo), seen(&plain), "seed {seed} after round {round}");
            }
        }
        assert!(reused > 0, "the memo never reused a layer-cell");
    }
}
