//! Incremental ECO re-route: route the delta, not the die (DESIGN.md §4i).
//!
//! A production routing service is dominated by small edits — a few nets
//! added, removed, or re-paired after an initial route. This module
//! applies an [`EcoChangeSet`] against a prior [`RouteOutcome`] instead
//! of re-running the five-stage flow:
//!
//! - untouched nets keep their prior geometry byte for byte;
//! - the routing space is derived ([`RoutingSpace::derive`]) from the
//!   space of the base package and prior layout, read from the shared
//!   [`WarmSpaceCache`] (so every edit against the same prior shares one
//!   build): only the `(layer, cell)` slots whose inputs the edit changed
//!   are re-partitioned, and the result equals a cold build of the
//!   edited layout (with no cache it *is* a cold build);
//! - only impacted nets are re-routed through the existing sequential
//!   machinery: the fresh nets of the edit, prior failures with a dirty
//!   rect near a terminal (the route journal shows failures die walled
//!   in at a pad, so only freed space *there* can unlock them), and
//!   any kept net whose segments intersect a dirty rect (defensive — a
//!   DRC-legal prior never has one);
//! - the LP re-runs only on components touched by the edit
//!   ([`crate::lpopt::optimize_seeded`]), each sub-LP started at the
//!   current layout exactly as in a full run.
//!
//! Net removals renumber [`NetId`]s, so the edit produces a *derived*
//! package ([`EcoPlan::package`]) — the design a full route would be
//! given — and the returned outcome is expressed over it. Routing,
//! however, runs in a universe whose ids match the prior layout: for a
//! removals-only edit that universe is the base package itself (which is
//! what keeps the derived space closest to the prior's), and geometry is
//! re-labeled into derived ids only at the very end.
//!
//! Determinism: given the same base package, prior outcome, change set,
//! and configuration, the ECO layout is byte-identical across runs — it
//! inherits the sequential stage's determinism and adds no iteration
//! order of its own (change sets are canonicalized by sorting before
//! application, which also makes application insensitive to the order
//! edits were recorded in).
//!
//! [`WarmSpaceCache`]: crate::warm::WarmSpaceCache
//! [`RoutingSpace::derive`]: info_tile::RoutingSpace::derive

use crate::flow::{Completion, InfoRouter, NetStatus, RouteOutcome, StageTimings};
use crate::lpopt;
use crate::resilience::{FlowCtx, FlowDiagnostics, RouterError};
use crate::sequential::{
    net_geometry_rects, route_sequential_in_space, space_config, SequentialResult,
};
use crate::trial::{clearance_ok, Proposal};
use info_geom::{Coord, GridIndex, Point, Polyline, Rect, Segment};
use info_model::{drc, stats::LayoutStats, Layout, NetId, Package, PadId, WireLayer};
use info_telemetry::Sink;
use info_tile::RoutingSpace;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One batch of netlist edits against a routed base design.
///
/// Edits are recorded in any order; application canonicalizes by sorting,
/// so two change sets holding the same edits are interchangeable. A
/// change set is *invalid* — [`EcoChangeSet::plan`] returns a typed
/// [`RouterError::BadInput`] — when it references unknown net or pad
/// ids, edits the same net twice (e.g. removing a net that is also
/// re-paired), or leaves a pad terminating two nets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EcoChangeSet {
    removals: Vec<NetId>,
    additions: Vec<(PadId, PadId)>,
    re_pairs: Vec<(NetId, PadId, PadId)>,
}

impl EcoChangeSet {
    /// An empty change set (applying it reproduces the prior layout).
    pub fn new() -> Self {
        EcoChangeSet::default()
    }

    /// Schedules the removal of a base net.
    pub fn remove_net(mut self, id: NetId) -> Self {
        self.removals.push(id);
        self
    }

    /// Schedules a new net between two base pads.
    pub fn add_net(mut self, a: PadId, b: PadId) -> Self {
        self.additions.push((a, b));
        self
    }

    /// Schedules re-pairing a base net onto a new pad pair (its old
    /// geometry is dropped and the net is routed fresh).
    pub fn re_pair(mut self, id: NetId, a: PadId, b: PadId) -> Self {
        self.re_pairs.push((id, a, b));
        self
    }

    /// True when no edit is recorded.
    pub fn is_empty(&self) -> bool {
        self.removals.is_empty() && self.additions.is_empty() && self.re_pairs.is_empty()
    }

    /// Scheduled removals (unsorted, as recorded).
    pub fn removals(&self) -> &[NetId] {
        &self.removals
    }

    /// Scheduled additions (unsorted, as recorded).
    pub fn additions(&self) -> &[(PadId, PadId)] {
        &self.additions
    }

    /// Scheduled re-pairings (unsorted, as recorded).
    pub fn re_pairs(&self) -> &[(NetId, PadId, PadId)] {
        &self.re_pairs
    }

    /// Validates this change set against `package` and derives the edited
    /// design: the package a full route would be given, the net-id map
    /// for kept nets, and the fresh/dead partitions the delta re-route
    /// works from.
    ///
    /// # Errors
    ///
    /// [`RouterError::BadInput`] for unknown ids, overlapping edits
    /// (same net removed and re-paired, a net edited twice, a pad pair
    /// added twice), a self-loop, a bump-to-bump pair, or a pad left
    /// terminating two nets.
    pub fn plan(&self, package: &Package) -> Result<EcoPlan, RouterError> {
        let bad = |reason: String| RouterError::BadInput { reason };
        let nets_len = package.nets().len();
        let pads_len = package.pads().len();
        let check_pad = |p: PadId| -> Result<(), RouterError> {
            if p.index() >= pads_len {
                return Err(bad(format!("eco: unknown pad {p:?}")));
            }
            Ok(())
        };

        // Canonical order: application must not depend on recording order.
        let mut removals = self.removals.clone();
        removals.sort_unstable();
        let mut re_pairs = self.re_pairs.clone();
        re_pairs.sort_unstable_by_key(|&(n, _, _)| n);
        let mut additions = self.additions.clone();
        additions.sort_unstable();

        if removals.windows(2).any(|w| w[0] == w[1]) {
            return Err(bad("eco: a net is removed twice".into()));
        }
        if re_pairs.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(bad("eco: a net is re-paired twice".into()));
        }
        if additions.windows(2).any(|w| w[0] == w[1]) {
            return Err(bad("eco: a pad pair is added twice".into()));
        }
        for &id in &removals {
            if id.index() >= nets_len {
                return Err(bad(format!("eco: unknown net {id:?} in removal")));
            }
        }
        let removed: BTreeSet<NetId> = removals.iter().copied().collect();
        for &(id, a, b) in &re_pairs {
            if id.index() >= nets_len {
                return Err(bad(format!("eco: unknown net {id:?} in re-pair")));
            }
            if removed.contains(&id) {
                return Err(bad(format!(
                    "eco: net {id:?} is both removed and re-paired"
                )));
            }
            check_pad(a)?;
            check_pad(b)?;
        }
        for &(a, b) in &additions {
            check_pad(a)?;
            check_pad(b)?;
        }

        // Final net list of the edited design: kept nets in base order
        // (re-pairs substituted in place), additions appended. Each entry
        // remembers where it came from.
        let re_pair_of: BTreeMap<NetId, (PadId, PadId)> =
            re_pairs.iter().map(|&(n, a, b)| (n, (a, b))).collect();
        let mut pairs: Vec<(PadId, PadId)> = Vec::new();
        let mut net_map: BTreeMap<NetId, NetId> = BTreeMap::new();
        let mut fresh: Vec<NetId> = Vec::new();
        for n in package.nets() {
            if removed.contains(&n.id) {
                continue;
            }
            let derived = NetId::from_index(pairs.len());
            net_map.insert(n.id, derived);
            match re_pair_of.get(&n.id) {
                Some(&(a, b)) => {
                    pairs.push((a, b));
                    fresh.push(derived);
                }
                None => pairs.push((n.a, n.b)),
            }
        }
        for &(a, b) in &additions {
            fresh.push(NetId::from_index(pairs.len()));
            pairs.push((a, b));
        }

        // Pad-disjointness and pair validity, with typed reasons (the
        // builder would also reject, but less helpfully).
        let mut used: BTreeMap<PadId, usize> = BTreeMap::new();
        for &(a, b) in &pairs {
            if a == b {
                return Err(bad(format!("eco: self-loop on pad {a:?}")));
            }
            if !package.pad(a).is_io() && !package.pad(b).is_io() {
                return Err(bad(format!("eco: pair {a:?}-{b:?} connects two bump pads")));
            }
            for p in [a, b] {
                *used.entry(p).or_insert(0) += 1;
                if used[&p] > 1 {
                    return Err(bad(format!("eco: pad {p:?} would terminate two nets")));
                }
            }
        }

        // Fixed vias survive on kept nets whose pairing is unchanged; a
        // re-paired net's pre-assigned stack refers to geometry that no
        // longer makes sense for the new pair.
        let pre_vias: Vec<(
            NetId,
            info_geom::Point,
            info_model::WireLayer,
            info_model::WireLayer,
        )> = package
            .pre_vias()
            .iter()
            .filter(|pv| !re_pair_of.contains_key(&pv.net))
            .filter_map(|pv| {
                net_map
                    .get(&pv.net)
                    .map(|&d| (d, pv.center, pv.top, pv.bottom))
            })
            .collect();

        let derived = rebuild_package(package, &pairs, &pre_vias)?;
        let mut dead: Vec<NetId> = removals;
        dead.extend(re_pairs.iter().map(|&(n, _, _)| n));
        dead.sort_unstable();
        Ok(EcoPlan {
            package: derived,
            net_map,
            fresh,
            dead,
            union_is_base: self.additions.is_empty() && self.re_pairs.is_empty(),
        })
    }
}

/// A validated change set applied to a base design (see
/// [`EcoChangeSet::plan`]).
#[derive(Debug, Clone)]
pub struct EcoPlan {
    /// The edited design — what a from-scratch route would be given, and
    /// the package the ECO outcome is expressed over.
    pub package: Package,
    /// Kept nets: base id → id in [`EcoPlan::package`].
    pub net_map: BTreeMap<NetId, NetId>,
    /// Ids (in [`EcoPlan::package`]) that must be routed fresh:
    /// additions plus re-paired nets.
    pub fresh: Vec<NetId>,
    /// Base ids whose prior geometry the edit drops (removals and
    /// re-pairs), in ascending order.
    pub dead: Vec<NetId>,
    /// Removals-only edits route in the base package itself, so the
    /// prior's net ids (and blocker tags) carry over unchanged.
    pub(crate) union_is_base: bool,
}

/// Telemetry of one delta re-route (carried on [`RouteOutcome::eco`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EcoStats {
    /// Nets removed by the change set.
    pub nets_removed: usize,
    /// Nets added by the change set.
    pub nets_added: usize,
    /// Nets re-paired by the change set.
    pub nets_re_paired: usize,
    /// Nets the delta actually re-routed (fresh + impacted + retried
    /// prior failures), including stash replays.
    pub nets_rerouted: usize,
    /// Fresh nets re-attached verbatim from a prior ECO's deletion stash
    /// instead of searched (subset of `nets_rerouted`).
    pub nets_replayed: usize,
    /// Kept nets whose prior geometry was reused untouched.
    pub nets_reused: usize,
    /// Dirty rects the edit produced (per-segment, not hulls).
    pub dirty_rects: usize,
    /// Global cells the derived space build re-partitioned (at least one
    /// layer): every cell without a warm cache, 0 when nothing needed a
    /// search and no space was built.
    pub cells_invalidated: usize,
    /// True when the prior's space, the memo of the derived build, came
    /// out of the shared warm cache instead of a cold build.
    pub space_warm_hit: bool,
    /// Nets seeding the dirty LP pass (0 = LP skipped entirely).
    pub lp_dirty_nets: usize,
    /// LP components skipped as disjoint from the dirty seed.
    pub lp_components_skipped: usize,
    /// True when the touched-component LP pass ran and its safety net
    /// threw the solved layout away ([`LpOptReport::reverted`]), so the
    /// ECO kept its pre-LP geometry.
    ///
    /// [`LpOptReport::reverted`]: crate::lpopt::LpOptReport::reverted
    pub lp_reverted: bool,
}

/// The committed geometry of a net an ECO deleted, carried on the ECO's
/// outcome so a later ECO that re-adds the identical pad pair can
/// re-attach it verbatim instead of searching.
///
/// Threading the *last* net through an otherwise-complete dense layout
/// is the one case tile-graph search can lose — a from-layout space
/// rebuild need not regenerate via sites at the old flexible positions,
/// so the thin freed corridor may not exist in the graph even though the
/// geometry fits — and a delete→restore round trip is exactly that case.
/// Replay closes it: entries are validated against the current layout
/// before re-attachment (crossing check + clearance trial, the same
/// gates a searched plan passes) and fall back to ordinary search when
/// stale, so a stash can never make a layout less legal.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoStash {
    /// The dead net's pad pair (pad ids survive net edits).
    pads: (PadId, PadId),
    /// Its planar routes `(layer, centerline)`.
    routes: Vec<(WireLayer, Polyline)>,
    /// Its vias `(center, width, top, bottom)`.
    vias: Vec<(Point, Coord, WireLayer, WireLayer)>,
}

/// Derives the edited design from `base` with `pairs` as the net list
/// and `pre_vias` re-attached. [`Package::with_nets`] shares the
/// validated floorplan (pads never move under a net edit), so this skips
/// the pad re-validation of an unchanged floorplan and re-checks only
/// the net-level constraints.
fn rebuild_package(
    base: &Package,
    pairs: &[(PadId, PadId)],
    pre_vias: &[(
        NetId,
        info_geom::Point,
        info_model::WireLayer,
        info_model::WireLayer,
    )],
) -> Result<Package, RouterError> {
    base.with_nets(pairs, pre_vias)
        .map_err(|e| RouterError::BadInput {
            reason: format!("eco: edited package: {e}"),
        })
}

/// Cheap per-net geometry fingerprint — used to detect which kept nets
/// the sequential machinery actually moved (rip-up victims included), so
/// the LP's dirty seed covers them.
fn fingerprint(layout: &Layout, n: NetId) -> (usize, usize, u64) {
    (
        layout.routes_of(n).count(),
        layout.vias_of(n).count(),
        layout.net_wirelength(n).to_bits(),
    )
}

/// Exact segment-vs-rect intersection (endpoints inside, or the segment
/// crosses an edge) — bounding boxes of 45° segments overlap freely
/// without the geometry touching, so the impacted-net test cannot use
/// rect-vs-rect.
fn seg_hits_rect(s: Segment, r: Rect) -> bool {
    r.contains(s.a) || r.contains(s.b) || r.edges().iter().any(|e| e.touches(s))
}

/// The dead nets' committed shapes, exact and layer-tagged: wire segments
/// per layer, via footprints per layer span.
struct DeadGeometry {
    segs: Vec<(WireLayer, Segment)>,
    vias: Vec<(WireLayer, WireLayer, Rect)>,
}

impl DeadGeometry {
    fn collect(layout: &Layout, dead: &[NetId]) -> Self {
        let mut segs = Vec::new();
        let mut vias = Vec::new();
        for &d in dead {
            for r in layout.routes_of(d) {
                for s in r.path.segments() {
                    segs.push((r.layer, s));
                }
            }
            for v in layout.vias_of(d) {
                let (lo, hi) = if v.bottom.0 <= v.top.0 {
                    (v.bottom, v.top)
                } else {
                    (v.top, v.bottom)
                };
                vias.push((lo, hi, Rect::centered_square(v.center, v.width / 2)));
            }
        }
        DeadGeometry { segs, vias }
    }

    /// True when `n`'s committed geometry *truly* touches dead geometry on
    /// a shared layer. On a DRC-legal prior this never fires for a
    /// removal (kept nets sit at least a clearance away); it is the
    /// defensive path for priors carrying violations.
    fn touches_net(&self, layout: &Layout, n: NetId) -> bool {
        for r in layout.routes_of(n) {
            for s in r.path.segments() {
                if self.segs.iter().any(|&(l, d)| l == r.layer && s.touches(d)) {
                    return true;
                }
                if self.vias.iter().any(|&(lo, hi, vr)| {
                    lo.0 <= r.layer.0 && r.layer.0 <= hi.0 && seg_hits_rect(s, vr)
                }) {
                    return true;
                }
            }
        }
        for v in layout.vias_of(n) {
            let vr = Rect::centered_square(v.center, v.width / 2);
            let (vlo, vhi) = if v.bottom.0 <= v.top.0 {
                (v.bottom, v.top)
            } else {
                (v.top, v.bottom)
            };
            if self
                .segs
                .iter()
                .any(|&(l, d)| vlo.0 <= l.0 && l.0 <= vhi.0 && seg_hits_rect(d, vr))
            {
                return true;
            }
            if self
                .vias
                .iter()
                .any(|&(lo, hi, dr)| lo.0 <= vhi.0 && vlo.0 <= hi.0 && dr.intersects(vr))
            {
                return true;
            }
        }
        false
    }
}

/// The implementation behind [`InfoRouter::reroute_delta`].
pub(crate) fn reroute_delta(
    router: &InfoRouter,
    package: &Package,
    prior: &RouteOutcome,
    changes: &EcoChangeSet,
) -> Result<RouteOutcome, RouterError> {
    let plan = changes.plan(package)?;
    let cfg = router.config();

    // Empty change set: the answer is the prior outcome, byte for byte —
    // nothing re-routed, nothing rebuilt.
    if changes.is_empty() {
        let mut out = prior.clone();
        out.concurrent_routed = 0;
        out.sequential_routed = 0;
        out.timings = StageTimings::default();
        out.completion = Completion::Full;
        out.cancelled = false;
        out.lp_mid = None;
        out.lp_final = None;
        out.diagnostics = FlowDiagnostics::default();
        out.telemetry = None;
        out.eco = Some(EcoStats {
            nets_reused: package.nets().len(),
            ..EcoStats::default()
        });
        return Ok(out);
    }

    let tel = if cfg.telemetry {
        Sink::enabled()
    } else {
        Sink::disabled()
    };
    let ctx = match &router.cancel {
        Some(token) => FlowCtx::with_token(cfg.fault_plan, token.clone()),
        None => FlowCtx::new(cfg.fault_plan),
    };

    // Routing universe: ids that match the prior layout. Removals-only
    // edits route in the base package; anything else routes directly in
    // the derived package with prior geometry re-labeled through net_map.
    let uni: &Package = if plan.union_is_base {
        package
    } else {
        &plan.package
    };
    let keep: BTreeMap<NetId, NetId> = if plan.union_is_base {
        plan.net_map.keys().map(|&k| (k, k)).collect()
    } else {
        plan.net_map.clone()
    };

    // Dirty rects: the dead nets' prior geometry, per segment. The same
    // walk stashes that geometry (keyed by the dead net's pad pair) so a
    // later ECO restoring the pair can re-attach it without a search.
    let mut dirty: Vec<Rect> = Vec::new();
    let mut stash_new: Vec<EcoStash> = Vec::new();
    for &d in &plan.dead {
        net_geometry_rects(&prior.layout, d, &mut dirty);
        let n = package.net(d);
        let routes: Vec<(WireLayer, Polyline)> = prior
            .layout
            .routes_of(d)
            .map(|r| (r.layer, r.path.clone()))
            .collect();
        // A dead net the prior never routed has nothing worth replaying —
        // an empty entry must not exist, or a later restore would
        // "re-attach" nothing and declare the net routed.
        if routes.is_empty() {
            continue;
        }
        stash_new.push(EcoStash {
            pads: (n.a, n.b),
            routes,
            vias: prior
                .layout
                .vias_of(d)
                .map(|v| (v.center, v.width, v.top, v.bottom))
                .collect(),
        });
    }

    // Start layout: kept geometry only, in universe ids.
    let mut layout = Layout::new(uni);
    for r in prior.layout.routes() {
        if let Some(&u) = keep.get(&r.net) {
            layout.add_route(u, r.layer, r.path.clone());
        }
    }
    for v in prior.layout.vias() {
        if let Some(&u) = keep.get(&v.net) {
            layout.add_via(u, v.center, v.width, v.top, v.bottom, v.fixed);
        }
    }

    // Impacted nets, via the grid index: kept nets whose committed
    // segments truly intersect the dead geometry (defensive — a DRC-legal
    // prior has none), plus prior failures the edit freed terminal space
    // for. Fresh nets always route (the set is empty by construction in
    // base mode).
    let mut to_route: BTreeSet<NetId> = plan.fresh.iter().copied().collect();
    if !dirty.is_empty() {
        let dead_geom = DeadGeometry::collect(&prior.layout, &plan.dead);
        let mut index: GridIndex<NetId> =
            GridIndex::with_capacity_hint(uni.die(), layout.route_count().max(1));
        let mut rects: Vec<Rect> = Vec::new();
        for (&_old, &u) in &keep {
            rects.clear();
            net_geometry_rects(&layout, u, &mut rects);
            for r in &rects {
                index.insert(*r, u);
            }
        }
        // Bounding-box prefilter through the index, exact confirm after:
        // only a net whose shapes truly touch the dead geometry moves.
        let mut candidates: BTreeSet<NetId> = BTreeSet::new();
        for d in &dirty {
            index.for_each_in(*d, |_, rect, &net| {
                if rect.intersects(*d) {
                    candidates.insert(net);
                }
            });
        }
        for &u in &candidates {
            if dead_geom.touches_net(&layout, u) {
                to_route.insert(u);
            }
        }
        // Prior failures are retried only when the edit frees space in a
        // terminal neighborhood. The route journal shows failed nets
        // dying walled in right at a pad (the same observation rip-up's
        // victim ranking is built on), so freed space anywhere else on
        // the pad-pair span cannot unlock them — and each futile retry
        // re-runs the failure's full escalating search, which is what an
        // ECO exists to avoid.
        let retry_reach = crate::sequential::wall_reach(uni.rules());
        for (old, st) in &prior.net_status {
            if *st == NetStatus::Routed {
                continue;
            }
            let Some(&u) = keep.get(old) else { continue };
            let n = uni.net(u);
            let hot_a = Rect::new(uni.pad(n.a).center, uni.pad(n.a).center).inflate(retry_reach);
            let hot_b = Rect::new(uni.pad(n.b).center, uni.pad(n.b).center).inflate(retry_reach);
            if dirty
                .iter()
                .any(|d| d.intersects(hot_a) || d.intersects(hot_b))
            {
                to_route.insert(u);
            }
        }
    }
    // Nets in to_route must not carry stale geometry into their own
    // re-route (an impacted net would collide with itself).
    let moved: Vec<NetId> = to_route
        .iter()
        .copied()
        .filter(|&u| layout.has_geometry(u))
        .collect();
    for &u in &moved {
        net_geometry_rects(&layout, u, &mut dirty);
        layout.remove_net(u);
    }

    let t_seq = Instant::now();
    let mut stats = EcoStats {
        nets_removed: changes.removals.len(),
        nets_added: changes.additions.len(),
        nets_re_paired: changes.re_pairs.len(),
        dirty_rects: dirty.len(),
        ..EcoStats::default()
    };
    let before: BTreeMap<NetId, (usize, usize, u64)> = keep
        .values()
        .map(|&u| (u, fingerprint(&layout, u)))
        .collect();
    let mut replayed: Vec<NetId> = Vec::new();
    let mut order: Vec<NetId> = Vec::new();
    // When nothing needs a search — the common deletion-only ECO — no
    // code path consults the routing space, so no space is fetched or
    // derived: the edit reduces to layout bookkeeping plus the final DRC
    // sweep.
    let seq = if to_route.is_empty() {
        SequentialResult::default()
    } else {
        // The space of the edited layout, derived from the prior's space
        // (see the module docs); without a warm cache, a cold build.
        let space_cfg = space_config(uni, cfg);
        let (mut space, rebuilt) = match &router.warm {
            Some(cache) => {
                let (memo, hit) = cache.shared(package, &prior.layout, cfg, &tel);
                stats.space_warm_hit = hit;
                RoutingSpace::derive(uni, &layout, space_cfg, Some(&memo))
            }
            None => RoutingSpace::derive(uni, &layout, space_cfg, None),
        };
        stats.cells_invalidated = rebuilt.cells.len();

        // Re-attach stashed geometry: a fresh net whose pad pair matches a
        // net a prior ECO deleted replays the stashed route verbatim when it
        // is still legal against the current layout (see [`EcoStash`] — the
        // from-layout space need not contain the thin freed corridor, so
        // search alone cannot guarantee a delete→restore round trip).
        if !prior.eco_stash.is_empty() {
            for &u in &plan.fresh {
                let n = uni.net(u);
                let Some(entry) = prior
                    .eco_stash
                    .iter()
                    .find(|e| e.pads == (n.a, n.b) || e.pads == (n.b, n.a))
                else {
                    continue;
                };
                if entry.routes.is_empty() {
                    continue; // nothing to re-attach: search from scratch
                }
                let proposal = Proposal {
                    routes: entry.routes.clone(),
                    vias: entry
                        .vias
                        .iter()
                        .map(|&(at, _, top, bot)| (at, top, bot))
                        .collect(),
                };
                let crosses = proposal.routes.iter().any(|(layer, pl)| {
                    layout
                        .routes_on(*layer)
                        .any(|r| r.net != u && pl.crosses(&r.path))
                });
                if crosses || !clearance_ok(uni, &layout, u, &proposal) {
                    continue; // stale stash: fall back to search
                }
                let mut rects: Vec<Rect> = Vec::new();
                for (layer, pl) in &entry.routes {
                    for s in pl.segments() {
                        rects.push(Rect::new(s.a, s.b));
                    }
                    layout.add_route(u, *layer, pl.clone());
                }
                for &(at, w, top, bot) in &entry.vias {
                    rects.push(Rect::new(at, at));
                    layout.add_via(u, at, w, top, bot, false);
                }
                space.rebuild_dirty_multi(uni, &layout, &rects);
                to_route.remove(&u);
                replayed.push(u);
            }
        }

        // Sequential delta re-route through the existing machinery.
        order = to_route.iter().copied().collect();
        route_sequential_in_space(uni, &mut layout, &order, cfg, &ctx, &mut space, &tel)
    };
    let sequential = t_seq.elapsed();
    stats.nets_replayed = replayed.len();
    stats.nets_rerouted = order.len() + replayed.len();
    stats.nets_reused = keep.len()
        - order
            .iter()
            .filter(|u| keep.values().any(|v| v == *u))
            .count();

    // LP on touched components only: everything the delta moved (fresh
    // routes, retried nets, rip-up victims) seeds the dirty set.
    let t_lp = Instant::now();
    let mut touched: BTreeSet<NetId> = order.iter().chain(replayed.iter()).copied().collect();
    for (&u, &fp) in &before {
        if fingerprint(&layout, u) != fp {
            touched.insert(u);
        }
    }
    let mut lp_final = None;
    if cfg.lp_enabled && !touched.is_empty() && !ctx.interrupted() {
        stats.lp_dirty_nets = touched.len();
        let rep = lpopt::optimize_seeded(uni, &mut layout, cfg, &ctx, Some(&touched));
        stats.lp_components_skipped = rep.components_skipped;
        stats.lp_reverted = rep.reverted;
        lp_final = Some(rep);
    }
    let lp = t_lp.elapsed();

    // Re-label into the edited package's ids and verify.
    let final_layout = if plan.union_is_base {
        let mut out = Layout::new(&plan.package);
        for r in layout.routes() {
            out.add_route(plan.net_map[&r.net], r.layer, r.path.clone());
        }
        for v in layout.vias() {
            out.add_via(
                plan.net_map[&v.net],
                v.center,
                v.width,
                v.top,
                v.bottom,
                v.fixed,
            );
        }
        out
    } else {
        layout
    };
    let report = drc::check_with(&plan.package, &final_layout, &tel);
    let out_stats = LayoutStats::from_report(&plan.package, &final_layout, &report);

    // Per-net disposition over the edited design: re-routed nets take
    // this run's result, kept nets keep their prior status.
    let derived_of = |u: NetId| -> NetId {
        if plan.union_is_base {
            plan.net_map[&u]
        } else {
            u
        }
    };
    let routed_now: BTreeSet<NetId> = seq
        .routed
        .iter()
        .chain(replayed.iter())
        .map(|&u| derived_of(u))
        .collect();
    let skipped_now: BTreeSet<NetId> = seq.skipped.iter().map(|&u| derived_of(u)).collect();
    let attempted: BTreeSet<NetId> = order
        .iter()
        .chain(replayed.iter())
        .map(|&u| derived_of(u))
        .collect();
    let prior_status: BTreeMap<NetId, NetStatus> = prior
        .net_status
        .iter()
        .filter_map(|(old, st)| plan.net_map.get(old).map(|&d| (d, *st)))
        .collect();
    let net_status: Vec<(NetId, NetStatus)> = plan
        .package
        .nets()
        .iter()
        .map(|n| {
            let s = if attempted.contains(&n.id) {
                if routed_now.contains(&n.id) {
                    NetStatus::Routed
                } else if skipped_now.contains(&n.id) {
                    NetStatus::Skipped
                } else {
                    NetStatus::Failed
                }
            } else {
                prior_status
                    .get(&n.id)
                    .copied()
                    .unwrap_or(NetStatus::Failed)
            };
            (n.id, s)
        })
        .collect();
    let failed: Vec<NetId> = net_status
        .iter()
        .filter(|(_, s)| *s == NetStatus::Failed)
        .map(|(id, _)| *id)
        .collect();
    let completion = if ctx.interrupted() || !seq.skipped.is_empty() {
        Completion::Degraded
    } else {
        Completion::Full
    };

    // Outcome stash: this edit's dead geometry plus carried-forward prior
    // entries, kept only while both pads stay free in the edited design
    // (a pair back in use can never be re-added, so its entry is inert).
    let pads_in_use: BTreeSet<PadId> = plan
        .package
        .nets()
        .iter()
        .flat_map(|n| [n.a, n.b])
        .collect();
    let eco_stash: Vec<EcoStash> = stash_new
        .into_iter()
        .chain(prior.eco_stash.iter().cloned())
        .filter(|e| !pads_in_use.contains(&e.pads.0) && !pads_in_use.contains(&e.pads.1))
        .collect();

    Ok(RouteOutcome {
        layout: final_layout,
        stats: out_stats,
        drc: report,
        timings: StageTimings {
            preprocess: std::time::Duration::ZERO,
            concurrent: std::time::Duration::ZERO,
            sequential,
            lp,
            search: seq.search,
        },
        concurrent_routed: 0,
        sequential_routed: seq.routed.len(),
        failed,
        completion,
        cancelled: ctx.cancelled(),
        net_status,
        lp_mid: None,
        lp_final,
        diagnostics: FlowDiagnostics::default(),
        telemetry: tel.report(),
        eco: Some(stats),
        eco_stash,
    })
}
