//! Stage 4 — Sequential A\*-search routing (§III-D).
//!
//! Remaining nets are routed one at a time on the multi-layer octagonal
//! tile graph. After each committed net the affected global cells are
//! re-partitioned (frames split by the new wires, via sites refreshed),
//! exactly as the paper updates its routing graph after each net.

use crate::config::RouterConfig;
use crate::resilience::{panic_message, FaultSite, FlowCtx, RouterError, Stage};
use info_geom::{x_arch_len, Coord, Rect};
use info_model::{DesignRules, Layout, NetId, Package};
use info_telemetry::{AttemptOutcome, AttemptRecord, Counter, FailureReason, Pass, Sink};
use info_tile::{astar, realize, RoutingSpace, SpaceConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Result of the sequential stage.
#[derive(Debug, Clone, Default)]
pub struct SequentialResult {
    /// Nets committed by this stage.
    pub routed: Vec<NetId>,
    /// Nets that could not be routed.
    pub failed: Vec<NetId>,
    /// Nets never attempted (or aborted mid-search) because the flow was
    /// interrupted — cancel, check trip, or deadline. Every net here also
    /// appears in `failed`; the distinction lets an anytime caller report
    /// "unattempted" separately from "tried and unroutable".
    pub skipped: Vec<NetId>,
    /// Nets that failed for internal reasons (caught panic, injected
    /// fault) rather than geometry; each such failure cost exactly that
    /// net. Every net here also appears in `failed`.
    pub recovered: Vec<(NetId, RouterError)>,
    /// Aggregate A\* statistics over every search this stage ran.
    pub search: astar::SearchStats,
}

/// Derives the tile-space configuration from the router configuration:
/// the package's defaults (via cost four via widths) on the configured
/// global-cell grid.
pub fn space_config(package: &Package, cfg: &RouterConfig) -> SpaceConfig {
    let mut sc = SpaceConfig::from_package(package);
    sc.cells_x = cfg.global_cells;
    sc.cells_y = cfg.global_cells;
    sc
}

/// Builds the stage-start routing space.
pub(crate) fn build_stage_space(
    package: &Package,
    layout: &Layout,
    cfg: &RouterConfig,
) -> RoutingSpace {
    RoutingSpace::build(package, layout, space_config(package, cfg))
}

/// Routes `nets` sequentially over the tile graph, committing into
/// `layout`. Nets are attempted shortest-first; failures get one retry
/// pass after all other nets have been placed (the space may have gained
/// via sites from rebuilds).
///
/// This stage is infallible by construction: every per-net attempt runs
/// under its own panic guard, and an internal failure (caught panic,
/// injected `astar.expand` / `tile.via_insert` fault) marks only that net
/// unrouted — recorded in `recovered` — while the rest of the stage
/// continues. A tripped stage budget (or an interrupt on the flow's
/// cancel token) leaves the remaining nets in `failed` and `skipped`.
///
/// With `warm` set, the stage-start [`RoutingSpace`] is fetched from —
/// or, on a miss, built once and installed into — the shared cache, so
/// repeat jobs on the same circuit skip the build. A cached clone is
/// bit-identical to a fresh build, so the routed layout is unaffected.
#[allow(clippy::too_many_arguments)]
pub fn route_sequential(
    package: &Package,
    layout: &mut Layout,
    nets: &[NetId],
    cfg: &RouterConfig,
    ctx: &FlowCtx,
    warm: Option<&crate::warm::WarmSpaceCache>,
    tel: &Sink,
) -> SequentialResult {
    let mut space = match warm {
        Some(cache) => cache.get_or_build(package, layout, cfg, tel),
        None => build_stage_space(package, layout, cfg),
    };
    route_sequential_in_space(package, layout, nets, cfg, ctx, &mut space, tel)
}

/// The body of [`route_sequential`], over an already-built routing
/// `space`. The ECO path ([`crate::eco`]) calls this directly with a
/// space it derived from the prior layout's cached space, so a delta
/// re-route re-partitions only the slots the edit changed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_sequential_in_space(
    package: &Package,
    layout: &mut Layout,
    nets: &[NetId],
    cfg: &RouterConfig,
    ctx: &FlowCtx,
    space: &mut RoutingSpace,
    tel: &Sink,
) -> SequentialResult {
    let mut result = SequentialResult::default();
    let mut stats = astar::SearchStats::default();
    // Nodes the failed attempt of each net expanded, for the rip-up
    // ordering below.
    let mut fail_expansions: BTreeMap<NetId, u64> = BTreeMap::new();

    // Two-pass front: each pass retries the previous pass's geometric
    // failures.
    let mut todo: Vec<NetId> = nets.to_vec();
    todo.sort_by(|&x, &y| {
        let d = |id: NetId| {
            let n = package.net(id);
            x_arch_len(package.pad(n.a).center, package.pad(n.b).center)
        };
        d(x).total_cmp(&d(y)).then(x.cmp(&y))
    });
    for pass in [Pass::First, Pass::Retry] {
        let tally = route_pass(package, layout, &mut *space, &todo, cfg, ctx, pass, &mut stats, tel);
        result.routed.extend(tally.routed);
        result.file_aborts(tally.internal, tally.skipped);
        fail_expansions.extend(tally.failed.iter().copied());
        todo = tally.failed.into_iter().map(|(id, _)| id).collect();
    }
    result.failed.extend(todo);

    // Pass 3: bounded rip-up-and-reroute. A net that failed both passes
    // is usually boxed in by an earlier commit; evicting nearby nets and
    // re-routing everything often resolves it. Nets with the highest
    // detour rate — failed-attempt expansions per unit of pad-pair
    // X-architecture distance — go first: they searched hardest relative
    // to their size, so they are the most congestion-bound and benefit
    // most from picking their victims before the layout tightens further.
    // Like the retry pass, rip-up retries geometric failures only: an
    // internal failure (caught panic, injected fault) stays failed, so it
    // costs exactly its net and every `recovered` net ends in `failed`.
    {
        let recovered: BTreeSet<NetId> = result.recovered.iter().map(|&(id, _)| id).collect();
        let (mut boxed_in, lost): (Vec<NetId>, Vec<NetId>) = std::mem::take(&mut result.failed)
            .into_iter()
            .partition(|id| !recovered.contains(id));
        result.failed = lost;
        let rate = |id: NetId| {
            let n = package.net(id);
            let d = x_arch_len(package.pad(n.a).center, package.pad(n.b).center).max(1.0);
            fail_expansions.get(&id).copied().unwrap_or(0) as f64 / d
        };
        boxed_in.sort_by(|&x, &y| rate(y).total_cmp(&rate(x)).then(x.cmp(&y)));
        for id in boxed_in {
            if ctx.interrupted() {
                // These nets *were* attempted in passes 1–2, so they stay
                // out of `skipped` — only the rip-up rescue is forgone.
                result.failed.push(id);
                continue;
            }
            reclaim_tile_slots(space, tel);
            // Snapshot around the whole eviction search: a panic anywhere
            // inside leaves mid-eviction state that must be rolled back.
            let snapshot = layout.clone();
            let rip_t0 = std::time::Instant::now();
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                ripup_and_reroute(
                    package,
                    layout,
                    &mut *space,
                    id,
                    cfg,
                    &result.routed,
                    ctx,
                    &mut stats,
                    tel,
                )
            }));
            // Wall clock of the whole trial — layout snapshots, evictions,
            // re-routes and rollbacks included — so BENCH_rdl.json can
            // attribute sequential-stage time to rip-up work.
            tel.count(Counter::RipupWallUs, rip_t0.elapsed().as_micros() as u64);
            match attempt {
                Ok(Ok(true)) => result.routed.push(id),
                Ok(Ok(false)) => result.failed.push(id),
                Ok(Err(e)) => {
                    // ripup restored the layout itself; only record.
                    result.recovered.push((id, e));
                    result.failed.push(id);
                }
                Err(payload) => {
                    // The fresh space also discards a trial the panic
                    // left open.
                    *layout = snapshot;
                    *space = build_stage_space(package, layout, cfg);
                    result.recovered.push((
                        id,
                        RouterError::Panic {
                            stage: Stage::Sequential,
                            message: panic_message(payload.as_ref()),
                        },
                    ));
                    result.failed.push(id);
                }
            }
        }
    }
    // Edge-legality cache effectiveness, sampled from the surviving space.
    // A rip-up rollback reverts the tallies to the trial's checkpoint, so
    // trial-only work is not included — the numbers describe the cache the
    // committed layout actually used.
    let (hits, misses) = space.adjacency_cache_stats();
    tel.count(Counter::LegalityCacheHits, hits);
    tel.count(Counter::LegalityCacheMisses, misses);
    record_tile_peaks(space, tel);
    result.search = stats;
    result
}

/// Compacts the space ([`RoutingSpace::compact`]) when more than half as
/// many of its tile slots are retired as are live. Every commit retires
/// the tiles of the cells it rebuilds and installs their successors under
/// fresh ids, so without this the tile arena and the search scratch grow
/// with every net ever routed rather than with the space. The stage calls
/// it between nets only, never inside a rip-up trial, so the slots peak at
/// about 1.5x the live tiles plus one attempt's growth. A compaction keeps
/// the relative order of tile ids, so routing is unchanged.
fn reclaim_tile_slots(space: &mut RoutingSpace, tel: &Sink) {
    record_tile_peaks(space, tel);
    let live = space.live_tile_count();
    if space.tile_slots() - live > live / 2 {
        space.compact();
        tel.count(Counter::TileCompactions, 1);
    }
}

/// Raises the tile-arena telemetry peaks to the space's high-water marks.
fn record_tile_peaks(space: &RoutingSpace, tel: &Sink) {
    let (slots, live) = space.tile_peaks();
    tel.peak(Counter::TileSlotsPeak, slots as u64);
    tel.peak(Counter::LiveTilesPeak, live as u64);
}

/// Everything the route journal needs about one attempt. Drafts are
/// computed where the search ran and recorded by the caller — the per-net
/// pass loop or the rip-up pass, which substitutes a victim's failure.
#[derive(Debug, Clone, Copy)]
struct AttemptDraft {
    windowed: bool,
    escalated: bool,
    expansions: u64,
    outcome: AttemptOutcome,
}

impl AttemptDraft {
    /// True when the attempt's search was aborted by the cancel token
    /// rather than finishing (an anytime caller must not treat this net
    /// as refuted).
    fn was_cancelled(self) -> bool {
        matches!(self.outcome, AttemptOutcome::Failed(FailureReason::Cancelled))
    }

    fn to_record(self, id: NetId, pass: Pass, victims: Vec<u32>) -> AttemptRecord {
        AttemptRecord {
            net: id.0,
            pass,
            windowed: self.windowed,
            escalated: self.escalated,
            expansions: self.expansions,
            outcome: self.outcome,
            victims,
        }
    }
}

/// Maps a search-layer failure onto the journal's failure taxonomy. An
/// exhausted open list after an escalation means the window failed to
/// contain the net *and* the full graph still had no path; without an
/// escalation, exhaustion is an authoritative no-path proof.
fn search_failure_reason(f: astar::SearchFailure, escalated: bool) -> FailureReason {
    match f {
        astar::SearchFailure::BlockedTerminal => FailureReason::Unreachable,
        astar::SearchFailure::Exhausted if escalated => FailureReason::WindowFenced,
        astar::SearchFailure::Exhausted => FailureReason::Unreachable,
        astar::SearchFailure::BudgetCapped { last_tile } => {
            FailureReason::Congested { tile: last_tile.0 }
        }
        astar::SearchFailure::NoViaPath { cell } => {
            FailureReason::ViaCapacity { cell: (cell.0 as u32, cell.1 as u32) }
        }
        astar::SearchFailure::Cancelled => FailureReason::Cancelled,
    }
}

/// One per-net attempt under a panic guard. On a caught panic the net's
/// (possibly partial) geometry is removed and the routing space rebuilt,
/// so the failure costs exactly this net. `Ok((_, true))` means the net
/// committed.
#[allow(clippy::too_many_arguments)]
fn guarded_route_net(
    package: &Package,
    layout: &mut Layout,
    space: &mut RoutingSpace,
    id: NetId,
    cfg: &RouterConfig,
    ctx: &FlowCtx,
    stats: &mut astar::SearchStats,
    tel: &Sink,
) -> Result<(AttemptDraft, bool), RouterError> {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        try_route_net(package, layout, space, id, cfg, ctx, false, stats, tel)
    }));
    match attempt {
        Ok(r) => r,
        Err(payload) => {
            layout.remove_net(id);
            *space = build_stage_space(package, layout, cfg);
            Err(RouterError::Panic {
                stage: Stage::Sequential,
                message: panic_message(payload.as_ref()),
            })
        }
    }
}

/// What one pass of the per-net loop produced, each list in attempt
/// order.
#[derive(Default)]
struct PassTally {
    routed: Vec<NetId>,
    /// Geometric failures, with the nodes each failed search expanded.
    failed: Vec<(NetId, u64)>,
    /// Nets never attempted, or whose search was cancelled, because the
    /// flow was interrupted.
    skipped: Vec<NetId>,
    /// Internal failures (caught panic, injected fault).
    internal: Vec<(NetId, RouterError)>,
}

impl SequentialResult {
    /// Files a pass's internal failures and interrupted nets as failed.
    fn file_aborts(&mut self, internal: Vec<(NetId, RouterError)>, skipped: Vec<NetId>) {
        for (id, e) in internal {
            self.recovered.push((id, e));
            self.failed.push(id);
        }
        for id in skipped {
            self.failed.push(id);
            self.skipped.push(id);
        }
    }
}

/// Routes `todo` one net at a time, in order, journaling each attempt
/// under `pass` — the per-net loop of passes 1 and 2. Once the flow is
/// interrupted the remaining nets are skipped; a cancelled search counts
/// as skipped too (it was aborted, not refuted).
#[allow(clippy::too_many_arguments)]
fn route_pass(
    package: &Package,
    layout: &mut Layout,
    space: &mut RoutingSpace,
    todo: &[NetId],
    cfg: &RouterConfig,
    ctx: &FlowCtx,
    pass: Pass,
    stats: &mut astar::SearchStats,
    tel: &Sink,
) -> PassTally {
    let mut t = PassTally::default();
    for &id in todo {
        if ctx.interrupted() {
            t.skipped.push(id);
            continue;
        }
        match guarded_route_net(package, layout, space, id, cfg, ctx, stats, tel) {
            Ok((draft, committed)) => {
                tel.record(draft.to_record(id, pass, Vec::new()));
                if committed {
                    t.routed.push(id);
                } else if draft.was_cancelled() {
                    t.skipped.push(id);
                } else {
                    t.failed.push((id, draft.expansions));
                }
            }
            Err(e) => t.internal.push((id, e)),
        }
        reclaim_tile_slots(space, tel);
    }
    t
}

/// Per-segment rects of a net's geometry, not its bounding hull: a long
/// route's hull can cover most of the die while the geometry only
/// touches a thin corridor of cells, and rebuild cost is per cell.
pub(crate) fn net_geometry_rects(layout: &Layout, n: NetId, out: &mut Vec<Rect>) {
    for r in layout.routes_of(n) {
        for s in r.path.segments() {
            out.push(Rect::new(s.a, s.b));
        }
    }
    for v in layout.vias_of(n) {
        out.push(Rect::new(v.center, v.center));
    }
}

/// How far from a pad the wall that starves a failed net stands: eight
/// wire pitches. The route journal shows failed nets dying walled in
/// right at a pad, so rip-up looks for victims within this reach of the
/// pad-pair box, and an ECO retries a prior failure only when its edit
/// frees space within this reach of one of the net's pads.
pub(crate) fn wall_reach(rules: &DesignRules) -> Coord {
    8 * (rules.min_spacing + rules.wire_width)
}

/// Routed nets with geometry inside `id`'s pad-pair corridor, as
/// `(net, da, db)` — the squared distance from the net's geometry to
/// pad a and to pad b — ranked nearest-to-either-terminal first (ties by
/// net id). This is the rip-up pass's victim scan; the corridor is the
/// pad-pair box inflated by [`wall_reach`].
///
/// A failed net is usually starved right at a pad (the route journal
/// shows such nets dying with a tiny reachable component), and the wall
/// around a pad is whichever routes hug *that pad* — not the nets whose
/// own pads happen to sit near the corridor's center, which is what a
/// pad-midpoint ranking rewards and why the true blocker could sort past
/// an eviction cutoff.
fn corridor_victims(
    package: &Package,
    layout: &Layout,
    id: NetId,
    routed: &[NetId],
) -> Vec<(NetId, i128, i128)> {
    let net = package.net(id);
    let (pa, pb) = (package.pad(net.a).center, package.pad(net.b).center);
    let corridor = Rect::new(pa, pb).inflate(wall_reach(package.rules()));
    let mut keyed: Vec<(NetId, i128, i128)> = routed
        .iter()
        .filter_map(|&c| {
            let mut da = i128::MAX;
            let mut db = i128::MAX;
            let mut inside = false;
            for r in layout.routes_of(c) {
                for p in r.path.points() {
                    inside |= corridor.contains(*p);
                    da = da.min(info_geom::euclid_sq(*p, pa));
                    db = db.min(info_geom::euclid_sq(*p, pb));
                }
            }
            inside.then_some((c, da, db))
        })
        .collect();
    keyed.sort_by_key(|&(n, da, db)| (da.min(db), n));
    keyed
}

/// Tries to free a path for `id` by evicting nearby routed nets: up to
/// six single victims, then the nearest pair. The failed net and every
/// evicted net must all re-route for an eviction to stick; otherwise the
/// layout **and the routing space** are restored exactly — the layout
/// from a clone, the space by rolling back its trial journal, which
/// undoes only the cells the trial rebuilt and leaves the pre-trial
/// state, revision tag included. Every attempt inside a trial tries the
/// bounded refutation sweep before its search (see [`try_route_net`]).
#[allow(clippy::too_many_arguments)]
fn ripup_and_reroute(
    package: &Package,
    layout: &mut Layout,
    space: &mut RoutingSpace,
    id: NetId,
    cfg: &RouterConfig,
    routed: &[NetId],
    ctx: &FlowCtx,
    stats: &mut astar::SearchStats,
    tel: &Sink,
) -> Result<bool, RouterError> {
    let keyed = corridor_victims(package, layout, id, routed);
    let candidates: Vec<NetId> = keyed.iter().map(|&(n, ..)| n).collect();
    // Eviction sets: up to six single victims, then terminal-aware pairs.
    // A wall around a pad can be two routes deep (the journal shows
    // single evictions enlarging the starved component without freeing
    // it), so try the two nets nearest each terminal together, and one
    // net per terminal for nets pinched at both ends.
    let mut eviction_sets: Vec<Vec<NetId>> =
        candidates.iter().take(6).map(|&v| vec![v]).collect();
    let mut by_a = keyed.clone();
    by_a.sort_by_key(|&(n, da, _)| (da, n));
    let mut by_b = keyed;
    by_b.sort_by_key(|&(n, _, db)| (db, n));
    let mut push_pair = |x: NetId, y: NetId| {
        if x != y {
            let pair = vec![x.min(y), x.max(y)];
            if !eviction_sets.contains(&pair) {
                eviction_sets.push(pair);
            }
        }
    };
    if by_a.len() >= 2 {
        push_pair(by_a[0].0, by_a[1].0);
        push_pair(by_b[0].0, by_b[1].0);
        push_pair(by_a[0].0, by_b[0].0);
    }
    for victims in eviction_sets {
        if ctx.interrupted() {
            return Ok(false);
        }
        tel.count(Counter::RipupAttempts, 1);
        let victim_ids: Vec<u32> = victims.iter().map(|v| v.0).collect();
        let snapshot = layout.clone();
        space.begin_trial();
        // Incremental rebuild over each victim's own geometry: removing a
        // net can only change cells its shapes touch, so the corridor —
        // whose cells the removals leave untouched — needs no rebuild.
        let mut touched: Vec<Rect> = Vec::new();
        for &v in &victims {
            net_geometry_rects(layout, v, &mut touched);
            layout.remove_net(v);
        }
        let rebuilt = space.rebuild_dirty_multi(package, layout, &touched);
        tel.count(Counter::CellsRebuilt, rebuilt.cells.len() as u64);
        tel.count(Counter::LayerCellsReused, rebuilt.layers_reused as u64);
        // try_route_net rebuilds the space over each commit's own bbox.
        // One journal record per eviction-set trial: the target's own
        // draft when it decides the trial, or — when the target routed
        // but a victim could not re-route — the target's draft with the
        // victim's failure substituted (that victim is why the set fell
        // through).
        let attempt: Result<(bool, AttemptDraft), RouterError> = (|| {
            let (draft, committed) =
                try_route_net(package, layout, space, id, cfg, ctx, true, stats, tel)?;
            if !committed {
                return Ok((false, draft));
            }
            for &v in &victims {
                let (vdraft, vcommitted) =
                    try_route_net(package, layout, space, v, cfg, ctx, true, stats, tel)?;
                if !vcommitted {
                    return Ok((false, AttemptDraft { outcome: vdraft.outcome, ..draft }));
                }
            }
            Ok((true, draft))
        })();
        if let Ok((stuck, draft)) = &attempt {
            tel.record(draft.to_record(id, Pass::RipUp, victim_ids));
            if *stuck {
                space.commit_trial();
                tel.count(Counter::RipupCommits, 1);
                return Ok(true);
            }
        }
        // Restore exactly: the layout by value and the space by rollback,
        // so no rebuild runs at all on the (common) failure path.
        *layout = snapshot;
        space.rollback_trial();
        tel.count(Counter::SnapshotRestores, 1);
        // An internal failure during eviction aborts the search for this
        // net (the layout is already restored); geometric failure tries
        // the next eviction set.
        attempt?;
    }
    Ok(false)
}

/// Attempts one net: A\* search, realization, turn-rule validation,
/// crossing rejection and clearance trial, then — when all pass — commits
/// the geometry and rebuilds the dirty part of the space.
///
/// `Ok((_, false))` is a geometric failure (no path / realization
/// rejected) — the normal retry path. `Err` is an internal failure
/// (injected fault); both fault checks run before any mutation, so an
/// `Err` leaves the layout untouched.
///
/// With `refute_first` (rip-up trials), [`astar::refute`] runs before the
/// search, after the `AstarExpand` fault check. A trial's outcome feeds
/// only its commit/rollback verdict, so a proven no-path fails as the
/// search would have (`unreachable`, the sweep's visit count as its
/// expansions) without sweeping the open side first. Passes 1–2 keep
/// the plain search: their failed-search expansions order the rip-up
/// pass.
#[allow(clippy::too_many_arguments)]
fn try_route_net(
    package: &Package,
    layout: &mut Layout,
    space: &mut RoutingSpace,
    id: NetId,
    cfg: &RouterConfig,
    ctx: &FlowCtx,
    refute_first: bool,
    stats: &mut astar::SearchStats,
    tel: &Sink,
) -> Result<(AttemptDraft, bool), RouterError> {
    let net = package.net(id);
    let src = (package.pad_layer(net.a), package.pad(net.a).center);
    let dst = (package.pad_layer(net.b), package.pad(net.b).center);
    ctx.check(FaultSite::AstarExpand)?;
    // An interrupted flow goes on to the search, which reports the
    // attempt cancelled rather than refuted.
    if refute_first && !ctx.interrupted() {
        if let Some(visited) = astar::refute(space, id, src, dst) {
            tel.count(Counter::RipupRefuted, 1);
            let draft = AttemptDraft {
                windowed: false,
                escalated: false,
                expansions: visited,
                outcome: AttemptOutcome::Failed(FailureReason::Unreachable),
            };
            return Ok((draft, false));
        }
    }
    let opts = astar::SearchOptions { windowed: cfg.search_window, ..Default::default() };
    let mut search = astar::SearchStats::default();
    let found =
        astar::route_cancellable(space, id, src, dst, opts, Some(ctx.token()), &mut search);
    stats.absorb(&search);
    let escalated = search.window_escalations > 0;
    let draft = move |outcome: AttemptOutcome| AttemptDraft {
        windowed: opts.windowed,
        escalated,
        expansions: search.nodes_expanded,
        outcome,
    };
    let reject = |reason: FailureReason| Ok((draft(AttemptOutcome::Failed(reason)), false));
    let found = match found {
        Ok(found) => found,
        Err(f) => return reject(search_failure_reason(f, escalated)),
    };
    let Some(real) = realize::realize(&found, src, dst) else {
        return reject(FailureReason::RealizeRejected);
    };
    // Validate the realization before committing.
    if real.routes.iter().any(|(_, pl)| pl.validate().is_err()) {
        return reject(FailureReason::RealizeRejected);
    }
    // Reject hard crossings against foreign nets (the tile path should
    // avoid them; realization corner cases can still clip a boundary).
    for (layer, pl) in &real.routes {
        for r in layout.routes_on(*layer) {
            if r.net != id && pl.crosses(&r.path) {
                return reject(FailureReason::CrossingRejected);
            }
        }
    }
    // Clearance trial: realization may stray slightly outside the tile
    // path; never commit geometry the DRC would reject.
    let proposal =
        crate::trial::Proposal { routes: real.routes.clone(), vias: real.vias.clone() };
    if !crate::trial::clearance_ok(package, layout, id, &proposal) {
        return reject(FailureReason::ClearanceRejected);
    }

    ctx.check(FaultSite::TileViaInsert)?;
    // Dirty rects per wire segment and via, not the geometry's bounding
    // hull — rebuild cost is per touched cell, and a diagonal route's
    // hull is mostly empty space.
    let mut dirty: Vec<Rect> = Vec::new();
    for (_, pl) in &real.routes {
        for s in pl.segments() {
            dirty.push(Rect::new(s.a, s.b));
        }
    }
    for (at, _, _) in &real.vias {
        dirty.push(Rect::new(*at, *at));
    }
    let routed = draft(AttemptOutcome::Routed { f: found.f_accept, g: found.g_accept });
    for (layer, pl) in real.routes {
        layout.add_route(id, layer, pl);
    }
    for (at, top, bot) in real.vias {
        layout.add_via(id, at, package.rules().via_width, top, bot, false);
    }
    let rebuilt = space.rebuild_dirty_multi(package, layout, &dirty);
    tel.count(Counter::CellsRebuilt, rebuilt.cells.len() as u64);
    tel.count(Counter::LayerCellsReused, rebuilt.layers_reused as u64);
    Ok((routed, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use info_geom::{Point, Rect};
    use info_model::{drc, DesignRules, PackageBuilder};

    fn simple_package(nets: usize) -> info_model::Package {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_000_000, 800_000)),
            DesignRules::default(),
            2,
        );
        let c = b.add_chip(Rect::new(Point::new(100_000, 100_000), Point::new(400_000, 700_000)));
        for i in 0..nets {
            let y = 150_000 + 80_000 * i as i64;
            let io = b.add_io_pad(c, Point::new(380_000, y)).unwrap();
            let g = b.add_bump_pad(Point::new(700_000, y)).unwrap();
            b.add_net(io, g).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn routes_all_simple_nets() {
        let pkg = simple_package(4);
        let cfg = RouterConfig::default().with_global_cells(8);
        let mut layout = Layout::new(&pkg);
        let nets: Vec<NetId> = pkg.nets().iter().map(|n| n.id).collect();
        let res = route_sequential(&pkg, &mut layout, &nets, &cfg, &crate::resilience::FlowCtx::default(), None, &Sink::disabled());
        assert_eq!(res.failed.len(), 0, "failed: {:?}", res.failed);
        for n in pkg.nets() {
            assert!(drc::is_connected(&pkg, &layout, n.id), "{} disconnected", n.id);
        }
        // Each net crosses from the top layer to the bottom (bump pads):
        // at least one via per net.
        assert!(layout.via_count() >= 4);
    }

    #[test]
    fn sequential_respects_existing_geometry() {
        let pkg = simple_package(2);
        let cfg = RouterConfig::default().with_global_cells(8);
        let mut layout = Layout::new(&pkg);
        // Route net 0 first, then net 1 must avoid it.
        let res0 = route_sequential(&pkg, &mut layout, &[NetId(0)], &cfg, &crate::resilience::FlowCtx::default(), None, &Sink::disabled());
        assert_eq!(res0.routed.len(), 1);
        let res1 = route_sequential(&pkg, &mut layout, &[NetId(1)], &cfg, &crate::resilience::FlowCtx::default(), None, &Sink::disabled());
        assert_eq!(res1.routed.len(), 1);
        let report = drc::check(&pkg, &layout);
        assert!(
            report
                .violations()
                .iter()
                .all(|v| !matches!(v, info_model::drc::Violation::Crossing { .. })),
            "{:?}",
            report.violations()
        );
    }

    #[test]
    fn failed_ripup_restores_untouched_geometry_exactly() {
        // One wire layer. Net 0's I/O pad is fenced in by obstacles, so it
        // can never route. Net 1 (second chip, outside the fence) routes
        // through net 0's corridor, making it an eviction candidate.
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_000_000, 800_000)),
            DesignRules::default(),
            1,
        );
        let c1 = b.add_chip(Rect::new(Point::new(100_000, 100_000), Point::new(300_000, 300_000)));
        let io0 = b.add_io_pad(c1, Point::new(200_000, 200_000)).unwrap();
        let g0 = b.add_bump_pad(Point::new(700_000, 200_000)).unwrap();
        b.add_net(io0, g0).unwrap();
        let c2 = b.add_chip(Rect::new(Point::new(450_000, 150_000), Point::new(550_000, 250_000)));
        let io1 = b.add_io_pad(c2, Point::new(500_000, 200_000)).unwrap();
        let g1 = b.add_bump_pad(Point::new(600_000, 500_000)).unwrap();
        b.add_net(io1, g1).unwrap();
        for fence in [
            Rect::new(Point::new(50_000, 50_000), Point::new(350_000, 60_000)),
            Rect::new(Point::new(50_000, 340_000), Point::new(350_000, 350_000)),
            Rect::new(Point::new(50_000, 50_000), Point::new(60_000, 350_000)),
            Rect::new(Point::new(340_000, 50_000), Point::new(350_000, 350_000)),
        ] {
            b.add_obstacle(info_model::WireLayer(0), fence).unwrap();
        }
        let pkg = b.build().unwrap();
        let cfg = RouterConfig::default().with_global_cells(10);
        let ctx = crate::resilience::FlowCtx::default();
        let mut layout = Layout::new(&pkg);
        let res =
            route_sequential(&pkg, &mut layout, &[NetId(1)], &cfg, &ctx, None, &Sink::disabled());
        assert_eq!(res.routed, vec![NetId(1)], "net 1 must route: {res:?}");

        let mut space = RoutingSpace::build(&pkg, &layout, space_config(&pkg, &cfg));
        let before = layout.canonical_hash();
        let space_before = observe(&space);
        let got = ripup_and_reroute(
            &pkg,
            &mut layout,
            &mut space,
            NetId(0),
            &cfg,
            &[NetId(1)],
            &ctx,
            &mut astar::SearchStats::default(),
            &Sink::disabled(),
        )
        .expect("no internal failure");
        assert!(!got, "fenced net cannot route even after evictions");
        assert_eq!(
            layout.canonical_hash(),
            before,
            "failed rip-up must restore every untouched net's geometry exactly"
        );
        assert!(drc::is_connected(&pkg, &layout, NetId(1)));
        assert!(
            observe(&space) == space_before,
            "failed rip-up must roll the space back exactly, revision included"
        );
    }

    /// Everything a search observes of a space: tile slots, revision,
    /// every live tile, every `(layer, cell)` tile list, every cell's via
    /// sites, and the planar neighbors of every live tile for every net.
    #[allow(clippy::type_complexity)]
    fn observe(
        space: &RoutingSpace,
    ) -> (usize, u64, Vec<(u32, String)>, Vec<Vec<u32>>, Vec<String>, Vec<String>) {
        let tiles: Vec<(u32, String)> =
            space.live_tiles().map(|(id, t)| (id.0, format!("{t:?}"))).collect();
        let (cells_x, cells_y) = (space.config().cells_x, space.config().cells_y);
        let mut cells = Vec::new();
        let mut sites = Vec::new();
        for cy in 0..cells_y {
            for cx in 0..cells_x {
                for l in 0..space.layer_count() {
                    let layer = info_model::WireLayer(l as u8);
                    cells.push(space.tiles_in_cell(layer, cx, cy).iter().map(|t| t.0).collect());
                }
                sites.push(format!("{:?}", space.via_sites(cx, cy)));
            }
        }
        let neighbors = tiles
            .iter()
            .flat_map(|&(id, _)| [NetId(0), NetId(1)].map(|net| (id, net)))
            .map(|(id, net)| format!("{:?}", space.planar_neighbors(info_tile::TileId(id), net)))
            .collect();
        (space.tile_slots(), space.revision(), tiles, cells, sites, neighbors)
    }

    /// Each `(layer, cell)`'s tiles as `(shape, blockers)`, in cell order.
    fn cell_geometry(space: &RoutingSpace) -> Vec<Vec<String>> {
        let (cells_x, cells_y) = (space.config().cells_x, space.config().cells_y);
        let mut out = Vec::new();
        for l in 0..space.layer_count() {
            for cy in 0..cells_y {
                for cx in 0..cells_x {
                    let layer = info_model::WireLayer(l as u8);
                    out.push(
                        space
                            .tiles_in_cell(layer, cx, cy)
                            .iter()
                            .map(|&id| {
                                let t = space.tile(id);
                                format!("{:?} {:?}", t.shape, t.blockers)
                            })
                            .collect(),
                    );
                }
            }
        }
        out
    }

    #[test]
    fn committed_ripup_leaves_the_space_of_a_fresh_build() {
        // Golden circuit g1 at 10 global cells: routed in net order, net 5
        // fails both passes and a rip-up frees it.
        let mut spec = info_gen::dense_spec(1);
        spec.io_pads = 12;
        spec.nets = 6;
        spec.bump_pads = 30;
        spec.seed = 7;
        let pkg = info_gen::build_dense(spec, false);
        let cfg = RouterConfig::default().with_global_cells(10);
        let ctx = crate::resilience::FlowCtx::default();
        let tel = Sink::disabled();
        let mut stats = astar::SearchStats::default();
        let nets: Vec<NetId> = pkg.nets().iter().map(|n| n.id).collect();
        let mut layout = Layout::new(&pkg);
        let mut space = build_stage_space(&pkg, &layout, &cfg);
        let mut run = |todo: &[NetId], pass: Pass| {
            route_pass(&pkg, &mut layout, &mut space, todo, &cfg, &ctx, pass, &mut stats, &tel)
        };
        let first = run(&nets, Pass::First);
        let failed: Vec<NetId> = first.failed.iter().map(|&(id, _)| id).collect();
        let retry = run(&failed, Pass::Retry);
        assert_eq!(retry.failed.iter().map(|&(id, _)| id).collect::<Vec<_>>(), vec![NetId(5)]);
        let routed: Vec<NetId> = first.routed.iter().chain(&retry.routed).copied().collect();

        let mut space = build_stage_space(&pkg, &layout, &cfg);
        let got = ripup_and_reroute(
            &pkg, &mut layout, &mut space, NetId(5), &cfg, &routed, &ctx, &mut stats, &tel,
        )
        .expect("no internal failure");
        assert!(got, "evicting a neighbor must free net 5");
        assert!(drc::is_connected(&pkg, &layout, NetId(5)));
        let fresh = build_stage_space(&pkg, &layout, &cfg);
        assert!(
            cell_geometry(&space) == cell_geometry(&fresh),
            "a committed rip-up must leave every cell as a fresh build of the final layout"
        );
    }

    /// Routes every net of `pkg` through the sequential stage and checks
    /// the tile arena at the stage's end: the stage compacts between
    /// attempts, so the slots exceed 1.5x the live tiles by at most what
    /// the last attempt installed, one commit's rebuild (the tiles of the
    /// cells it visits). Returns the compactions the stage ran.
    fn route_all_and_check_tile_slots(pkg: &Package) -> u64 {
        let cfg = RouterConfig::default();
        let tel = Sink::enabled();
        let nets: Vec<NetId> = pkg.nets().iter().map(|n| n.id).collect();
        let mut layout = Layout::new(pkg);
        let mut space = build_stage_space(pkg, &layout, &cfg);
        let ctx = crate::resilience::FlowCtx::default();
        let res = route_sequential_in_space(pkg, &mut layout, &nets, &cfg, &ctx, &mut space, &tel);
        assert!(res.failed.is_empty(), "every net routes: {res:?}");

        let sc = space.config();
        let margin = sc.clearance + sc.via_width;
        let one_rebuild = res
            .routed
            .iter()
            .map(|&n| {
                let mut rects = Vec::new();
                net_geometry_rects(&layout, n, &mut rects);
                let cells: BTreeSet<(usize, usize)> =
                    rects.iter().flat_map(|r| space.cells_touching(r.inflate(margin))).collect();
                let layers = 0..space.layer_count() as u8;
                cells
                    .iter()
                    .flat_map(|&(cx, cy)| layers.clone().map(move |l| (l, cx, cy)))
                    .map(|(l, cx, cy)| space.tiles_in_cell(info_model::WireLayer(l), cx, cy).len())
                    .sum::<usize>()
            })
            .max()
            .unwrap_or(0);
        let live = space.live_tile_count();
        assert!(
            space.tile_slots() <= live + live / 2 + one_rebuild,
            "{} slots for {live} live tiles (one rebuild installs up to {one_rebuild})",
            space.tile_slots()
        );
        let rep = tel.report().expect("enabled sink");
        let (slots_peak, live_peak) = space.tile_peaks();
        assert_eq!(rep.counter("tile_slots_peak"), slots_peak as u64);
        assert_eq!(rep.counter("live_tiles_peak"), live_peak as u64);
        rep.counter("tile_compactions")
    }

    #[test]
    fn stage_keeps_the_tile_arena_bounded() {
        // Golden circuit g1: six commits never retire enough slots to
        // compact, so the bound holds on the growth alone.
        let mut spec = info_gen::dense_spec(1);
        spec.io_pads = 12;
        spec.nets = 6;
        spec.bump_pads = 30;
        spec.seed = 7;
        route_all_and_check_tile_slots(&info_gen::build_dense(spec, false));
        // dense1's 22 nets retire enough to compact, so the bound holds
        // through the compactions.
        let compactions = route_all_and_check_tile_slots(&info_gen::dense(1));
        assert!(compactions > 0, "routing dense1 never compacted");
    }

    #[test]
    fn impossible_net_reported_failed() {
        // One wire layer; a pad fully fenced in by an obstacle ring cannot
        // escape (no via escape exists with a single layer).
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_000_000, 800_000)),
            DesignRules::default(),
            1,
        );
        let c = b.add_chip(Rect::new(Point::new(100_000, 100_000), Point::new(300_000, 300_000)));
        let io = b.add_io_pad(c, Point::new(200_000, 200_000)).unwrap();
        let io2 = b.add_io_pad(c, Point::new(150_000, 150_000)).unwrap();
        let g = b.add_bump_pad(Point::new(700_000, 400_000)).unwrap();
        let g2 = b.add_bump_pad(Point::new(700_000, 600_000)).unwrap();
        b.add_net(io, g).unwrap();
        b.add_net(io2, g2).unwrap();
        // Fence: four obstacle bars enclosing the chip area completely.
        b.add_obstacle(info_model::WireLayer(0), Rect::new(Point::new(50_000, 50_000), Point::new(350_000, 60_000))).unwrap();
        b.add_obstacle(info_model::WireLayer(0), Rect::new(Point::new(50_000, 340_000), Point::new(350_000, 350_000))).unwrap();
        b.add_obstacle(info_model::WireLayer(0), Rect::new(Point::new(50_000, 50_000), Point::new(60_000, 350_000))).unwrap();
        b.add_obstacle(info_model::WireLayer(0), Rect::new(Point::new(340_000, 50_000), Point::new(350_000, 350_000))).unwrap();
        let pkg = b.build().unwrap();
        let cfg = RouterConfig::default().with_global_cells(10);
        let mut layout = Layout::new(&pkg);
        let nets: Vec<NetId> = pkg.nets().iter().map(|n| n.id).collect();
        let res = route_sequential(&pkg, &mut layout, &nets, &cfg, &crate::resilience::FlowCtx::default(), None, &Sink::disabled());
        assert_eq!(res.failed.len(), 2, "fenced nets cannot route: {res:?}");
    }
}
