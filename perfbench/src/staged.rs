//! A full route driven stage by stage through the router's public
//! functions, with a span around each call.
//!
//! The order and the guards follow `InfoRouter::route`; the run is
//! checked by comparing `Layout::canonical_hash` with an untraced
//! `InfoRouter::route` of the same circuit. The stage-start routing space
//! is built through a private one-entry `WarmSpaceCache`, so the build
//! gets a span of its own and `route_sequential` then starts from a clone
//! of it instead of building a second time.

use crate::trace::Tracer;
use info_rdl::model::{drc, Layout, NetId, Package};
use info_rdl::router::assign::assign_layers;
use info_rdl::router::concurrent::route_concurrent;
use info_rdl::router::lpopt::{self, LpOptReport};
use info_rdl::router::preprocess::preprocess;
use info_rdl::router::resilience::guard_stage;
use info_rdl::router::sequential::route_sequential;
use info_rdl::router::{FlowCtx, Stage};
use info_rdl::telemetry::{Sink, TelemetryReport};
use info_rdl::{NetStatus, RouterConfig, SearchStats, WarmSpaceCache};
use std::collections::BTreeSet;

/// What a staged route produced.
#[derive(Debug)]
pub struct Staged {
    /// The routed layout.
    pub layout: Layout,
    /// Per-net disposition, in package net order.
    pub status: Vec<(NetId, NetStatus)>,
    /// Nets the concurrent stage committed.
    pub concurrent_committed: usize,
    /// Sequential-stage A\* totals.
    pub search: SearchStats,
    /// The mid-flight LP pass (runs only when concurrent routing
    /// committed nets).
    pub lp_mid: Option<LpOptReport>,
    /// The final LP pass.
    pub lp_final: Option<LpOptReport>,
    /// The program's own counters for this route.
    pub counters: TelemetryReport,
}

/// Routes `package` stage by stage under span `route` (request
/// `request`), one child span per stage:
///
/// 1. `preprocess`, 2. `assign`, 3. `concurrent`, 4. `lpopt.mid` (only
///    when the concurrent stage committed nets),
/// 5. `sequential`, whose child `tile.space_build` builds the stage-start
///    space and whose self time is the search itself (`route_sequential`),
/// 6. `lpopt.final`, 7. `drc`.
///
/// The stage guards (`guard_stage`) and the rollbacks after a failed
/// stage are the ones `InfoRouter::route` applies.
pub fn route_staged(
    package: &Package,
    cfg: &RouterConfig,
    tr: &mut Tracer,
    request: u64,
) -> Staged {
    let ctx = FlowCtx::new(cfg.fault_plan);
    let budget = cfg.stage_budget;
    let tel = Sink::enabled();
    let root = tr.open("route", None, request);
    let mut layout = Layout::new(package);
    let mut concurrent_done: Vec<NetId> = Vec::new();
    let mut lp_mid = None;

    if cfg.concurrent_enabled {
        let (pre, _) = tr.time("preprocess", Some(root), request, || {
            guard_stage(Stage::Preprocess, &ctx, budget, || {
                preprocess(package, cfg, &ctx)
            })
        });
        if let Some(pre) = pre {
            let (asg, _) = tr.time("assign", Some(root), request, || {
                guard_stage(Stage::Assign, &ctx, budget, || {
                    assign_layers(&pre, cfg, package.wire_layer_count(), &ctx)
                })
            });
            if let Some(asg) = asg {
                let snapshot = layout.clone();
                let (res, _) = tr.time("concurrent", Some(root), request, || {
                    guard_stage(Stage::Concurrent, &ctx, budget, || {
                        route_concurrent(package, &mut layout, &pre, &asg, cfg, &ctx)
                    })
                });
                match res {
                    Some(res) => concurrent_done = res.routed,
                    None => layout = snapshot,
                }
            }
        }
        if cfg.lp_enabled && !concurrent_done.is_empty() {
            lp_mid = tr.time("lpopt.mid", Some(root), request, || {
                guarded_lp(Stage::LpMid, package, &mut layout, cfg, &ctx)
            });
        }
    }

    let done: BTreeSet<NetId> = concurrent_done.iter().copied().collect();
    let remaining: Vec<NetId> = package
        .nets()
        .iter()
        .map(|n| n.id)
        .filter(|id| !done.contains(id))
        .collect();
    let seq_span = tr.open("sequential", Some(root), request);
    let space = WarmSpaceCache::new(1);
    tr.time("tile.space_build", Some(seq_span), request, || {
        drop(space.get_or_build(package, &layout, cfg, &tel));
    });
    let (seq, _) = guard_stage(Stage::Sequential, &ctx, budget, || {
        Ok(route_sequential(
            package,
            &mut layout,
            &remaining,
            cfg,
            &ctx,
            Some(&space),
            &tel,
        ))
    });
    tr.close(seq_span);
    let seq = seq.expect("the sequential stage guards every net and cannot fail as a whole");

    let lp_final = if cfg.lp_enabled {
        tr.time("lpopt.final", Some(root), request, || {
            guarded_lp(Stage::LpFinal, package, &mut layout, cfg, &ctx)
        })
    } else {
        None
    };
    tr.time("drc", Some(root), request, || {
        drop(drc::check(package, &layout))
    });
    tr.close(root);

    let routed: BTreeSet<NetId> = concurrent_done.iter().chain(&seq.routed).copied().collect();
    let skipped: BTreeSet<NetId> = seq.skipped.iter().copied().collect();
    let status = package
        .nets()
        .iter()
        .map(|n| {
            let s = if routed.contains(&n.id) {
                NetStatus::Routed
            } else if skipped.contains(&n.id) {
                NetStatus::Skipped
            } else {
                NetStatus::Failed
            };
            (n.id, s)
        })
        .collect();
    Staged {
        layout,
        status,
        concurrent_committed: concurrent_done.len(),
        search: seq.search,
        lp_mid,
        lp_final,
        counters: tel.report().expect("the sink is enabled"),
    }
}

/// One LP pass under its stage guard; a failed pass restores the pre-LP
/// layout, as `InfoRouter::route` does.
fn guarded_lp(
    stage: Stage,
    package: &Package,
    layout: &mut Layout,
    cfg: &RouterConfig,
    ctx: &FlowCtx,
) -> Option<LpOptReport> {
    let snapshot = layout.clone();
    let (rep, _) = guard_stage(stage, ctx, cfg.stage_budget, || {
        Ok(lpopt::optimize(package, layout, cfg, ctx))
    });
    if rep.is_none() {
        *layout = snapshot;
    }
    rep
}
