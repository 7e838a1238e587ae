//! The five-stage routing flow (Fig. 3), fault-isolated.
//!
//! Every stage runs under a guard ([`crate::resilience::guard_stage`]):
//! panics are caught, typed errors are recorded, and each failure degrades
//! the flow instead of aborting it —
//!
//! - preprocess / assign / concurrent failure → the pre-stage layout is
//!   restored and every net is routed sequentially;
//! - LP failure → the affected component keeps its pre-LP geometry (inside
//!   the stage), and a stage-level panic restores the whole pre-LP layout;
//! - a sequential per-net failure marks only that net unrouted.
//!
//! `route` therefore always returns a [`RouteOutcome`] whose layout passed
//! through the same DRC verification as a clean run; what happened in each
//! stage is recorded in [`FlowDiagnostics`].

use crate::assign::assign_layers;
use crate::concurrent::route_concurrent;
use crate::config::RouterConfig;
use crate::lpopt::{self, LpOptReport};
use crate::preprocess::preprocess;
use crate::resilience::{guard_stage, FlowCtx, FlowDiagnostics, Stage, StageOutcome};
use crate::sequential::{route_sequential, SequentialResult};
use crate::warm::WarmSpaceCache;
use info_model::{drc::DrcReport, stats::LayoutStats, Layout, NetId, Package};
use info_telemetry::{AttemptOutcome, AttemptRecord, Counter, Pass, Sink, TelemetryReport};
use info_tile::CancelToken;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock time spent in each stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Stage 1: preprocessing.
    pub preprocess: Duration,
    /// Stage 2: weighted-MPSC concurrent routing.
    pub concurrent: Duration,
    /// Stage 3+4: routing-graph construction and sequential A\*.
    pub sequential: Duration,
    /// Stage 5: LP-based layout optimization (all passes).
    pub lp: Duration,
    /// Aggregate A\* search statistics of the sequential stage (searches,
    /// nodes expanded, open-list peak).
    pub search: info_tile::SearchStats,
}

impl StageTimings {
    /// Total runtime.
    pub fn total(&self) -> Duration {
        self.preprocess + self.concurrent + self.sequential + self.lp
    }
}

/// How far the flow got before returning — the anytime contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Every stage ran to its natural end; the result is the router's
    /// full answer.
    Full,
    /// The flow was interrupted — cancel, job deadline, or a tripped
    /// stage budget — and returned the legal partial layout it had
    /// committed so far. Per-net detail is in [`RouteOutcome::net_status`].
    Degraded,
}

/// What happened to one net, for anytime reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetStatus {
    /// Committed into the returned layout.
    Routed,
    /// Attempted and not routable in the budget's search effort.
    Failed,
    /// Never attempted (or aborted mid-search) because the flow was
    /// interrupted — a longer budget may well route it.
    Skipped,
}

impl NetStatus {
    /// Stable lowercase label (serve-layer responses, reports).
    pub fn as_str(self) -> &'static str {
        match self {
            NetStatus::Routed => "routed",
            NetStatus::Failed => "failed",
            NetStatus::Skipped => "skipped",
        }
    }
}

/// Everything the router produced.
#[derive(Debug, Clone)]
pub struct RouteOutcome {
    /// The final layout.
    pub layout: Layout,
    /// Table-I-style statistics (DRC-verified).
    pub stats: LayoutStats,
    /// The full DRC report of the final layout.
    pub drc: DrcReport,
    /// Per-stage timings.
    pub timings: StageTimings,
    /// Nets committed by the concurrent stage.
    pub concurrent_routed: usize,
    /// Nets committed by the sequential stage.
    pub sequential_routed: usize,
    /// Nets that failed to route.
    pub failed: Vec<NetId>,
    /// Full answer or deadline-truncated partial answer.
    pub completion: Completion,
    /// True when the flow's cancel token was cancelled (explicitly or by
    /// a check trip), as opposed to a deadline-only truncation.
    pub cancelled: bool,
    /// Per-net disposition, in package net order. Only present-tense
    /// facts: a `Skipped` net is routable work an interrupted flow never
    /// got to.
    pub net_status: Vec<(NetId, NetStatus)>,
    /// LP report of the intermediate pass (after concurrent routing).
    pub lp_mid: Option<LpOptReport>,
    /// LP report of the final pass.
    pub lp_final: Option<LpOptReport>,
    /// Per-stage outcomes: what ran clean, what was recovered from, what
    /// timed out, and which injected faults fired.
    pub diagnostics: FlowDiagnostics,
    /// Telemetry collected during the run (stage spans, counters,
    /// histograms, and the per-net route journal). `None` unless
    /// [`RouterConfig::telemetry`] is set; the layout is byte-identical
    /// either way.
    pub telemetry: Option<TelemetryReport>,
    /// ECO telemetry (`Some` exactly when this outcome came from
    /// [`InfoRouter::reroute_delta`]): nets re-routed vs reused, cells
    /// invalidated, warm-space reuse.
    pub eco: Option<crate::eco::EcoStats>,
    /// Geometry of nets an ECO deleted, kept so a later
    /// [`InfoRouter::reroute_delta`] restoring the identical pad pair can
    /// re-attach the route verbatim instead of searching (empty on full
    /// routes; see [`crate::eco::EcoStash`]).
    pub eco_stash: Vec<crate::eco::EcoStash>,
}

/// The via-based multi-chip multi-layer InFO RDL router.
#[derive(Debug, Clone, Default)]
pub struct InfoRouter {
    pub(crate) cfg: RouterConfig,
    /// Shared warm-start cache for the sequential stage's routing space;
    /// `None` builds cold every run. Cloning the router shares the cache.
    pub(crate) warm: Option<Arc<WarmSpaceCache>>,
    /// Externally owned cancel token the flow observes; `None` gives each
    /// `route` call a private token nothing external can trip.
    pub(crate) cancel: Option<CancelToken>,
}

impl InfoRouter {
    /// Creates a router with the given configuration.
    pub fn new(cfg: RouterConfig) -> Self {
        InfoRouter { cfg, warm: None, cancel: None }
    }

    /// Shares `cache` across this router's runs (and its clones): repeat
    /// jobs on the same circuit skip the sequential-stage space build.
    pub fn with_warm_cache(mut self, cache: Arc<WarmSpaceCache>) -> Self {
        self.warm = Some(cache);
        self
    }

    /// Makes `route` observe `token`: cancelling it (or letting its job
    /// deadline pass) interrupts the flow mid-stage and yields a
    /// [`Completion::Degraded`] outcome with the legal partial layout.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The configuration in effect.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Routes all pre-assigned nets of a package.
    ///
    /// Stage order follows the paper (Fig. 3); per §IV the LP optimization
    /// also runs once right after concurrent routing so the shortened
    /// wires release routing resources for the sequential stage.
    ///
    /// No panic or solver failure escapes this method: each stage runs
    /// under a panic guard with rollback, and failures degrade the result
    /// (details in `diagnostics`) instead of propagating.
    pub fn route(&self, package: &Package) -> RouteOutcome {
        let ctx = match &self.cancel {
            Some(token) => FlowCtx::with_token(self.cfg.fault_plan, token.clone()),
            None => FlowCtx::new(self.cfg.fault_plan),
        };
        let budget = self.cfg.stage_budget;
        let tel = if self.cfg.telemetry { Sink::enabled() } else { Sink::disabled() };
        let mut layout = Layout::new(package);
        let mut timings = StageTimings::default();
        let mut diagnostics = FlowDiagnostics::default();
        let mut lp_mid = None;

        // --- Stage 1 + 2: any failure here degrades to all-sequential.
        let mut concurrent_done: Vec<NetId> = Vec::new();
        if self.cfg.concurrent_enabled {
            let t0 = Instant::now();
            let (pre, outcome) = guard_stage(Stage::Preprocess, &ctx, budget, || {
                preprocess(package, &self.cfg, &ctx)
            });
            diagnostics.preprocess = outcome;
            timings.preprocess = t0.elapsed();

            let t1 = Instant::now();
            if let Some(pre) = pre {
                let (asg, outcome) = guard_stage(Stage::Assign, &ctx, budget, || {
                    assign_layers(&pre, &self.cfg, package.wire_layer_count(), &ctx)
                });
                diagnostics.assign = outcome;
                if let Some(asg) = asg {
                    // The concurrent stage mutates the layout; snapshot so
                    // a mid-commit failure can be rolled back cleanly.
                    let snapshot = layout.clone();
                    let (res, outcome) = guard_stage(Stage::Concurrent, &ctx, budget, || {
                        route_concurrent(package, &mut layout, &pre, &asg, &self.cfg, &ctx)
                    });
                    diagnostics.concurrent = outcome;
                    match res {
                        Some(res) => {
                            tel.count(Counter::ConcurrentCommitted, res.routed.len() as u64);
                            tel.count(Counter::ConcurrentSkipped, res.skipped.len() as u64);
                            if tel.is_enabled() {
                                // One journal record per concurrent commit;
                                // the committed wirelength stands in for the
                                // accept cost (this stage is pattern-based,
                                // not A\*-driven).
                                for &id in &res.routed {
                                    let wl: f64 = layout
                                        .routes_of(id)
                                        .map(|r| r.path.length())
                                        .sum();
                                    tel.record(AttemptRecord {
                                        net: id.0,
                                        pass: Pass::Concurrent,
                                        searched: false,
                                        expansions: 0,
                                        outcome: AttemptOutcome::Routed { f: wl, g: wl },
                                        victims: Vec::new(),
                                    });
                                }
                            }
                            concurrent_done = res.routed;
                        }
                        None => layout = snapshot,
                    }
                }
            }
            timings.concurrent = t1.elapsed();

            // Mid-flight LP pass: shorten the concurrent wires to release
            // resources before sequential routing (§IV, first bullet of
            // the analysis).
            if self.cfg.lp_enabled && !concurrent_done.is_empty() {
                let t2 = Instant::now();
                let (rep, outcome) =
                    self.guarded_lp(Stage::LpMid, package, &mut layout, &ctx, budget, &tel);
                diagnostics.lp_mid = outcome;
                lp_mid = rep;
                timings.lp += t2.elapsed();
            }
        }

        // --- Stage 3 + 4.
        let t3 = Instant::now();
        let done: BTreeSet<NetId> = concurrent_done.iter().copied().collect();
        let remaining: Vec<NetId> =
            package.nets().iter().map(|n| n.id).filter(|id| !done.contains(id)).collect();
        let (seq, outcome) = guard_stage(Stage::Sequential, &ctx, budget, || {
            Ok(route_sequential(
                package,
                &mut layout,
                &remaining,
                &self.cfg,
                &ctx,
                self.warm.as_deref(),
                &tel,
            ))
        });
        diagnostics.sequential = outcome;
        let seq = seq.unwrap_or_else(|| {
            // A panic escaped the per-net guards (e.g. in the initial
            // space build). Per-net commits are atomic, so the layout
            // still only holds complete nets: reconstruct the result
            // from what actually landed.
            let mut s = SequentialResult::default();
            for &id in &remaining {
                if layout.routes_of(id).next().is_some() || layout.vias_of(id).next().is_some() {
                    s.routed.push(id);
                } else {
                    s.failed.push(id);
                }
            }
            s
        });
        diagnostics.net_failures = seq.recovered.clone();
        timings.sequential = t3.elapsed();
        timings.search = seq.search;

        // --- Stage 5.
        let mut lp_final = None;
        if self.cfg.lp_enabled {
            let t4 = Instant::now();
            let (rep, outcome) =
                self.guarded_lp(Stage::LpFinal, package, &mut layout, &ctx, budget, &tel);
            diagnostics.lp_final = outcome;
            lp_final = rep;
            timings.lp += t4.elapsed();
        }

        diagnostics.faults_fired = ctx.faults_fired();

        // Search-layer counters come from the stage totals.
        tel.count(Counter::Searches, seq.search.searches);
        tel.count(Counter::NodesExpanded, seq.search.nodes_expanded);

        // --- Verification.
        let t5 = Instant::now();
        let report = info_model::drc::check_with(package, &layout, &tel);
        let drc_elapsed = t5.elapsed();
        if tel.is_enabled() {
            tel.record_span("preprocess", timings.preprocess.as_secs_f64());
            tel.record_span("concurrent", timings.concurrent.as_secs_f64());
            tel.record_span("sequential", timings.sequential.as_secs_f64());
            tel.record_span("lp", timings.lp.as_secs_f64());
            tel.record_span("drc_verify", drc_elapsed.as_secs_f64());
        }
        let stats = LayoutStats::from_report(package, &layout, &report);

        // Anytime disposition: the run is degraded when any interrupt was
        // observed — a live interrupt flag, a truncated stage, or nets the
        // sequential stage recorded as skipped.
        let truncated_stage = diagnostics
            .stages()
            .iter()
            .any(|(_, o)| matches!(o, StageOutcome::TimedOut | StageOutcome::Cancelled));
        let completion = if ctx.interrupted() || truncated_stage || !seq.skipped.is_empty() {
            Completion::Degraded
        } else {
            Completion::Full
        };
        let routed: BTreeSet<NetId> =
            concurrent_done.iter().chain(seq.routed.iter()).copied().collect();
        let skipped: BTreeSet<NetId> = seq.skipped.iter().copied().collect();
        let net_status: Vec<(NetId, NetStatus)> = package
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

        RouteOutcome {
            layout,
            stats,
            drc: report,
            timings,
            concurrent_routed: concurrent_done.len(),
            sequential_routed: seq.routed.len(),
            failed: seq.failed,
            completion,
            cancelled: ctx.cancelled(),
            net_status,
            lp_mid,
            lp_final,
            diagnostics,
            telemetry: tel.report(),
            eco: None,
            eco_stash: Vec::new(),
        }
    }

    /// Re-routes the *delta* of an edited design instead of the whole
    /// die (DESIGN.md §4i).
    ///
    /// `changes` — net removals, additions, and re-pairings — is applied
    /// against `package` (the design `prior` was routed on). Untouched
    /// nets keep their prior geometry byte for byte; when some net needs
    /// a search, the edited layout's routing space is [`derive`]d,
    /// reusing every unchanged `(layer, cell)` slot of the prior's warm
    /// space; only impacted nets (fresh nets, prior failures, and nets
    /// whose segments intersect the dirty rects) go back through the
    /// sequential machinery; and the LP re-runs only on
    /// components touched by the edit. The returned outcome is expressed
    /// over the *edited* package ([`EcoChangeSet::plan`] exposes it and
    /// the net-id mapping), with [`RouteOutcome::eco`] carrying the
    /// delta telemetry.
    ///
    /// An invalid change set (unknown ids, overlapping edits, a pad used
    /// twice) is a typed [`RouterError::BadInput`]; nothing is routed.
    ///
    /// [`derive`]: info_tile::RoutingSpace::derive
    /// [`RouterError::BadInput`]: crate::resilience::RouterError::BadInput
    /// [`EcoChangeSet::plan`]: crate::eco::EcoChangeSet::plan
    pub fn reroute_delta(
        &self,
        package: &Package,
        prior: &RouteOutcome,
        changes: &crate::eco::EcoChangeSet,
    ) -> Result<RouteOutcome, crate::resilience::RouterError> {
        crate::eco::reroute_delta(self, package, prior, changes)
    }

    /// One guarded LP pass. Component-level solver failures are absorbed
    /// inside `optimize` (the component keeps its pre-LP geometry) but
    /// still surface as a recovered outcome; a stage-level panic restores
    /// the whole pre-LP layout.
    #[allow(clippy::too_many_arguments)]
    fn guarded_lp(
        &self,
        stage: Stage,
        package: &Package,
        layout: &mut Layout,
        ctx: &FlowCtx,
        budget: Option<Duration>,
        tel: &Sink,
    ) -> (Option<LpOptReport>, StageOutcome) {
        let snapshot = layout.clone();
        let (rep, outcome) = guard_stage(stage, ctx, budget, || {
            Ok(lpopt::optimize(package, layout, &self.cfg, ctx))
        });
        match rep {
            Some(rep) => {
                tel.count(Counter::LpPasses, 1);
                tel.count(Counter::LpIterations, rep.iterations as u64);
                tel.count(Counter::LpSimplexIterations, rep.simplex_iterations as u64);
                tel.count(Counter::LpReverted, rep.reverted as u64);
                let outcome = match (&outcome, rep.failures.first()) {
                    (StageOutcome::Ok, Some(e)) => StageOutcome::Recovered(e.clone()),
                    _ => outcome,
                };
                (Some(rep), outcome)
            }
            None => {
                *layout = snapshot;
                (None, outcome)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use info_geom::{Point, Rect};
    use info_model::{DesignRules, PackageBuilder};

    fn two_chip_package(nets_per_side: usize) -> Package {
        let mut b = PackageBuilder::new(
            Rect::new(Point::new(0, 0), Point::new(1_400_000, 900_000)),
            DesignRules::default(),
            2,
        );
        let c1 = b.add_chip(Rect::new(Point::new(150_000, 250_000), Point::new(500_000, 650_000)));
        let c2 = b.add_chip(Rect::new(Point::new(900_000, 250_000), Point::new(1_250_000, 650_000)));
        for i in 0..nets_per_side {
            let y = 300_000 + 70_000 * i as i64;
            let a = b.add_io_pad(c1, Point::new(480_000, y)).unwrap();
            let z = b.add_io_pad(c2, Point::new(920_000, y)).unwrap();
            b.add_net(a, z).unwrap();
        }
        // One chip-to-board net.
        let io = b.add_io_pad(c1, Point::new(480_000, 620_000)).unwrap();
        let g = b.add_bump_pad(Point::new(700_000, 120_000)).unwrap();
        b.add_net(io, g).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn full_flow_routes_everything() {
        let pkg = two_chip_package(3);
        let cfg = RouterConfig::default().with_global_cells(10);
        let out = InfoRouter::new(cfg).route(&pkg);
        assert!(
            out.stats.fully_routed(),
            "stats: {}; failed: {:?}; violations: {:#?}",
            out.stats,
            out.failed,
            out.drc.violations()
        );
        assert_eq!(out.stats.violation_count, 0);
        assert!(out.concurrent_routed + out.sequential_routed >= pkg.nets().len());
        // A clean run reports clean diagnostics.
        assert!(out.diagnostics.all_ok(), "{:?}", out.diagnostics);
    }

    #[test]
    fn flow_without_concurrent_still_routes() {
        let pkg = two_chip_package(2);
        let cfg = RouterConfig::default().with_global_cells(10).without_concurrent();
        let out = InfoRouter::new(cfg).route(&pkg);
        assert_eq!(out.concurrent_routed, 0);
        assert!(out.stats.fully_routed(), "{}; {:?}", out.stats, out.failed);
    }

    #[test]
    fn flow_without_lp_still_routes() {
        let pkg = two_chip_package(2);
        let cfg = RouterConfig::default().with_global_cells(10).without_lp();
        let out = InfoRouter::new(cfg).route(&pkg);
        assert!(out.lp_mid.is_none() && out.lp_final.is_none());
        assert!(out.stats.fully_routed(), "{}; {:?}", out.stats, out.failed);
    }

    #[test]
    fn lp_never_worsens_wirelength() {
        let pkg = two_chip_package(3);
        let with_lp = InfoRouter::new(RouterConfig::default().with_global_cells(10)).route(&pkg);
        if let Some(rep) = &with_lp.lp_final {
            assert!(rep.wirelength_after <= rep.wirelength_before + 1.0);
        }
    }

    #[test]
    fn zero_stage_budget_still_returns_an_outcome() {
        let pkg = two_chip_package(2);
        let cfg = RouterConfig::default()
            .with_global_cells(10)
            .with_stage_budget(Duration::ZERO);
        let out = InfoRouter::new(cfg).route(&pkg);
        // Everything timed out; nothing panicked, and whatever partial
        // layout remains is DRC-clean apart from the unrouted nets.
        assert!(out
            .diagnostics
            .stages()
            .iter()
            .all(|(_, o)| !matches!(o, StageOutcome::Recovered(_))));
        assert!(out
            .drc
            .violations()
            .iter()
            .all(|v| matches!(v, info_model::drc::Violation::Disconnected { .. })));
    }
}
