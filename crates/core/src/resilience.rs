//! Fault isolation for the five-stage flow.
//!
//! The routing flow treats partial failure as the normal case: a degenerate
//! tile, a singular LU basis, or an infeasible LP component must cost at
//! most the nets it owns, never the whole route. This module provides the
//! pieces `InfoRouter::route` uses to guarantee that:
//!
//! - [`RouterError`] — the typed error taxonomy every stage reports through;
//! - [`Stage`] / [`StageOutcome`] / [`FlowDiagnostics`] — the per-stage
//!   record of what ran clean, what was recovered, and what timed out;
//! - [`FaultPlan`] / [`FaultSite`] — a deterministic fault-injection harness
//!   threaded through the stages behind plain runtime checks (no `#[cfg]`
//!   gating), so tests can assert the no-panic contract under any single
//!   injected fault;
//! - [`FlowCtx`] — the runtime carrying the armed fault plan and the
//!   cooperative per-stage deadline.
//!
//! Stage guards in `flow.rs` wrap every stage in
//! [`std::panic::catch_unwind`]; the conversions here are what those guards
//! catch and record.

use info_lp::LpError;
use info_model::NetId;
use info_tile::CancelToken;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// The stages of the flow, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Stage 1: preprocessing (partitioning, MST, circular model).
    Preprocess,
    /// Stage 2a: weighted-MPSC layer assignment.
    Assign,
    /// Stage 2b: concurrent pattern routing.
    Concurrent,
    /// Mid-flight LP pass after concurrent routing.
    LpMid,
    /// Stages 3+4: routing-graph construction and sequential A*.
    Sequential,
    /// Stage 5: final LP-based layout optimization.
    LpFinal,
}

impl Stage {
    /// Stable lower-case name (`preprocess`, `lp_mid`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Preprocess => "preprocess",
            Stage::Assign => "assign",
            Stage::Concurrent => "concurrent",
            Stage::LpMid => "lp_mid",
            Stage::Sequential => "sequential",
            Stage::LpFinal => "lp_final",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// Everything that can go wrong inside the routing flow.
///
/// Hand-rolled (no external error crates); every variant carries enough
/// context to diagnose the failure from a [`FlowDiagnostics`] record alone.
#[derive(Debug, Clone, PartialEq)]
pub enum RouterError {
    /// Preprocessing could not produce a usable fan-out model.
    Preprocess(String),
    /// Layer assignment failed (malformed circular model, peel error).
    Assign(String),
    /// Concurrent routing aborted; its partial commits were rolled back.
    Concurrent(String),
    /// The sequential stage aborted as a whole (not a per-net failure).
    Sequential(String),
    /// One net could not be routed for an internal (non-geometric) reason.
    NetRouting {
        /// The affected net.
        net: NetId,
        /// What failed for it.
        reason: String,
    },
    /// The LP solver failed for one component; that component keeps its
    /// pre-LP geometry.
    Lp(LpError),
    /// A panic was caught by a stage guard.
    Panic {
        /// The stage whose guard caught the panic.
        stage: Stage,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A stage exceeded its configured time budget.
    Timeout {
        /// The stage that ran over budget.
        stage: Stage,
    },
    /// A fault injected through [`FaultPlan`] fired.
    FaultInjected {
        /// The site that fired.
        site: FaultSite,
    },
    /// A routing job or netlist failed validation before any routing ran
    /// (malformed JSON, bad netlist text, out-of-range field). Always a
    /// typed rejection — adversarial input must never panic the service.
    BadInput {
        /// What was wrong with the input.
        reason: String,
    },
    /// The job's cancel token tripped (explicit cancel or job deadline);
    /// whatever partial result existed at the trip is what was kept.
    Cancelled,
    /// The job server itself failed while handling a job (worker panic
    /// that survived the retry, send failure). Never caused by routing —
    /// `route()` absorbs its own failures.
    Serve(String),
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::Preprocess(m) => write!(f, "preprocess failed: {m}"),
            RouterError::Assign(m) => write!(f, "layer assignment failed: {m}"),
            RouterError::Concurrent(m) => write!(f, "concurrent routing failed: {m}"),
            RouterError::Sequential(m) => write!(f, "sequential routing failed: {m}"),
            RouterError::NetRouting { net, reason } => {
                write!(f, "net {net} failed to route: {reason}")
            }
            RouterError::Lp(e) => write!(f, "LP optimization failed: {e}"),
            RouterError::Panic { stage, message } => {
                write!(f, "panic in {stage} stage: {message}")
            }
            RouterError::Timeout { stage } => write!(f, "{stage} stage exceeded its budget"),
            RouterError::FaultInjected { site } => {
                write!(f, "injected fault fired at {}", site.as_str())
            }
            RouterError::BadInput { reason } => write!(f, "bad input: {reason}"),
            RouterError::Cancelled => write!(f, "job cancelled"),
            RouterError::Serve(m) => write!(f, "job server failed: {m}"),
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LpError> for RouterError {
    fn from(e: LpError) -> Self {
        RouterError::Lp(e)
    }
}

/// Renders a caught panic payload as text.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Per-stage outcomes
// ---------------------------------------------------------------------------

/// How one stage ended.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum StageOutcome {
    /// The stage completed normally (also used for stages that were
    /// disabled by configuration and never ran).
    #[default]
    Ok,
    /// The stage failed internally; the flow degraded gracefully and
    /// continued. The error says what was recovered from.
    Recovered(RouterError),
    /// The stage hit its cooperative deadline; partial results (if any)
    /// were kept and the flow continued.
    TimedOut,
    /// The flow's cancel token tripped while (or before) the stage ran;
    /// partial results were kept, and every later stage reports the same.
    Cancelled,
}

impl StageOutcome {
    /// True when the stage completed without recovery or timeout.
    pub fn is_ok(&self) -> bool {
        matches!(self, StageOutcome::Ok)
    }
}

/// Per-stage record of an entire `route()` call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowDiagnostics {
    /// Stage 1 outcome.
    pub preprocess: StageOutcome,
    /// Stage 2a outcome.
    pub assign: StageOutcome,
    /// Stage 2b outcome.
    pub concurrent: StageOutcome,
    /// Mid-flight LP outcome.
    pub lp_mid: StageOutcome,
    /// Stages 3+4 outcome.
    pub sequential: StageOutcome,
    /// Final LP outcome.
    pub lp_final: StageOutcome,
    /// Nets that failed for internal (caught-panic or injected) reasons,
    /// each costing exactly that net.
    pub net_failures: Vec<(NetId, RouterError)>,
    /// Fault-plan sites that actually fired, with trigger counts.
    pub faults_fired: Vec<(FaultSite, u32)>,
    /// Wall-clock time spent per stage (perf counters; identical to
    /// `RouteOutcome::timings`, surfaced here so diagnostics alone carry
    /// the full story of a run).
    pub timings: crate::flow::StageTimings,
}

impl FlowDiagnostics {
    /// All stages clean, nothing recovered, injected, or timed out.
    pub fn all_ok(&self) -> bool {
        self.stages().iter().all(|(_, o)| o.is_ok())
            && self.net_failures.is_empty()
            && self.faults_fired.is_empty()
    }

    /// The outcomes in stage order.
    pub fn stages(&self) -> [(Stage, &StageOutcome); 6] {
        [
            (Stage::Preprocess, &self.preprocess),
            (Stage::Assign, &self.assign),
            (Stage::Concurrent, &self.concurrent),
            (Stage::LpMid, &self.lp_mid),
            (Stage::Sequential, &self.sequential),
            (Stage::LpFinal, &self.lp_final),
        ]
    }

    /// Mutable access to the slot for `stage`.
    pub fn slot_mut(&mut self, stage: Stage) -> &mut StageOutcome {
        match stage {
            Stage::Preprocess => &mut self.preprocess,
            Stage::Assign => &mut self.assign,
            Stage::Concurrent => &mut self.concurrent,
            Stage::LpMid => &mut self.lp_mid,
            Stage::Sequential => &mut self.sequential,
            Stage::LpFinal => &mut self.lp_final,
        }
    }

    /// Stages that did not end [`StageOutcome::Ok`].
    pub fn degraded_stages(&self) -> Vec<(Stage, StageOutcome)> {
        self.stages()
            .iter()
            .filter(|(_, o)| !o.is_ok())
            .map(|(s, o)| (*s, (*o).clone()))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Named places in the flow where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// Inside preprocessing, right after fan-out partitioning.
    PreprocessPartition,
    /// Inside layer assignment, before peeling MPSC layers.
    AssignPeel,
    /// Inside the concurrent stage, while committing a candidate net.
    ConcurrentCommit,
    /// Inside the LP stage, at basis factorization (i.e. `Model::solve`).
    LpFactorize,
    /// Inside the sequential stage, at A* expansion for one net.
    AstarExpand,
    /// Inside the sequential stage, at via insertion / tile realization.
    TileViaInsert,
    /// In the job server, while parsing a submitted job line (before any
    /// routing work is scheduled).
    ServeParse,
    /// In a job-server worker, between accepting a job and committing
    /// its result (exercises per-job `catch_unwind` isolation + retry).
    ServeWorker,
    /// In a job-server worker, at job start: arms a deterministic
    /// mid-search cancel trip on the job's token instead of failing.
    ServeCancel,
}

impl FaultSite {
    /// Number of distinct sites.
    pub const COUNT: usize = 9;

    /// Every site, in flow order (service-layer sites last).
    pub const ALL: [FaultSite; FaultSite::COUNT] = [
        FaultSite::PreprocessPartition,
        FaultSite::AssignPeel,
        FaultSite::ConcurrentCommit,
        FaultSite::LpFactorize,
        FaultSite::AstarExpand,
        FaultSite::TileViaInsert,
        FaultSite::ServeParse,
        FaultSite::ServeWorker,
        FaultSite::ServeCancel,
    ];

    /// Stable dotted name (`lp.factorize`, `astar.expand`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::PreprocessPartition => "preprocess.partition",
            FaultSite::AssignPeel => "assign.peel",
            FaultSite::ConcurrentCommit => "concurrent.commit",
            FaultSite::LpFactorize => "lp.factorize",
            FaultSite::AstarExpand => "astar.expand",
            FaultSite::TileViaInsert => "tile.via_insert",
            FaultSite::ServeParse => "serve.parse",
            FaultSite::ServeWorker => "serve.worker",
            FaultSite::ServeCancel => "serve.cancel",
        }
    }

    /// Parses a dotted name back to a site.
    pub fn parse(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.as_str() == name)
    }

    fn index(self) -> usize {
        match self {
            FaultSite::PreprocessPartition => 0,
            FaultSite::AssignPeel => 1,
            FaultSite::ConcurrentCommit => 2,
            FaultSite::LpFactorize => 3,
            FaultSite::AstarExpand => 4,
            FaultSite::TileViaInsert => 5,
            FaultSite::ServeParse => 6,
            FaultSite::ServeWorker => 7,
            FaultSite::ServeCancel => 8,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How an injected fault manifests at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultKind {
    /// The site reports a [`RouterError::FaultInjected`] through its normal
    /// `Result` path.
    #[default]
    Error,
    /// The site panics, exercising the `catch_unwind` stage guards.
    Panic,
}

/// One armed fault: fire `fires` times at `site`, skipping the first
/// `skip` passes through the check (the deterministic trigger count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDirective {
    /// Where to fire.
    pub site: FaultSite,
    /// How to manifest.
    pub kind: FaultKind,
    /// Passes through the site to let through before firing.
    pub skip: u32,
    /// Number of consecutive passes that then fail.
    pub fires: u32,
}

/// A deterministic set of faults to inject into one `route()` call.
///
/// Stored inline (fixed capacity, `Copy`) so `RouterConfig` stays `Copy`.
/// The plan is declarative; trigger counting happens in [`FlowCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    directives: [Option<FaultDirective>; FaultSite::COUNT],
}

impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single error-kind fault at `site`, firing on the first
    /// pass.
    pub fn single(site: FaultSite) -> Self {
        FaultPlan::none().with(FaultDirective { site, kind: FaultKind::Error, skip: 0, fires: 1 })
    }

    /// A plan with a single panic-kind fault at `site`.
    pub fn single_panic(site: FaultSite) -> Self {
        FaultPlan::none().with(FaultDirective { site, kind: FaultKind::Panic, skip: 0, fires: 1 })
    }

    /// Adds a directive (at most one per site; a second directive for the
    /// same site replaces the first).
    pub fn with(mut self, d: FaultDirective) -> Self {
        self.directives[d.site.index()] = Some(d);
        self
    }

    /// The directive armed for `site`, if any.
    pub fn directive(&self, site: FaultSite) -> Option<FaultDirective> {
        self.directives[site.index()]
    }

    /// True when no directive is armed.
    pub fn is_empty(&self) -> bool {
        self.directives.iter().all(Option::is_none)
    }
}

// ---------------------------------------------------------------------------
// Flow context: armed faults + cooperative deadline
// ---------------------------------------------------------------------------

/// Runtime state threaded through the stages of one `route()` call.
///
/// Interior mutability is atomic throughout so the context stays coherent
/// across the `catch_unwind` stage guards (a panic can never poison it).
#[derive(Debug)]
pub struct FlowCtx {
    plan: FaultPlan,
    hits: [AtomicU32; FaultSite::COUNT],
    fired: [AtomicU32; FaultSite::COUNT],
    /// The shared stop flag: stage deadline (re-armed per stage), job
    /// deadline, and explicit cancel all live here, so the innermost A\*
    /// loop observes the same state as the stage guards.
    cancel: CancelToken,
}

impl Default for FlowCtx {
    fn default() -> Self {
        FlowCtx::new(FaultPlan::none())
    }
}

impl FlowCtx {
    /// A context with `plan` armed, a fresh cancel token, and no deadline.
    pub fn new(plan: FaultPlan) -> Self {
        FlowCtx::with_token(plan, CancelToken::new())
    }

    /// A context observing an externally owned [`CancelToken`] — how a
    /// job server threads its per-job cancel/deadline into the flow.
    pub fn with_token(plan: FaultPlan, cancel: CancelToken) -> Self {
        FlowCtx { plan, hits: Default::default(), fired: Default::default(), cancel }
    }

    /// The cancel token this context observes (share it to cancel the
    /// flow from another thread, or pass it into cancellable searches).
    pub fn token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Arms the cooperative deadline for the next stage; `None` clears it.
    /// The job-level deadline on the token (if any) is untouched.
    pub fn begin_stage(&self, budget: Option<Duration>) {
        self.cancel.arm_stage_deadline(budget);
    }

    /// True once the current stage's deadline — or the token's job-level
    /// deadline — has passed.
    ///
    /// Stages call this between units of work (per net, per candidate, per
    /// LP iteration) and stop early when it trips — the cooperative half of
    /// the stage time budget.
    pub fn deadline_exceeded(&self) -> bool {
        self.cancel.deadline_exceeded()
    }

    /// True once the flow was explicitly cancelled (or a deterministic
    /// check trip fired).
    pub fn cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// True when the flow should stop for any reason — deadline (stage or
    /// job) or cancellation. The per-unit-of-work stop check every stage
    /// loop uses.
    pub fn interrupted(&self) -> bool {
        self.cancel.should_stop()
    }

    /// Fault-injection check for `site`.
    ///
    /// Counts the pass and, when an armed directive's window covers it,
    /// manifests the fault: returns [`RouterError::FaultInjected`] for
    /// [`FaultKind::Error`] directives, panics for [`FaultKind::Panic`]
    /// ones (the stage guards convert that panic into a recovered outcome).
    pub fn check(&self, site: FaultSite) -> Result<(), RouterError> {
        let Some(d) = self.plan.directive(site) else {
            return Ok(());
        };
        let n = self.hits[site.index()].fetch_add(1, Ordering::Relaxed);
        if n >= d.skip && n - d.skip < d.fires {
            self.fired[site.index()].fetch_add(1, Ordering::Relaxed);
            match d.kind {
                FaultKind::Error => return Err(RouterError::FaultInjected { site }),
                FaultKind::Panic => panic!("injected fault at {}", site.as_str()),
            }
        }
        Ok(())
    }

    /// Sites that fired so far, with counts.
    pub fn faults_fired(&self) -> Vec<(FaultSite, u32)> {
        FaultSite::ALL
            .into_iter()
            .filter_map(|s| {
                let n = self.fired[s.index()].load(Ordering::Relaxed);
                (n > 0).then_some((s, n))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Stage guard
// ---------------------------------------------------------------------------

/// Runs one stage under a panic guard and the context's deadline.
///
/// Returns the stage's value (if it produced one) and the outcome to
/// record. On panic or error the caller is responsible for restoring any
/// state the stage may have half-mutated (flow snapshots the layout around
/// mutating stages).
pub fn guard_stage<T>(
    stage: Stage,
    ctx: &FlowCtx,
    budget: Option<Duration>,
    f: impl FnOnce() -> Result<T, RouterError>,
) -> (Option<T>, StageOutcome) {
    ctx.begin_stage(budget);
    let result = catch_unwind(AssertUnwindSafe(f));
    // Cancellation outranks a deadline: a cancelled flow often also blows
    // its stage budget, and the caller cares that it was *asked* to stop.
    let cancelled = ctx.cancelled();
    let timed_out = ctx.deadline_exceeded();
    ctx.begin_stage(None);
    match result {
        Ok(Ok(v)) if cancelled => (Some(v), StageOutcome::Cancelled),
        Ok(Ok(v)) if timed_out => (Some(v), StageOutcome::TimedOut),
        Ok(Ok(v)) => (Some(v), StageOutcome::Ok),
        Ok(Err(e)) => (None, StageOutcome::Recovered(e)),
        Err(payload) => (
            None,
            StageOutcome::Recovered(RouterError::Panic {
                stage,
                message: panic_message(payload.as_ref()),
            }),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_round_trip() {
        for s in FaultSite::ALL {
            assert_eq!(FaultSite::parse(s.as_str()), Some(s));
        }
        assert_eq!(FaultSite::parse("no.such.site"), None);
    }

    #[test]
    fn fault_window_counts_deterministically() {
        let plan = FaultPlan::none().with(FaultDirective {
            site: FaultSite::LpFactorize,
            kind: FaultKind::Error,
            skip: 2,
            fires: 2,
        });
        let ctx = FlowCtx::new(plan);
        assert!(ctx.check(FaultSite::LpFactorize).is_ok()); // pass 0
        assert!(ctx.check(FaultSite::LpFactorize).is_ok()); // pass 1
        assert!(ctx.check(FaultSite::LpFactorize).is_err()); // pass 2 fires
        assert!(ctx.check(FaultSite::LpFactorize).is_err()); // pass 3 fires
        assert!(ctx.check(FaultSite::LpFactorize).is_ok()); // window over
        // Unarmed sites never fire.
        assert!(ctx.check(FaultSite::AstarExpand).is_ok());
        assert_eq!(ctx.faults_fired(), vec![(FaultSite::LpFactorize, 2)]);
    }

    #[test]
    fn guard_catches_panics() {
        let ctx = FlowCtx::default();
        let (v, outcome) = guard_stage::<()>(Stage::Sequential, &ctx, None, || {
            panic!("boom {}", 42)
        });
        assert!(v.is_none());
        match outcome {
            StageOutcome::Recovered(RouterError::Panic { stage, message }) => {
                assert_eq!(stage, Stage::Sequential);
                assert_eq!(message, "boom 42");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn guard_passes_values_and_errors() {
        let ctx = FlowCtx::default();
        let (v, outcome) = guard_stage(Stage::Assign, &ctx, None, || Ok(7));
        assert_eq!(v, Some(7));
        assert!(outcome.is_ok());
        let (v, outcome) = guard_stage::<()>(Stage::Assign, &ctx, None, || {
            Err(RouterError::Assign("bad circle".into()))
        });
        assert!(v.is_none());
        assert_eq!(
            outcome,
            StageOutcome::Recovered(RouterError::Assign("bad circle".into()))
        );
    }

    #[test]
    fn deadline_trips_and_clears() {
        let ctx = FlowCtx::default();
        assert!(!ctx.deadline_exceeded());
        ctx.begin_stage(Some(Duration::ZERO));
        assert!(ctx.deadline_exceeded());
        ctx.begin_stage(None);
        assert!(!ctx.deadline_exceeded());
        ctx.begin_stage(Some(Duration::from_secs(3600)));
        assert!(!ctx.deadline_exceeded());
    }

    #[test]
    fn guard_marks_timeout_but_keeps_value() {
        let ctx = FlowCtx::default();
        let (v, outcome) =
            guard_stage(Stage::Concurrent, &ctx, Some(Duration::ZERO), || Ok("partial"));
        assert_eq!(v, Some("partial"));
        assert_eq!(outcome, StageOutcome::TimedOut);
    }
}
