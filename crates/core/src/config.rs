//! Router configuration.

use crate::resilience::FaultPlan;
use info_geom::Coord;
use std::time::Duration;

/// Tuning parameters of the five-stage flow.
///
/// Defaults reproduce the paper's experimental setup (§IV): chord-weight
/// parameters `α, β, γ, δ = 0.1, 1, 1, 2` and a 30 × 30 global-cell grid.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Weight of the detour rate in Eq. (2).
    pub alpha: f64,
    /// Weight of the maximum overflow term in Eq. (2).
    pub beta: f64,
    /// Weight of the average overflow term in Eq. (2).
    pub gamma: f64,
    /// Logarithm base / additive constant in Eq. (2).
    pub delta: f64,
    /// Global cells along each axis (the paper uses 30 × 30 = 900).
    pub global_cells: usize,
    /// Run stage 2 (weighted-MPSC concurrent routing). Disabling it routes
    /// every net sequentially (ablation A1/A3 support).
    pub concurrent_enabled: bool,
    /// Use the congestion/detour weights in layer assignment; when false,
    /// plain (unweighted) Supowit MPSC is used (ablation A1).
    pub weighted_mpsc: bool,
    /// Run stage 5 (LP-based layout optimization).
    pub lp_enabled: bool,
    /// Cap on LP crossing-repair iterations (the paper bounds them by the
    /// variable count; 0 means "use the theoretical bound").
    pub lp_max_iterations: usize,
    /// Pads closer than this to their chip boundary count as peripheral
    /// I/O, in multiples of the pad pitch heuristic (nm).
    pub peripheral_margin: Coord,
    /// Extra cost per via in A\*, as a multiple of the via width.
    pub via_cost_factor: f64,
    /// Ignored: the router runs every job on the caller's thread. Kept,
    /// with [`RouterConfig::with_threads`], only because the benchmark
    /// crate still sets it; both go with the benchmark's next revision.
    pub threads: usize,
    /// Windowed A\*: each sequential-stage search first explores an
    /// inflated bounding box of its pad pair and escalates to the full
    /// tile graph only when the windowed result is not provably identical
    /// (see `info_tile::astar`). Lossless either way; `false` forces every
    /// search onto the full graph (differential-testing baseline).
    pub search_window: bool,
    /// Per-stage wall-clock budget. Stages check it cooperatively (per
    /// net, per candidate, per LP iteration) and stop early with partial
    /// results when it trips; `None` disables the budget.
    pub stage_budget: Option<Duration>,
    /// Deterministic fault-injection plan (testing aid; the default plan
    /// injects nothing and the checks are branch-predictable no-ops).
    pub fault_plan: FaultPlan,
    /// Collect routing telemetry (stage spans, counters, histograms, and
    /// the per-net route journal) into [`RouteOutcome::telemetry`]. Off by
    /// default: the disabled sink is a no-op and the routed layout is
    /// byte-identical either way.
    ///
    /// [`RouteOutcome::telemetry`]: crate::flow::RouteOutcome::telemetry
    pub telemetry: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            alpha: 0.1,
            beta: 1.0,
            gamma: 1.0,
            delta: 2.0,
            global_cells: 30,
            concurrent_enabled: true,
            weighted_mpsc: true,
            lp_enabled: true,
            lp_max_iterations: 50,
            peripheral_margin: 40_000,
            via_cost_factor: 4.0,
            threads: 1,
            search_window: true,
            stage_budget: None,
            fault_plan: FaultPlan::none(),
            telemetry: false,
        }
    }
}

impl RouterConfig {
    /// The paper's parameterization, explicitly.
    pub fn paper_defaults() -> Self {
        Self::default()
    }

    /// Configuration for the unweighted-MPSC ablation.
    pub fn with_unweighted_mpsc(mut self) -> Self {
        self.weighted_mpsc = false;
        self
    }

    /// Configuration with the LP optimization stage disabled.
    pub fn without_lp(mut self) -> Self {
        self.lp_enabled = false;
        self
    }

    /// Configuration with the concurrent stage disabled (pure sequential).
    pub fn without_concurrent(mut self) -> Self {
        self.concurrent_enabled = false;
        self
    }

    /// Overrides the global-cell grid (ablation A2).
    pub fn with_global_cells(mut self, n: usize) -> Self {
        self.global_cells = n.max(1);
        self
    }

    /// Sets the ignored [`RouterConfig::threads`] field (0 is treated
    /// as 1); goes with the benchmark's next revision.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Disables the A\* search window (full-graph searches only).
    pub fn without_search_window(mut self) -> Self {
        self.search_window = false;
        self
    }

    /// Sets a per-stage wall-clock budget.
    pub fn with_stage_budget(mut self, budget: Duration) -> Self {
        self.stage_budget = Some(budget);
        self
    }

    /// Arms a fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Enables telemetry collection (spans, counters, route journal).
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RouterConfig::default();
        assert_eq!(c.alpha, 0.1);
        assert_eq!(c.beta, 1.0);
        assert_eq!(c.gamma, 1.0);
        assert_eq!(c.delta, 2.0);
        assert_eq!(c.global_cells, 30);
        assert!(c.lp_enabled && c.concurrent_enabled && c.weighted_mpsc);
        assert_eq!(c.threads, 1);
        assert!(c.search_window, "windowed search is on by default");
        assert!(!c.without_search_window().search_window);
        assert!(!c.telemetry, "telemetry is off by default");
        assert!(c.with_telemetry().telemetry);
    }

    #[test]
    fn threads_builder_clamps_zero() {
        assert_eq!(RouterConfig::default().with_threads(0).threads, 1);
        assert_eq!(RouterConfig::default().with_threads(4).threads, 4);
    }

    #[test]
    fn ablation_builders() {
        let c = RouterConfig::default().with_unweighted_mpsc().without_lp().with_global_cells(10);
        assert!(!c.weighted_mpsc);
        assert!(!c.lp_enabled);
        assert_eq!(c.global_cells, 10);
    }

    #[test]
    fn resilience_builders() {
        use crate::resilience::{FaultPlan, FaultSite};
        let c = RouterConfig::default();
        assert!(c.stage_budget.is_none());
        assert!(c.fault_plan.is_empty());
        let c = c
            .with_stage_budget(Duration::from_secs(5))
            .with_fault_plan(FaultPlan::single(FaultSite::LpFactorize));
        assert_eq!(c.stage_budget, Some(Duration::from_secs(5)));
        assert!(c.fault_plan.directive(FaultSite::LpFactorize).is_some());
        assert!(c.fault_plan.directive(FaultSite::AstarExpand).is_none());
    }
}
