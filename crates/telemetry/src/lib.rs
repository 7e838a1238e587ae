//! Routing telemetry: spans, counters, histograms, and the per-net route
//! journal (see DESIGN.md §4e).
//!
//! The whole subsystem hangs off a [`Sink`], which is either *enabled*
//! (an `Arc` to shared atomic/mutexed state) or *disabled* (`None`).
//! Every recording method early-returns on a disabled sink, so a router
//! built with telemetry off pays one branch per call site and allocates
//! nothing — layouts are byte-identical either way because no recorded
//! value ever feeds back into routing decisions.
//!
//! Determinism contract: the sequential flow routes one net at a time,
//! so the **journal**, the **counters** and the **histograms** are
//! identical across repeat routes (the one wall-clock counter,
//! `ripup_wall_us`, aside). Counters are monotonic: nothing ever
//! decrements them, not even a rip-up rollback. **Spans** are
//! wall-clock measurements and inherently run-variant.
//!
//! This crate deliberately has zero dependencies (net ids are plain
//! `u32`, cells plain tuples) so every workspace crate can depend on it
//! without cycles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which routing pass produced a journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Stage 2: pattern routing along the assigned MST path.
    Concurrent,
    /// Sequential pass 1 (shortest-first order).
    First,
    /// Sequential pass 2 (retry after every other net placed).
    Retry,
    /// Sequential pass 3 (rip-up-and-reroute; one record per eviction-set
    /// trial).
    RipUp,
}

impl Pass {
    /// Stable lowercase label (used in BENCH_rdl.json and reports).
    pub fn label(self) -> &'static str {
        match self {
            Pass::Concurrent => "concurrent",
            Pass::First => "first",
            Pass::Retry => "retry",
            Pass::RipUp => "ripup",
        }
    }
}

/// Why a route attempt failed. The first four are the search-level
/// taxonomy of the A\* layer; the last three are post-search rejections
/// of a found path (the geometry could not be committed as searched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// The full graph was exhausted without leaving the search window
    /// (the windowed run was authoritative), or a terminal tile was
    /// blocked outright: provably no path existed.
    Unreachable,
    /// The windowed run could not certify its result, and the escalated
    /// full-graph continuation also exhausted: the window failed to
    /// contain the net, and the full graph still had no path.
    WindowFenced,
    /// The expansion budget tripped; `tile` is the last tile popped —
    /// where the search was grinding when it gave up.
    Congested {
        /// Raw tile id of the last pop before the budget tripped.
        tile: u32,
    },
    /// A cross-layer search never saw a single usable via site;
    /// `cell` is the global cell of the source tile.
    ViaCapacity {
        /// Global cell `(cx, cy)` of the stranded terminal.
        cell: (u32, u32),
    },
    /// The tile path could not be realized as legal X-architecture
    /// geometry (turn-rule validation included).
    RealizeRejected,
    /// The realized geometry crossed a committed foreign route.
    CrossingRejected,
    /// The realized geometry failed the clearance trial against the
    /// committed layout.
    ClearanceRejected,
    /// The attempt's cancel token tripped mid-search (deadline, explicit
    /// cancel, or deterministic check trip): says nothing about the
    /// net's routability, only that the budget ran out on it.
    Cancelled,
}

impl FailureReason {
    /// Stable snake_case label (used in BENCH_rdl.json and reports).
    pub fn label(self) -> &'static str {
        match self {
            FailureReason::Unreachable => "unreachable",
            FailureReason::WindowFenced => "window_fenced",
            FailureReason::Congested { .. } => "congested",
            FailureReason::ViaCapacity { .. } => "via_capacity",
            FailureReason::RealizeRejected => "realize_rejected",
            FailureReason::CrossingRejected => "crossing_rejected",
            FailureReason::ClearanceRejected => "clearance_rejected",
            FailureReason::Cancelled => "cancelled",
        }
    }

    /// Every label, in taxonomy order (for zero-filled count tables).
    pub const LABELS: [&'static str; 8] = [
        "unreachable",
        "window_fenced",
        "congested",
        "via_capacity",
        "realize_rejected",
        "crossing_rejected",
        "clearance_rejected",
        "cancelled",
    ];
}

/// How one attempt ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttemptOutcome {
    /// Committed; `f`/`g` are the accepted destination pop's queue key
    /// and path cost (for the concurrent stage, both are the committed
    /// pattern wirelength — there is no search).
    Routed {
        /// Queue key (`g + h`) at the accepting destination pop.
        f: f64,
        /// Path cost at the accepting destination pop.
        g: f64,
    },
    /// Not committed, with the taxonomy reason.
    Failed(FailureReason),
}

/// One journal record: one attempt of one net in one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// Raw net id.
    pub net: u32,
    /// The pass that made the attempt.
    pub pass: Pass,
    /// Whether the A\* search ran windowed (false when a rip-up attempt
    /// was refuted without one).
    pub windowed: bool,
    /// Whether the windowed search escalated to the full graph.
    pub escalated: bool,
    /// Nodes the authoritative search expanded, or the tiles the
    /// refutation sweep visited for a refuted rip-up attempt.
    pub expansions: u64,
    /// The outcome.
    pub outcome: AttemptOutcome,
    /// Rip-up victims evicted for this attempt (empty outside pass 3).
    pub victims: Vec<u32>,
}

/// Monotonic counters. Append new variants at the end — `ALL` and
/// `label` must stay in sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// A\* entry points taken.
    Searches,
    /// Nodes expanded across all searches.
    NodesExpanded,
    /// Windowed searches that escalated to the full graph.
    WindowEscalations,
    /// Nodes expanded by escalated continuations specifically.
    EscalationExpansions,
    /// Rip-up eviction-set trials.
    RipupAttempts,
    /// Eviction sets that stuck (target and all victims re-routed).
    RipupCommits,
    /// Restores after a failed eviction set: the layout from its snapshot
    /// and the routing space by rolling back its trial journal.
    SnapshotRestores,
    /// Global cells rebuilt by net commits.
    CellsRebuilt,
    /// Nets committed by the concurrent stage.
    ConcurrentCommitted,
    /// Candidates the concurrent stage skipped to sequential.
    ConcurrentSkipped,
    /// LP optimization passes run.
    LpPasses,
    /// LP crossing-repair iterations across all passes.
    LpIterations,
    /// Simplex iterations summed over every sub-LP of every pass.
    LpSimplexIterations,
    /// LP passes whose solved layout the DRC-and-wirelength safety net
    /// threw away.
    LpReverted,
    /// Adjacency/edge-legality cache hits (epoch-stamped verdict reused).
    LegalityCacheHits,
    /// Adjacency/edge-legality cache misses (geometry work re-done).
    LegalityCacheMisses,
    /// Wall-clock microseconds spent inside pass-3 rip-up-and-reroute
    /// trials (layout snapshot, eviction, re-route, and rollback included).
    RipupWallUs,
    /// Sequential-stage routing spaces served from the warm shared cache
    /// (repeat jobs on the same circuit skip the build).
    WarmSpaceHits,
    /// Sequential-stage routing spaces built cold (and, when a warm
    /// cache is attached, deposited into it).
    WarmSpaceMisses,
    /// Rip-up attempts (a trial's target or a victim re-route) proven
    /// unroutable by the bounded refutation sweep instead of an A\*
    /// search; they do not count as `Searches`.
    RipupRefuted,
    /// `(layer, cell)` slots whose rebuild found the inputs their tiles
    /// were built from unchanged and reused the tiles (trial rebuilds
    /// included, like `CellsRebuilt`).
    LayerCellsReused,
    /// Peak tile slots (live and retired) of a sequential-stage routing
    /// space: the size of its tile arena and of the per-thread search
    /// scratch. A maximum, recorded through [`Sink::peak`].
    TileSlotsPeak,
    /// Peak live tiles of a sequential-stage routing space (a maximum).
    LiveTilesPeak,
    /// Compactions of a sequential-stage routing space that reclaimed
    /// its retired tile slots between nets.
    TileCompactions,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 24] = [
        Counter::Searches,
        Counter::NodesExpanded,
        Counter::WindowEscalations,
        Counter::EscalationExpansions,
        Counter::RipupAttempts,
        Counter::RipupCommits,
        Counter::SnapshotRestores,
        Counter::CellsRebuilt,
        Counter::ConcurrentCommitted,
        Counter::ConcurrentSkipped,
        Counter::LpPasses,
        Counter::LpIterations,
        Counter::LpSimplexIterations,
        Counter::LpReverted,
        Counter::LegalityCacheHits,
        Counter::LegalityCacheMisses,
        Counter::RipupWallUs,
        Counter::WarmSpaceHits,
        Counter::WarmSpaceMisses,
        Counter::RipupRefuted,
        Counter::LayerCellsReused,
        Counter::TileSlotsPeak,
        Counter::LiveTilesPeak,
        Counter::TileCompactions,
    ];

    /// Stable snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            Counter::Searches => "searches",
            Counter::NodesExpanded => "nodes_expanded",
            Counter::WindowEscalations => "window_escalations",
            Counter::EscalationExpansions => "escalation_expansions",
            Counter::RipupAttempts => "ripup_attempts",
            Counter::RipupCommits => "ripup_commits",
            Counter::SnapshotRestores => "snapshot_restores",
            Counter::CellsRebuilt => "cells_rebuilt",
            Counter::ConcurrentCommitted => "concurrent_committed",
            Counter::ConcurrentSkipped => "concurrent_skipped",
            Counter::LpPasses => "lp_passes",
            Counter::LpIterations => "lp_iterations",
            Counter::LpSimplexIterations => "lp_simplex_iterations",
            Counter::LpReverted => "lp_reverted",
            Counter::LegalityCacheHits => "legality_cache_hits",
            Counter::LegalityCacheMisses => "legality_cache_misses",
            Counter::RipupWallUs => "ripup_wall_us",
            Counter::WarmSpaceHits => "warm_space_hits",
            Counter::WarmSpaceMisses => "warm_space_misses",
            Counter::RipupRefuted => "ripup_refuted",
            Counter::LayerCellsReused => "layer_cells_reused",
            Counter::TileSlotsPeak => "tile_slots_peak",
            Counter::LiveTilesPeak => "live_tiles_peak",
            Counter::TileCompactions => "tile_compactions",
        }
    }
}

/// Log₂-bucketed histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Nodes expanded per journaled attempt.
    ExpansionsPerAttempt,
    /// Items per DRC layer sweep (the quantity the index cutoff splits
    /// on).
    DrcItemsPerSweep,
    /// Victims per rip-up eviction set.
    RipupVictims,
}

impl Metric {
    /// Every metric, in declaration order.
    pub const ALL: [Metric; 3] =
        [Metric::ExpansionsPerAttempt, Metric::DrcItemsPerSweep, Metric::RipupVictims];

    /// Stable snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            Metric::ExpansionsPerAttempt => "expansions_per_attempt",
            Metric::DrcItemsPerSweep => "drc_items_per_sweep",
            Metric::RipupVictims => "ripup_victims",
        }
    }
}

/// Buckets: value `v` lands in bucket `bit_width(v)` — bucket 0 holds
/// zeros, bucket k (k ≥ 1) holds `[2^(k-1), 2^k)`.
const HIST_BUCKETS: usize = 65;

fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (for report rendering).
fn bucket_hi(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        (1u64 << b.min(63)) - 1
    }
}

struct Inner {
    counters: [AtomicU64; Counter::ALL.len()],
    hists: Mutex<Vec<[u64; HIST_BUCKETS]>>,
    journal: Mutex<Vec<AttemptRecord>>,
    spans: Mutex<Vec<(&'static str, f64)>>,
}

impl Inner {
    fn new() -> Self {
        Inner {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: Mutex::new(vec![[0u64; HIST_BUCKETS]; Metric::ALL.len()]),
            journal: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// The telemetry sink: cheap to clone, shareable across threads, and a
/// no-op in its disabled state.
#[derive(Clone, Default)]
pub struct Sink(Option<Arc<Inner>>);

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sink").field("enabled", &self.is_enabled()).finish()
    }
}

impl Sink {
    /// A recording sink.
    pub fn enabled() -> Self {
        Sink(Some(Arc::new(Inner::new())))
    }

    /// A no-op sink (the default).
    pub fn disabled() -> Self {
        Sink(None)
    }

    /// Whether this sink records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `by` to a counter.
    #[inline]
    pub fn count(&self, c: Counter, by: u64) {
        if let Some(inner) = &self.0 {
            inner.counters[c as usize].fetch_add(by, Ordering::Relaxed);
        }
    }

    /// Raises a counter to `value` if it is lower: a high-water mark,
    /// monotonic like the sums.
    #[inline]
    pub fn peak(&self, c: Counter, value: u64) {
        if let Some(inner) = &self.0 {
            inner.counters[c as usize].fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Records one observation of a metric.
    #[inline]
    pub fn observe(&self, m: Metric, value: u64) {
        if let Some(inner) = &self.0 {
            if let Ok(mut hists) = inner.hists.lock() {
                hists[m as usize][bucket_of(value)] += 1;
            }
        }
    }

    /// Appends a journal record (and folds its expansions into the
    /// [`Metric::ExpansionsPerAttempt`] histogram).
    pub fn record(&self, rec: AttemptRecord) {
        if let Some(inner) = &self.0 {
            self.observe(Metric::ExpansionsPerAttempt, rec.expansions);
            if !rec.victims.is_empty() {
                self.observe(Metric::RipupVictims, rec.victims.len() as u64);
            }
            if let Ok(mut journal) = inner.journal.lock() {
                journal.push(rec);
            }
        }
    }

    /// Records a completed span directly (for stages timed externally).
    pub fn record_span(&self, name: &'static str, seconds: f64) {
        if let Some(inner) = &self.0 {
            if let Ok(mut spans) = inner.spans.lock() {
                spans.push((name, seconds));
            }
        }
    }

    /// Starts a span; the guard records its wall-clock on drop.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard(self.0.as_ref().map(|inner| (Arc::clone(inner), name, Instant::now())))
    }

    /// Snapshots everything recorded so far. `None` on a disabled sink.
    pub fn report(&self) -> Option<TelemetryReport> {
        let inner = self.0.as_ref()?;
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.label(), inner.counters[c as usize].load(Ordering::Relaxed)))
            .collect();
        let hists = inner.hists.lock().ok()?;
        let histograms = Metric::ALL
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let buckets = hists[i]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &n)| n > 0)
                    .map(|(b, &n)| (bucket_hi(b), n))
                    .collect();
                (m.label(), buckets)
            })
            .collect();
        drop(hists);
        let journal = inner.journal.lock().ok()?.clone();
        let spans = inner.spans.lock().ok()?.clone();
        Some(TelemetryReport { counters, histograms, spans, journal })
    }
}

/// RAII span timer returned by [`Sink::span`].
pub struct SpanGuard(Option<(Arc<Inner>, &'static str, Instant)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, name, start)) = self.0.take() {
            if let Ok(mut spans) = inner.spans.lock() {
                spans.push((name, start.elapsed().as_secs_f64()));
            }
        }
    }
}

/// A self-contained snapshot of everything a [`Sink`] recorded.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// `(label, value)` for every counter, in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(label, [(bucket_hi, count)])` per metric; empty buckets omitted.
    pub histograms: Vec<(&'static str, Vec<(u64, u64)>)>,
    /// `(name, seconds)` per recorded span, in completion order.
    pub spans: Vec<(&'static str, f64)>,
    /// The per-net route journal, in authoritative commit order.
    pub journal: Vec<AttemptRecord>,
}

/// Journal rollup for one net.
#[derive(Debug, Clone, PartialEq)]
pub struct NetSummary {
    /// Raw net id.
    pub net: u32,
    /// Journal records for this net.
    pub attempts: u32,
    /// Total nodes expanded across its attempts.
    pub expansions: u64,
    /// Attempts whose search escalated out of the window.
    pub escalations: u32,
    /// Whether the net's last attempt committed.
    pub routed: bool,
    /// The last failure reason seen (present iff any attempt failed).
    pub last_failure: Option<FailureReason>,
    /// Victims evicted across its rip-up trials (deduplicated, sorted).
    pub victims: Vec<u32>,
}

impl TelemetryReport {
    /// Value of a counter by label (0 when absent).
    pub fn counter(&self, label: &str) -> u64 {
        self.counters.iter().find(|(l, _)| *l == label).map_or(0, |&(_, v)| v)
    }

    /// Failed attempts per taxonomy label, zero-filled in taxonomy order.
    pub fn failure_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts = FailureReason::LABELS.map(|l| (l, 0u64));
        for rec in &self.journal {
            if let AttemptOutcome::Failed(r) = rec.outcome {
                if let Some(slot) = counts.iter_mut().find(|(l, _)| *l == r.label()) {
                    slot.1 += 1;
                }
            }
        }
        counts.to_vec()
    }

    /// Per-net journal rollups, sorted by net id.
    pub fn net_summaries(&self) -> Vec<NetSummary> {
        let mut by_net: std::collections::BTreeMap<u32, NetSummary> =
            std::collections::BTreeMap::new();
        for rec in &self.journal {
            let s = by_net.entry(rec.net).or_insert_with(|| NetSummary {
                net: rec.net,
                attempts: 0,
                expansions: 0,
                escalations: 0,
                routed: false,
                last_failure: None,
                victims: Vec::new(),
            });
            s.attempts += 1;
            s.expansions += rec.expansions;
            s.escalations += u32::from(rec.escalated);
            match rec.outcome {
                AttemptOutcome::Routed { .. } => s.routed = true,
                AttemptOutcome::Failed(r) => {
                    s.routed = false;
                    s.last_failure = Some(r);
                }
            }
            s.victims.extend(&rec.victims);
        }
        let mut out: Vec<NetSummary> = by_net.into_values().collect();
        for s in &mut out {
            s.victims.sort_unstable();
            s.victims.dedup();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing_and_reports_none() {
        let sink = Sink::disabled();
        sink.count(Counter::Searches, 3);
        sink.observe(Metric::DrcItemsPerSweep, 100);
        sink.record(AttemptRecord {
            net: 0,
            pass: Pass::First,
            windowed: true,
            escalated: false,
            expansions: 10,
            outcome: AttemptOutcome::Failed(FailureReason::Unreachable),
            victims: vec![],
        });
        let _g = sink.span("noop");
        assert!(!sink.is_enabled());
        assert!(sink.report().is_none());
    }

    #[test]
    fn counters_accumulate_and_label_stably() {
        let sink = Sink::enabled();
        sink.count(Counter::Searches, 2);
        sink.count(Counter::Searches, 3);
        sink.count(Counter::NodesExpanded, 7);
        sink.peak(Counter::TileSlotsPeak, 9);
        sink.peak(Counter::TileSlotsPeak, 4);
        let rep = sink.report().unwrap();
        assert_eq!(rep.counter("searches"), 5);
        assert_eq!(rep.counter("nodes_expanded"), 7);
        assert_eq!(rep.counter("tile_slots_peak"), 9);
        assert_eq!(rep.counter("absent"), 0);
        assert_eq!(rep.counters.len(), Counter::ALL.len());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        let sink = Sink::enabled();
        for v in [0, 1, 2, 3, 900] {
            sink.observe(Metric::DrcItemsPerSweep, v);
        }
        let rep = sink.report().unwrap();
        let (_, buckets) =
            rep.histograms.iter().find(|(l, _)| *l == "drc_items_per_sweep").unwrap();
        let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 5);
        // 2 and 3 share bucket [2, 4) whose inclusive hi is 3.
        assert!(buckets.iter().any(|&(hi, n)| hi == 3 && n == 2));
    }

    #[test]
    fn journal_rollups_and_failure_counts() {
        let sink = Sink::enabled();
        sink.record(AttemptRecord {
            net: 4,
            pass: Pass::First,
            windowed: true,
            escalated: true,
            expansions: 100,
            outcome: AttemptOutcome::Failed(FailureReason::Congested { tile: 9 }),
            victims: vec![],
        });
        sink.record(AttemptRecord {
            net: 4,
            pass: Pass::RipUp,
            windowed: true,
            escalated: false,
            expansions: 50,
            outcome: AttemptOutcome::Routed { f: 10.0, g: 10.0 },
            victims: vec![2, 1, 2],
        });
        sink.record(AttemptRecord {
            net: 7,
            pass: Pass::Retry,
            windowed: true,
            escalated: false,
            expansions: 5,
            outcome: AttemptOutcome::Failed(FailureReason::ViaCapacity { cell: (3, 4) }),
            victims: vec![],
        });
        let rep = sink.report().unwrap();
        let sums = rep.net_summaries();
        assert_eq!(sums.len(), 2);
        let n4 = &sums[0];
        assert_eq!((n4.net, n4.attempts, n4.expansions, n4.escalations), (4, 2, 150, 1));
        assert!(n4.routed);
        assert_eq!(n4.victims, vec![1, 2]);
        let n7 = &sums[1];
        assert!(!n7.routed);
        assert_eq!(n7.last_failure, Some(FailureReason::ViaCapacity { cell: (3, 4) }));
        let fc = rep.failure_counts();
        assert_eq!(fc.iter().find(|(l, _)| *l == "congested").unwrap().1, 1);
        assert_eq!(fc.iter().find(|(l, _)| *l == "via_capacity").unwrap().1, 1);
        assert_eq!(fc.iter().find(|(l, _)| *l == "unreachable").unwrap().1, 0);
    }

    #[test]
    fn spans_record_on_drop_and_directly() {
        let sink = Sink::enabled();
        {
            let _g = sink.span("stage_a");
        }
        sink.record_span("stage_b", 1.5);
        let rep = sink.report().unwrap();
        assert_eq!(rep.spans.len(), 2);
        assert_eq!(rep.spans[0].0, "stage_a");
        assert!((rep.spans[1].1 - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sink_is_send_sync_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Sink>();
        let sink = Sink::enabled();
        let clone = sink.clone();
        clone.count(Counter::Searches, 1);
        assert_eq!(sink.report().unwrap().counter("searches"), 1);
    }
}
