//! Regenerates Table I: benchmark statistics plus routability, total
//! wirelength and runtime for Lin-ext and our via-based router on
//! dense1–dense5. Also emits `BENCH_rdl.json` with the per-circuit
//! numbers and the measured spatial-index speedup of the DRC query path
//! (indexed `drc::check` vs the reference `drc::check_naive`).
//!
//! Usage: `table1 [max_index]` (default 5; pass 3 for a quick run).
//! Routing is multi-threaded by default (`with_threads_auto`, capped at
//! 8); set `RDL_THREADS=<n>` to pin the worker count, `RDL_SCALING=0`
//! to skip the per-circuit thread-scaling matrix (each measured circuit
//! is otherwise re-routed at 1/2/4/8 threads with the layout hash
//! asserted identical at every count).
//!
//! A rewrite preserves what other binaries own: top-level keys spliced
//! by `loadtest`/`eco_sweep` are carried over byte-for-byte, and circuit
//! blocks this run did not re-route (e.g. dense4/5 under `table1 3`)
//! are kept from the existing file instead of being dropped.

use info_baseline::LinExtRouter;
use info_bench::{geomean, json_piece_key, json_pieces, secs};
use info_geom::{Point, Polyline};
use info_model::{drc, DesignRules, Layout, NetId, Package, PackageBuilder, WireLayer};
use info_router::serve::json;
use info_router::{InfoRouter, RouteOutcome, RouterConfig};
use info_telemetry::{Sink, TelemetryReport};
use std::time::{Duration, Instant};

struct Row {
    name: String,
    nets: usize,
    routability_pct: f64,
    wirelength_um: f64,
    runtime_s: f64,
    layout_hash: u64,
    drc_indexed_s: f64,
    drc_naive_s: f64,
    /// Which sweep path the production `drc::check` actually took on
    /// this layout ("indexed", "naive", or "mixed" across layers) — so a
    /// consumer reading `drc_speedup` knows whether the two timed paths
    /// did different work at all. Small circuits sit below
    /// `drc::INDEX_CUTOFF` on every layer, the auto path *is* the naive
    /// scan, and the honest ratio is ~1.0.
    drc_mode: &'static str,
    /// Thread-scaling matrix of this circuit (empty when skipped).
    scaling: Vec<ScalePoint>,
    /// Per-stage wall-clock (preprocess, concurrent, sequential, lp).
    stage_s: [f64; 4],
    /// Sequential-stage A\* statistics (see `info_tile::SearchStats`).
    search: info_router::SearchStats,
    /// Telemetry report of the routed run (counters, failure-reason
    /// counts, and the per-net journal summary).
    report: TelemetryReport,
    /// The same circuit routed with `congestion_mode` on.
    neg: NegRow,
}

/// One circuit's negotiated-congestion run, for the rip-up-vs-negotiated
/// comparison rows in BENCH_rdl.json and EXPERIMENTS.md.
struct NegRow {
    routability_pct: f64,
    wirelength_um: f64,
    runtime_s: f64,
    sequential_s: f64,
    layout_hash: u64,
    iterations: u32,
    converged: bool,
    declined: bool,
    final_overuse: u32,
    reroutes: u64,
    ripup_wall_s: f64,
}

impl Row {
    fn drc_speedup(&self) -> f64 {
        if self.drc_indexed_s > 0.0 {
            self.drc_naive_s / self.drc_indexed_s
        } else {
            0.0
        }
    }
}

/// Production-scale DRC stress instance: a hand-built layout (no routing
/// required) of ~6k wire segments and vias on a 10 mm die, where the
/// all-pairs spacing sweep is genuinely quadratic. The routed dense1–2
/// layouts are too small for asymptotics to matter; this is the scale the
/// spatial index exists for.
fn drc_stress_instance() -> (Package, Layout) {
    let die = info_geom::Rect::new(Point::new(0, 0), Point::new(10_000_000, 10_000_000));
    let pkg = PackageBuilder::new(die, DesignRules::default(), 2)
        .build()
        .expect("empty stress package is valid");
    let mut layout = Layout::new(&pkg);
    const ROWS: i64 = 240;
    const PITCH: i64 = 40_000;
    const SEGS: i64 = 10;
    for row in 0..ROWS {
        let y = 50_000 + row * PITCH;
        for k in 0..SEGS {
            let x0 = 50_000 + k * 990_000;
            let path = Polyline::new(vec![Point::new(x0, y), Point::new(x0 + 900_000, y)]);
            layout.add_route(NetId(row as u32), WireLayer(0), path);
        }
    }
    for col in 0..ROWS {
        let x = 50_000 + col * PITCH;
        for k in 0..SEGS {
            let y0 = 50_000 + k * 990_000;
            let path = Polyline::new(vec![Point::new(x, y0), Point::new(x, y0 + 900_000)]);
            layout.add_route(NetId((ROWS + col) as u32), WireLayer(1), path);
        }
    }
    // Vias midway between wire rows/columns: far from all foreign geometry,
    // so the instance is violation-free and both checks do identical work.
    for i in 0..24 {
        for j in 0..24 {
            let c = Point::new(70_000 + i * 400_000, 70_000 + j * 400_000);
            layout.add_via(NetId(i as u32), c, 5_000, WireLayer(0), WireLayer(1), false);
        }
    }
    (pkg, layout)
}

/// One point of a circuit's thread-scaling curve: the same route at a
/// fixed worker count.
struct ScalePoint {
    threads: usize,
    runtime_s: f64,
    sequential_s: f64,
    layout_hash: u64,
}

impl ScalePoint {
    fn from_route(threads: usize, wall: Duration, out: &RouteOutcome) -> Self {
        ScalePoint {
            threads,
            runtime_s: wall.as_secs_f64(),
            sequential_s: out.timings.sequential.as_secs_f64(),
            layout_hash: out.layout.canonical_hash(),
        }
    }
}

/// Paired, order-alternating best-of-five timing of the auto (indexed)
/// and naive DRC sweeps over one layout, returned as
/// `(indexed_s, naive_s)`. The old measurement ran all five indexed
/// reps before any naive rep, so process warm-up (allocator, page
/// cache) booked against whichever side went first — on circuits below
/// the index cutoff the two paths do *identical* work, yet dense1
/// reproducibly printed a 0.95x "speedup" that was pure ordering
/// artifact. Timing the two paths back to back within each round and
/// alternating which goes first cancels that drift; best-of-five per
/// path keeps the convergence behavior near the cutoff.
fn time_drc_pair(package: &Package, layout: &Layout) -> (f64, f64) {
    let time_one = |naive: bool| {
        let t = Instant::now();
        let report =
            if naive { drc::check_naive(package, layout) } else { drc::check(package, layout) };
        std::hint::black_box(report.violations().len());
        t.elapsed().as_secs_f64()
    };
    let (mut indexed, mut naive) = (f64::INFINITY, f64::INFINITY);
    for round in 0..5 {
        if round % 2 == 0 {
            indexed = indexed.min(time_one(false));
            naive = naive.min(time_one(true));
        } else {
            naive = naive.min(time_one(true));
            indexed = indexed.min(time_one(false));
        }
    }
    (indexed, naive)
}

/// Which sweep path `drc::check` took on this layout, from the per-layer
/// sweep counters: "indexed", "naive", "mixed", or "empty".
fn drc_mode(package: &Package, layout: &Layout) -> &'static str {
    let tel = Sink::enabled();
    std::hint::black_box(drc::check_with(package, layout, &tel).violations().len());
    let report = tel.report().expect("enabled sink yields a report");
    match (report.counter("drc_sweeps_indexed") > 0, report.counter("drc_sweeps_naive") > 0) {
        (true, false) => "indexed",
        (false, true) => "naive",
        (true, true) => "mixed",
        (false, false) => "empty",
    }
}

struct Stress {
    items: usize,
    indexed_s: f64,
    naive_s: f64,
}

impl Stress {
    fn speedup(&self) -> f64 {
        if self.indexed_s > 0.0 {
            self.naive_s / self.indexed_s
        } else {
            0.0
        }
    }
}

fn run_drc_stress() -> Stress {
    let (pkg, layout) = drc_stress_instance();
    let items = layout.routes().map(|r| r.path.segments().count()).sum::<usize>()
        + layout.vias().count() * 2;
    let (indexed_s, naive_s) = time_drc_pair(&pkg, &layout);
    let report = drc::check(&pkg, &layout);
    assert!(report.violations().is_empty(), "stress instance must be violation-free");
    Stress { items, indexed_s, naive_s }
}

/// `{"label": n, ...}` — one plain JSON object for a list of labeled
/// counts (labels are unique), so consumers index `counters["searches"]`
/// directly instead of scanning an array of single-key objects.
fn counts_json(counts: &[(&'static str, u64)]) -> String {
    let items: Vec<String> = counts.iter().map(|(label, n)| format!("\"{label}\": {n}")).collect();
    format!("{{{}}}", items.join(", "))
}

/// Per-net journal summary: one compact object per net that appears in
/// the route journal (attempt count, expansion work, escalations, final
/// outcome, rip-up victims).
fn journal_json(report: &TelemetryReport) -> String {
    let items: Vec<String> = report
        .net_summaries()
        .iter()
        .map(|s| {
            let failure = match s.last_failure {
                Some(f) => format!("\"{}\"", f.label()),
                None => "null".to_string(),
            };
            let victims: Vec<String> = s.victims.iter().map(|v| v.to_string()).collect();
            format!(
                "{{\"net\": {}, \"attempts\": {}, \"expansions\": {}, \"escalations\": {}, \
                 \"routed\": {}, \"last_failure\": {}, \"victims\": [{}]}}",
                s.net,
                s.attempts,
                s.expansions,
                s.escalations,
                s.routed,
                failure,
                victims.join(", "),
            )
        })
        .collect();
    format!("[\n      {}\n    ]", items.join(",\n      "))
}

/// Telemetry on-vs-off cost on dense2: median seconds per mode across
/// the paired rounds, plus the median of the per-round relative deltas
/// (`pct` is *not* derived from `on_s`/`off_s` — pairing within a round
/// is what cancels machine drift, so the delta medians separately).
struct Overhead {
    on_s: f64,
    off_s: f64,
    pct: f64,
}

/// Median of a small sample (sorts in place; even lengths average the
/// middle pair, which is what cancels the alternating first-of-pair
/// order effect across an even round count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timing sample"));
    let n = xs.len();
    if n % 2 == 1 { xs[n / 2] } else { (xs[n / 2 - 1] + xs[n / 2]) / 2.0 }
}

/// Top-level keys `table1` itself generates; anything else found in an
/// existing `BENCH_rdl.json` (the `eco`/`loadtest` splices) is carried
/// into the rewrite byte-for-byte.
const OWNED_KEYS: [&str; 8] = [
    "bench",
    "generated_by",
    "threads",
    "circuits",
    "telemetry_overhead",
    "drc_speedup_geomean",
    "drc_stress",
    "drc_query_speedup",
];

/// The circuit name inside one raw circuit-object block.
fn circuit_name(elem: &str) -> Option<&str> {
    let rest = elem.split_once("\"name\":")?.1.trim_start().strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// Splits an existing `BENCH_rdl.json` into the top-level pieces other
/// binaries own (kept verbatim) and the old circuit blocks by name (kept
/// for circuits this run did not re-route).
fn carried_sections(old: &str) -> (Vec<String>, Vec<(String, String)>) {
    let mut preserved = Vec::new();
    let mut circuits = Vec::new();
    for piece in json_pieces(old) {
        match json_piece_key(&piece) {
            Some("circuits") => {
                let value = piece.split_once(':').map_or("", |(_, v)| v.trim());
                for elem in json_pieces(value) {
                    if let Some(name) = circuit_name(&elem) {
                        circuits.push((name.to_string(), elem.clone()));
                    }
                }
            }
            Some(key) if !OWNED_KEYS.contains(&key) => preserved.push(piece),
            _ => {}
        }
    }
    (preserved, circuits)
}

/// One line of thread-scaling points (`[]` when the matrix was skipped).
fn scaling_json(points: &[ScalePoint]) -> String {
    let items: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"threads\": {}, \"runtime_s\": {:.4}, \"sequential_s\": {:.4}, \
                 \"layout_hash\": \"{:016x}\"}}",
                p.threads,
                p.runtime_s,
                p.sequential_s,
                p.layout_hash,
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// One circuit block (no leading indent, no trailing comma).
fn circuit_json(r: &Row) -> String {
    format!(
        "{{\"name\": \"{}\", \"nets\": {}, \"routability_pct\": {:.3}, \
         \"wirelength_um\": {:.1}, \"runtime_s\": {:.4}, \"layout_hash\": \"{:016x}\", \
         \"drc_indexed_s\": {:.6}, \"drc_naive_s\": {:.6}, \"drc_speedup\": {:.2}, \
         \"drc_mode\": \"{}\", \
         \"stage_s\": {{\"preprocess\": {:.4}, \"concurrent\": {:.4}, \
         \"sequential\": {:.4}, \"lp\": {:.4}}}, \
         \"search\": {{\"searches\": {}, \"nodes_expanded\": {}, \
         \"window_escalations\": {}, \"escalation_expansions\": {}, \"heap_peak\": {}}}, \
         \"ripup_wall_s\": {:.4}, \
         \"thread_scaling\": {}, \
         \"negotiated\": {{\"routability_pct\": {:.3}, \"wirelength_um\": {:.1}, \
         \"runtime_s\": {:.4}, \"sequential_s\": {:.4}, \"layout_hash\": \"{:016x}\", \
         \"iterations\": {}, \"converged\": {}, \"declined\": {}, \
         \"final_overuse\": {}, \
         \"reroutes\": {}, \"ripup_wall_s\": {:.4}}}, \
         \"failure_reasons\": {}, \
         \"counters\": {}, \
         \"journal\": {}}}",
        r.name,
        r.nets,
        r.routability_pct,
        r.wirelength_um,
        r.runtime_s,
        r.layout_hash,
        r.drc_indexed_s,
        r.drc_naive_s,
        r.drc_speedup(),
        r.drc_mode,
        r.stage_s[0],
        r.stage_s[1],
        r.stage_s[2],
        r.stage_s[3],
        r.search.searches,
        r.search.nodes_expanded,
        r.search.window_escalations,
        r.search.escalation_expansions,
        r.search.heap_peak,
        r.report.counter("ripup_wall_us") as f64 / 1e6,
        scaling_json(&r.scaling),
        r.neg.routability_pct,
        r.neg.wirelength_um,
        r.neg.runtime_s,
        r.neg.sequential_s,
        r.neg.layout_hash,
        r.neg.iterations,
        r.neg.converged,
        r.neg.declined,
        r.neg.final_overuse,
        r.neg.reroutes,
        r.neg.ripup_wall_s,
        counts_json(&r.report.failure_counts()),
        counts_json(&r.report.counters),
        journal_json(&r.report),
    )
}

fn write_bench_json(rows: &[Row], stress: &Stress, threads: usize, overhead: Option<&Overhead>) {
    let (preserved, old_circuits) = match std::fs::read_to_string("BENCH_rdl.json") {
        Ok(old) if json::parse(&old).is_ok() => carried_sections(&old),
        _ => Default::default(),
    };
    let mut blocks: Vec<(String, String)> =
        rows.iter().map(|r| (r.name.clone(), circuit_json(r))).collect();
    let fresh = blocks.len();
    for (name, text) in old_circuits {
        if !blocks.iter().any(|(n, _)| *n == name) {
            blocks.push((name, text));
        }
    }
    if blocks.len() > fresh {
        let carried: Vec<&str> = blocks[fresh..].iter().map(|(n, _)| n.as_str()).collect();
        println!("carrying over committed circuit blocks not re-run: {}", carried.join(", "));
    }
    blocks.sort_by(|a, b| a.0.cmp(&b.0));

    let mut out = String::from("{\n");
    for piece in &preserved {
        out.push_str(&format!("  {piece},\n"));
    }
    out.push_str("  \"bench\": \"rdl\",\n");
    out.push_str("  \"generated_by\": \"table1\",\n");
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"circuits\": [\n");
    for (i, (_, text)) in blocks.iter().enumerate() {
        out.push_str("    ");
        out.push_str(text);
        out.push_str(if i + 1 < blocks.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    if let Some(oh) = overhead {
        out.push_str(&format!(
            "  \"telemetry_overhead\": {{\"circuit\": \"dense2\", \"on_s\": {:.4}, \
             \"off_s\": {:.4}, \"overhead_pct\": {:.2}}},\n",
            oh.on_s, oh.off_s, oh.pct
        ));
    }
    out.push_str(&format!(
        "  \"drc_speedup_geomean\": {:.2},\n",
        geomean(rows.iter().map(Row::drc_speedup))
    ));
    out.push_str(&format!(
        "  \"drc_stress\": {{\"items\": {}, \"indexed_s\": {:.6}, \"naive_s\": {:.6}, \
         \"speedup\": {:.2}}},\n",
        stress.items,
        stress.indexed_s,
        stress.naive_s,
        stress.speedup(),
    ));
    out.push_str(&format!("  \"drc_query_speedup\": {:.2}\n", stress.speedup()));
    out.push_str("}\n");
    // The merge carries raw text from the old file; refuse to clobber
    // the artifact with anything that does not round-trip as JSON.
    if let Err(e) = json::parse(&out) {
        eprintln!("refusing to write BENCH_rdl.json: merged output is invalid JSON: {e}");
        std::process::exit(1);
    }
    match std::fs::write("BENCH_rdl.json", &out) {
        Ok(()) => println!("wrote BENCH_rdl.json"),
        Err(e) => eprintln!("could not write BENCH_rdl.json: {e}"),
    }
}

fn main() {
    let max_index: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(5);
    // Multi-threaded by default: the parallel planner is the production
    // configuration now, so the published numbers are measured with it.
    let threads: usize = std::env::var("RDL_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| RouterConfig::default().with_threads_auto().threads);
    let scaling_on = std::env::var("RDL_SCALING").map_or(true, |v| v != "0");
    println!("Table I — Lin-ext vs Ours (synthetic dense suite; see DESIGN.md substitutions)");
    println!(
        "{:<8} {:>6} {:>5} {:>5} {:>5} {:>4} {:>4} | {:>9} {:>9} | {:>12} {:>12} | {:>8} {:>8}",
        "Circuit", "#Chips", "|Q|", "|G|", "|N|", "Lw", "Lv",
        "Lin rt%", "Ours rt%", "Lin WL(um)", "Ours WL(um)", "Lin s", "Ours s"
    );

    let mut ratios_rt = Vec::new();
    let mut ratios_time = Vec::new();
    let mut rows = Vec::new();
    // Paired-round telemetry overhead measurement for dense2.
    let mut overhead: Option<Overhead> = None;
    // `threads` as the router config actually clamps/records it, so the
    // JSON "threads" field is the configured value, not the raw env var.
    let configured_threads = RouterConfig::default().with_threads(threads).threads;
    println!(
        "routing with {configured_threads} worker thread(s) \
         (RDL_THREADS overrides; scaling matrix {})",
        if scaling_on { "on" } else { "off (RDL_SCALING=0)" }
    );
    for idx in 1..=max_index {
        let pkg = info_gen::dense(idx);

        let t0 = Instant::now();
        let base = LinExtRouter::new(RouterConfig::default()).route(&pkg);
        let base_time = t0.elapsed();

        // Telemetry on for the measured run: the journal and counters go
        // into BENCH_rdl.json, and the disabled-sink overhead is bounded
        // separately below (`telemetry_overhead`).
        let cfg = RouterConfig::default().with_threads(threads).with_telemetry();
        let t1 = Instant::now();
        let ours = InfoRouter::new(cfg).route(&pkg);
        let ours_time = t1.elapsed();
        if idx == 2 {
            // Paired rounds with alternating order: each round routes
            // telemetry-on and -off back to back and contributes one
            // relative delta; the *median* delta is the overhead
            // estimate. Pairing cancels the process-level drift that
            // dominates at ~20 s per route (identical-config runs on
            // one core spread by ±6%, several times the genuine
            // disabled-sink cost), alternating which mode goes first
            // cancels the first-of-pair slowdown (consecutive routes in
            // one process speed up as the allocator and page cache
            // warm — with a fixed order that slope books against one
            // mode), and the median discards the odd round the machine
            // stole. The measured run above is the warm-up, not a
            // sample — the process's first dense2 route is reliably its
            // slowest.
            let route_on = |t: &mut f64| {
                let cfg2 = RouterConfig::default().with_threads(threads).with_telemetry();
                let t0 = Instant::now();
                let on = InfoRouter::new(cfg2).route(&pkg);
                *t = t0.elapsed().as_secs_f64();
                assert_eq!(
                    on.layout.canonical_hash(),
                    ours.layout.canonical_hash(),
                    "telemetry-on rerun must reproduce the dense2 layout"
                );
            };
            let route_off = |t: &mut f64| {
                let t0 = Instant::now();
                let off =
                    InfoRouter::new(RouterConfig::default().with_threads(threads)).route(&pkg);
                *t = t0.elapsed().as_secs_f64();
                assert_eq!(
                    off.layout.canonical_hash(),
                    ours.layout.canonical_hash(),
                    "telemetry must not change the dense2 layout"
                );
            };
            let mut on_times = Vec::new();
            let mut off_times = Vec::new();
            let mut deltas = Vec::new();
            for round in 0..4 {
                let (mut on_s, mut off_s) = (0.0, 0.0);
                if round % 2 == 0 {
                    route_on(&mut on_s);
                    route_off(&mut off_s);
                } else {
                    route_off(&mut off_s);
                    route_on(&mut on_s);
                }
                deltas.push((on_s / off_s - 1.0) * 100.0);
                on_times.push(on_s);
                off_times.push(off_s);
            }
            overhead = Some(Overhead {
                on_s: median(&mut on_times),
                off_s: median(&mut off_times),
                pct: median(&mut deltas),
            });
        }

        // Negotiated-congestion run of the same circuit (DESIGN.md §4h):
        // same config plus `congestion_mode`, timed and journaled
        // separately so the JSON carries both sides of the comparison.
        let cfg_neg =
            RouterConfig::default().with_threads(threads).with_telemetry().with_congestion_mode();
        let t2 = Instant::now();
        let negotiated = InfoRouter::new(cfg_neg).route(&pkg);
        let neg_time = t2.elapsed();
        let negst = negotiated.negotiation.clone().unwrap_or_default();
        let neg_report = negotiated.telemetry.unwrap_or_default();
        let neg = NegRow {
            routability_pct: negotiated.stats.routability_pct,
            wirelength_um: negotiated.stats.total_wirelength_um,
            runtime_s: neg_time.as_secs_f64(),
            sequential_s: negotiated.timings.sequential.as_secs_f64(),
            layout_hash: negotiated.layout.canonical_hash(),
            iterations: negst.iterations,
            converged: negst.converged,
            declined: negst.declined,
            final_overuse: negst.final_overuse,
            reroutes: negst.reroutes,
            ripup_wall_s: neg_report.counter("ripup_wall_us") as f64 / 1e6,
        };
        println!(
            "  negotiated: rt {:.1}%  seq {:.2}s (total {:.2}s)  iters {}  converged {}  \
             declined {}  reroutes {}  ripup {:.2}s",
            neg.routability_pct,
            neg.sequential_s,
            neg.runtime_s,
            neg.iterations,
            neg.converged,
            neg.declined,
            neg.reroutes,
            neg.ripup_wall_s,
        );
        println!(
            "{:<8} {:>6} {:>5} {:>5} {:>5} {:>4} {:>4} | {:>9.1} {:>9.1} | {:>12.0} {:>12.0} | {:>8} {:>8}",
            format!("dense{idx}"),
            pkg.chips().len(),
            pkg.io_pad_count(),
            pkg.bump_pad_count(),
            pkg.nets().len(),
            pkg.wire_layer_count(),
            pkg.via_layer_count(),
            base.stats.routability_pct,
            ours.stats.routability_pct,
            base.stats.total_wirelength_um,
            ours.stats.total_wirelength_um,
            secs(base_time),
            secs(ours_time),
        );
        if ours.stats.routability_pct > 0.0 {
            ratios_rt.push(base.stats.routability_pct / ours.stats.routability_pct);
        }
        if ours_time.as_secs_f64() > 0.0 {
            ratios_time.push(base_time.as_secs_f64() / ours_time.as_secs_f64());
        }

        // Thread-scaling matrix: the same circuit at 1/2/4/8 workers.
        // The configured-thread point reuses the measured run above;
        // every other point routes fresh. Identical layout hashes at
        // every count are the router's determinism contract — a
        // divergence here is a bug, not a data point, so it aborts.
        let mut scaling = Vec::new();
        if scaling_on {
            for t in [1usize, 2, 4, 8] {
                let point = if t == configured_threads {
                    ScalePoint::from_route(t, ours_time, &ours)
                } else {
                    let cfg_t = RouterConfig::default().with_threads(t);
                    let ts = Instant::now();
                    let out = InfoRouter::new(cfg_t).route(&pkg);
                    ScalePoint::from_route(t, ts.elapsed(), &out)
                };
                assert_eq!(
                    point.layout_hash,
                    ours.layout.canonical_hash(),
                    "dense{idx}: layout diverged at {t} threads"
                );
                scaling.push(point);
            }
            let one = scaling[0].sequential_s;
            let curve: Vec<String> = scaling
                .iter()
                .map(|p| {
                    format!(
                        "{}t {:.2}s ({:.2}x)",
                        p.threads,
                        p.sequential_s,
                        one / p.sequential_s.max(1e-9),
                    )
                })
                .collect();
            println!("  thread scaling (sequential stage): {}", curve.join(", "));
        }

        let (drc_indexed_s, drc_naive_s) = time_drc_pair(&pkg, &ours.layout);
        rows.push(Row {
            name: format!("dense{idx}"),
            nets: pkg.nets().len(),
            routability_pct: ours.stats.routability_pct,
            wirelength_um: ours.stats.total_wirelength_um,
            runtime_s: ours_time.as_secs_f64(),
            layout_hash: ours.layout.canonical_hash(),
            drc_indexed_s,
            drc_naive_s,
            drc_mode: drc_mode(&pkg, &ours.layout),
            scaling,
            stage_s: [
                ours.timings.preprocess.as_secs_f64(),
                ours.timings.concurrent.as_secs_f64(),
                ours.timings.sequential.as_secs_f64(),
                ours.timings.lp.as_secs_f64(),
            ],
            search: ours.timings.search,
            report: ours.telemetry.unwrap_or_default(),
            neg,
        });
    }
    println!(
        "Comparisons (geo-mean ratios, Lin-ext / Ours): routability {:.3}, runtime {:.3}",
        geomean(ratios_rt),
        geomean(ratios_time)
    );
    println!("(paper: routability 0.794, runtime 0.297)");
    println!(
        "DRC on final layouts: indexed vs naive geo-mean speedup {:.2}x",
        geomean(rows.iter().map(Row::drc_speedup))
    );
    let stress = run_drc_stress();
    println!(
        "DRC query path (stress, {} items): indexed {:.4}s vs naive {:.4}s = {:.2}x",
        stress.items,
        stress.indexed_s,
        stress.naive_s,
        stress.speedup(),
    );
    if let Some(oh) = &overhead {
        println!(
            "Telemetry overhead (dense2): median on {:.2}s vs off {:.2}s, \
             median paired delta {:+.2}%",
            oh.on_s, oh.off_s, oh.pct
        );
    }
    write_bench_json(&rows, &stress, configured_threads, overhead.as_ref());
}
