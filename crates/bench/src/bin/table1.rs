//! Regenerates Table I: benchmark statistics plus routability, total
//! wirelength and runtime for Lin-ext and our via-based router on
//! dense1–dense5. Also emits `BENCH_rdl.json` with the per-circuit
//! numbers, the measured spatial-index speedup of the DRC query path
//! (indexed `drc::check` vs the reference `drc::check_naive`: the median
//! of paired rounds) on a stress layout, and the `ingest` section: how long `parse_package`
//! takes on the netlist text of each of dense1–5, whatever `max_index`
//! is.
//!
//! Usage: `table1 [max_index]` (default 5; pass 3 for a quick run).
//!
//! The numbers go into `BENCH_rdl.json` through [`BenchRecord`]: the
//! circuits this run routed replace their committed blocks, the rest
//! (e.g. dense4/5 under `table1 3`) and other binaries' sections are
//! carried unchanged. An unreadable record or a failed write exits
//! nonzero before any routing starts or after it ends, respectively.

use info_baseline::LinExtRouter;
use info_bench::{fixed, geomean, obj, secs, BenchRecord, BENCH_PATH};
use info_geom::{Point, Polyline};
use info_model::{
    drc, parse_package, write_package, DesignRules, Layout, NetId, Package, PackageBuilder,
    WireLayer,
};
use info_router::serve::json::Json;
use info_router::{InfoRouter, RouterConfig};
use info_telemetry::TelemetryReport;
use std::time::Instant;

/// Naive-over-indexed DRC time, or 0 when the indexed time is 0.
fn speedup(naive_s: f64, indexed_s: f64) -> f64 {
    if indexed_s > 0.0 {
        naive_s / indexed_s
    } else {
        0.0
    }
}

/// A canonical layout hash as 16 hex digits.
fn hash_json(hash: u64) -> Json {
    Json::Str(format!("{hash:016x}"))
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

/// Paired rounds of the DRC stress timing; the median round is recorded.
const DRC_ROUNDS: usize = 9;

/// Times the DRC stress instance in [`DRC_ROUNDS`] paired rounds, prints
/// the result, and returns the `drc_stress` section with its speedup.
///
/// Each round times the indexed and the naive sweep back to back,
/// alternating which goes first (which cancels process warm-up, e.g.
/// allocator and page cache, that would otherwise book against whichever
/// side always went first), and contributes one naive/indexed ratio. The
/// speedup is the median of those ratios, not the ratio of two best
/// times: pairing within a round cancels machine drift, and the median
/// discards the odd round the machine stole. Every round's ratio is
/// recorded, in round order, so the spread is visible.
fn run_drc_stress() -> (Json, f64) {
    let (pkg, layout) = drc_stress_instance();
    let items = layout.routes().map(|r| r.path.segments().count()).sum::<usize>()
        + layout.vias().count() * 2;
    let time_one = |naive: bool| {
        let t = Instant::now();
        let report =
            if naive { drc::check_naive(&pkg, &layout) } else { drc::check(&pkg, &layout) };
        std::hint::black_box(report.violations().len());
        t.elapsed().as_secs_f64()
    };
    let (mut indexed, mut naive, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..DRC_ROUNDS {
        let (i, n) = if round % 2 == 0 {
            let i = time_one(false);
            (i, time_one(true))
        } else {
            let n = time_one(true);
            (time_one(false), n)
        };
        indexed.push(i);
        naive.push(n);
        ratios.push(speedup(n, i));
    }
    let report = drc::check(&pkg, &layout);
    assert!(report.violations().is_empty(), "stress instance must be violation-free");
    let round_ratios = Json::Arr(ratios.iter().map(|&r| fixed(r, 2)).collect());
    let (indexed_s, naive_s, ratio) =
        (median(&mut indexed), median(&mut naive), median(&mut ratios));
    println!(
        "DRC query path (stress, {items} items): median indexed {indexed_s:.4}s vs naive \
         {naive_s:.4}s, median paired ratio {ratio:.2}x ({DRC_ROUNDS} rounds)"
    );
    let section = obj([
        ("items", Json::Num(items as f64)),
        ("rounds", Json::Num(DRC_ROUNDS as f64)),
        ("indexed_s", fixed(indexed_s, 6)),
        ("naive_s", fixed(naive_s, 6)),
        ("speedup", fixed(ratio, 2)),
        ("round_ratios", round_ratios),
    ]);
    (section, ratio)
}

/// Parses per circuit in the `ingest` section; the median is recorded.
const INGEST_REPS: usize = 9;

/// Times `parse_package` on the netlist text of dense1–5 — what every
/// route request, CLI run and generator pays to ingest a package — and
/// returns the `ingest` section: per circuit, the pad count, the netlist
/// size and the median parse time of [`INGEST_REPS`] parses.
fn run_ingest() -> Json {
    let circuits = (1..=5).map(|idx| {
        let generated = info_gen::dense(idx);
        let (pads, text) = (generated.pads().len(), write_package(&generated));
        let mut times_ms: Vec<f64> = (0..INGEST_REPS)
            .map(|_| {
                let t = Instant::now();
                let pkg = parse_package(&text).expect("a generated netlist parses");
                let ms = t.elapsed().as_secs_f64() * 1e3;
                assert_eq!(pkg.pads().len(), pads);
                ms
            })
            .collect();
        let parse_ms = median(&mut times_ms);
        println!(
            "ingest dense{idx}: {pads} pads, {} bytes, parse {parse_ms:.3} ms (median of \
             {INGEST_REPS})",
            text.len()
        );
        obj([
            ("name", Json::Str(format!("dense{idx}"))),
            ("pads", Json::Num(pads as f64)),
            ("netlist_bytes", Json::Num(text.len() as f64)),
            ("parse_ms", fixed(parse_ms, 4)),
        ])
    });
    obj([("reps", Json::Num(INGEST_REPS as f64)), ("circuits", Json::Arr(circuits.collect()))])
}

/// Labeled counts as one object (labels are unique), so consumers index
/// `counters["searches"]` directly.
fn counts(labeled: &[(&'static str, u64)]) -> Json {
    Json::Obj(labeled.iter().map(|&(label, n)| (label.to_string(), Json::Num(n as f64))).collect())
}

/// Per-net journal summary: one object per net that appears in the
/// route journal (attempt count, expansion work, final outcome, rip-up
/// victims).
fn journal(report: &TelemetryReport) -> Json {
    let nets = report.net_summaries().into_iter().map(|s| {
        obj([
            ("net", Json::Num(f64::from(s.net))),
            ("attempts", Json::Num(f64::from(s.attempts))),
            ("expansions", Json::Num(s.expansions as f64)),
            ("routed", Json::Bool(s.routed)),
            ("last_failure", s.last_failure.map_or(Json::Null, |f| Json::Str(f.label().into()))),
            ("victims", Json::Arr(s.victims.iter().map(|&v| Json::Num(f64::from(v))).collect())),
        ])
    });
    Json::Arr(nets.collect())
}

/// Median of a small sample (sorts in place; even lengths average the
/// middle pair, which is what cancels the alternating first-of-pair
/// order effect across an even round count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timing sample"));
    let n = xs.len();
    if n % 2 == 1 { xs[n / 2] } else { (xs[n / 2 - 1] + xs[n / 2]) / 2.0 }
}

fn main() -> std::io::Result<()> {
    let max_index: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(5);
    // The router runs each job on the caller's thread.
    let mut record = BenchRecord::open(BENCH_PATH, 1)?;
    println!("Table I — Lin-ext vs Ours (synthetic dense suite; see DESIGN.md substitutions)");
    println!(
        "{:<8} {:>6} {:>5} {:>5} {:>5} {:>4} {:>4} | {:>9} {:>9} | {:>12} {:>12} | {:>8} {:>8}",
        "Circuit", "#Chips", "|Q|", "|G|", "|N|", "Lw", "Lv",
        "Lin rt%", "Ours rt%", "Lin WL(um)", "Ours WL(um)", "Lin s", "Ours s"
    );

    let mut ratios_rt = Vec::new();
    let mut ratios_time = Vec::new();
    let mut circuits = Vec::new();
    // Paired-round telemetry overhead measurement for dense2.
    let mut overhead: Option<Json> = None;
    for idx in 1..=max_index {
        let pkg = info_gen::dense(idx);

        let t0 = Instant::now();
        let base = LinExtRouter::new(RouterConfig::default()).route(&pkg);
        let base_time = t0.elapsed();

        // Telemetry on for the measured run: the journal and counters go
        // into BENCH_rdl.json, and the disabled-sink overhead is bounded
        // separately below (`telemetry_overhead`).
        let cfg = RouterConfig::default().with_telemetry();
        let t1 = Instant::now();
        let ours = InfoRouter::new(cfg).route(&pkg);
        let ours_time = t1.elapsed();
        let ours_hash = ours.layout.canonical_hash();
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
                let t0 = Instant::now();
                let on = InfoRouter::new(cfg).route(&pkg);
                *t = t0.elapsed().as_secs_f64();
                assert_eq!(
                    on.layout.canonical_hash(),
                    ours_hash,
                    "telemetry-on rerun must reproduce the dense2 layout"
                );
            };
            let route_off = |t: &mut f64| {
                let t0 = Instant::now();
                let off = InfoRouter::new(RouterConfig::default()).route(&pkg);
                *t = t0.elapsed().as_secs_f64();
                assert_eq!(
                    off.layout.canonical_hash(),
                    ours_hash,
                    "telemetry must not change the dense2 layout"
                );
            };
            let mut on_times = Vec::new();
            let mut off_times = Vec::new();
            let mut deltas = Vec::new();
            // Eight rounds: the median of four moved from -0.71% to
            // +12.01% between runs on one 2-core machine.
            for round in 0..8 {
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
            // `overhead_pct` is the median of the per-round deltas, not
            // derived from the two medians: pairing within a round is
            // what cancels machine drift. The rounds' deltas are recorded
            // in round order so the spread is visible.
            let round_deltas = Json::Arr(deltas.iter().map(|&d| fixed(d, 2)).collect());
            let (on_s, off_s, pct) =
                (median(&mut on_times), median(&mut off_times), median(&mut deltas));
            println!(
                "Telemetry overhead (dense2): median on {on_s:.2}s vs off {off_s:.2}s, \
                 median paired delta {pct:+.2}%"
            );
            overhead = Some(obj([
                ("circuit", Json::Str("dense2".into())),
                ("on_s", fixed(on_s, 4)),
                ("off_s", fixed(off_s, 4)),
                ("overhead_pct", fixed(pct, 2)),
                ("round_deltas_pct", round_deltas),
            ]));
        }

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

        let search = ours.timings.search;
        let report = ours.telemetry.unwrap_or_default();
        circuits.push(obj([
            ("name", Json::Str(format!("dense{idx}"))),
            ("nets", Json::Num(pkg.nets().len() as f64)),
            ("routability_pct", fixed(ours.stats.routability_pct, 3)),
            ("wirelength_um", fixed(ours.stats.total_wirelength_um, 1)),
            ("runtime_s", fixed(ours_time.as_secs_f64(), 4)),
            ("layout_hash", hash_json(ours_hash)),
            (
                "stage_s",
                obj([
                    ("preprocess", fixed(ours.timings.preprocess.as_secs_f64(), 4)),
                    ("concurrent", fixed(ours.timings.concurrent.as_secs_f64(), 4)),
                    ("sequential", fixed(ours.timings.sequential.as_secs_f64(), 4)),
                    ("lp", fixed(ours.timings.lp.as_secs_f64(), 4)),
                ]),
            ),
            (
                "search",
                obj([
                    ("searches", Json::Num(search.searches as f64)),
                    ("nodes_expanded", Json::Num(search.nodes_expanded as f64)),
                    ("heap_peak", Json::Num(search.heap_peak as f64)),
                ]),
            ),
            ("ripup_wall_s", fixed(report.counter("ripup_wall_us") as f64 / 1e6, 4)),
            ("failure_reasons", counts(&report.failure_counts())),
            ("counters", counts(&report.counters)),
            ("journal", journal(&report)),
        ]));
    }
    println!(
        "Comparisons (geo-mean ratios, Lin-ext / Ours): routability {:.3}, runtime {:.3}",
        geomean(ratios_rt),
        geomean(ratios_time)
    );
    println!("(paper: routability 0.794, runtime 0.297)");
    let (stress, stress_speedup) = run_drc_stress();
    let ingest = run_ingest();

    record.set("bench", Json::Str("rdl".into()));
    record.set("generated_by", Json::Str("table1".into()));
    let carried = record.merge("circuits", Json::Arr(circuits));
    if !carried.is_empty() {
        println!("carrying over committed circuit blocks not re-run: {}", carried.join(", "));
    }
    if let Some(overhead) = overhead {
        record.set("telemetry_overhead", overhead);
    }
    record.set("drc_stress", stress);
    record.set("drc_query_speedup", fixed(stress_speedup, 2));
    record.set("ingest", ingest);
    record.save()?;
    println!("wrote {BENCH_PATH}");
    Ok(())
}
