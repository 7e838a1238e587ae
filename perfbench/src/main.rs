//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <route_dense|eco_edit|serve_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--commit <id>] [--out <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced;
//! `--trace 1` is a separate run that times calls into each layer and
//! reports per-layer metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! repeat every latency with its sample count, plus provenance. The exit
//! code is nonzero when any output fails its check. See `README.md`.

use info_rdl::model::{parse_package, NetId, Package};
use info_rdl::router::serve::json::{self, Json};
use info_rdl::router::serve::{
    parse_request, response_json, serve_lines, JobServer, Request, ServeConfig,
};
use info_rdl::{
    EcoChangeSet, EcoStats, InfoRouter, NetStatus, RouteOutcome, RouterConfig, WarmSpaceCache,
};
use perfbench::check::{check_layout, quality};
use perfbench::gen::{self, ServeReq};
use perfbench::staged::{route_staged, Staged};
use perfbench::stats::{mean, median, pct, percentile};
use perfbench::trace::Tracer;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Router threads for `route_dense` and `eco_edit`: one caller using the
/// machine's two cores.
const ROUTER_THREADS: usize = 2;
/// Set-ups per `--trace 0` run; `setup_s` is their median. `route_dense`
/// builds one circuit in about 1.2 s, so it repeats more often than the
/// dense1 workloads, whose set-up generates and routes three circuits in
/// about 3 s: about 10 s of set-up per run either way.
fn setup_reps(a: &Args) -> usize {
    match (a.trace, a.workload.as_str()) {
        (true, _) => 1,
        (false, "route_dense") => 9,
        (false, _) => 3,
    }
}
/// Requests `serve_mix` keeps in flight on its one connection.
const IN_FLIGHT: usize = 2;
/// Requests generated per stream; a run uses a prefix.
const STREAM_LEN: usize = 4000;

/// End-to-end metrics, printed with `--trace 0` on every workload.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("routability_pct", "%"),
    ("wirelength_per_net_um", "um"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload; a layer
/// the workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("model.parse_ms", "ms"),
    ("gen.build_s", "s"),
    ("preprocess.ms", "ms"),
    ("assign.ms", "ms"),
    ("concurrent.ms", "ms"),
    ("concurrent.nets_committed", "count"),
    ("tile.space_build_ms", "ms"),
    ("sequential.ms", "ms"),
    ("sequential.self_ms", "ms"),
    ("sequential.searches", "count"),
    ("sequential.nodes_expanded", "count"),
    ("sequential.window_escalations", "count"),
    ("sequential.cells_rebuilt", "count"),
    ("sequential.legality_cache_hit_pct", "%"),
    ("ripup.attempts", "count"),
    ("ripup.commits", "count"),
    ("ripup.commit_pct", "%"),
    ("ripup.wall_ms", "ms"),
    ("speculative.commits", "count"),
    ("speculative.conflicts", "count"),
    ("speculative.commit_pct", "%"),
    ("pool.steals", "count"),
    ("lpopt.mid_ms", "ms"),
    ("lpopt.final_ms", "ms"),
    ("lpopt.iterations", "count"),
    ("lpopt.components_solved", "count"),
    ("drc.check_ms", "ms"),
    ("eco.plan_ms", "ms"),
    ("eco.reroute_ms", "ms"),
    ("eco.sequential_ms", "ms"),
    ("eco.lp_ms", "ms"),
    ("eco.nets_rerouted", "count"),
    ("eco.cells_invalidated", "count"),
    ("eco.space_warm_hit_pct", "%"),
    ("eco.lp_dirty_nets", "count"),
    ("eco.lp_components_skipped", "count"),
    ("serve.parse_request_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.rejects", "count"),
    ("warm.hit_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_route_ms", "ms"),
    ("trace.traced_route_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(&k[2..], v);
            }
            _ => return Err(format!("expected `--key value` pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !["route_dense", "eco_edit", "serve_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        commit: kv.get("commit").unwrap_or(&"unknown").to_string(),
        out: kv.get("out").map(Into::into),
    })
}

/// Everything one run measured.
#[derive(Default)]
struct Run {
    attempted: usize,
    /// One entry per request (or set-up output) that failed.
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
    /// Every latency sample by request kind, for the results file.
    samples: Vec<(String, Vec<f64>)>,
    tracer: Tracer,
}

impl Run {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one checked output; `Err` marks it failed.
    fn tally(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// `<kind>_p50_ms` and `<kind>_p90_ms` with their sample counts. A
    /// percentile with fewer than ten samples beyond it is not reported.
    fn latency_notes(&mut self, kind: &str, ms: &[f64]) {
        self.samples.push((kind.to_string(), ms.to_vec()));
        let n = ms.len();
        self.notes
            .push(format!("{kind}_p50_ms {:.3} (n={n})", median(ms)));
        self.notes.push(match percentile(ms, 90.0) {
            Some(v) => format!("{kind}_p90_ms {v:.3} (n={n})"),
            None => format!("{kind}_p90_ms not reported (n={n}, needs >= 100)"),
        });
    }
}

/// Routed nets, attempted nets and routed wirelength over the outcomes a
/// run's quality metrics cover.
#[derive(Default)]
struct Quality {
    routed: usize,
    nets: usize,
    wirelength_um: f64,
}

impl Quality {
    fn add(&mut self, (routed, nets, wl): (usize, usize, f64)) {
        self.routed += routed;
        self.nets += nets;
        self.wirelength_um += wl;
    }

    fn report(&self, run: &mut Run) {
        run.set("routability_pct", pct(self.routed as f64, self.nets as f64));
        run.set(
            "wirelength_per_net_um",
            self.wirelength_um / self.routed.max(1) as f64,
        );
    }
}

/// Runs `setup` `reps` times and returns the last result with the median
/// wall time in seconds. Each earlier result goes to `teardown` before the
/// next set-up starts, so no two set-ups coexist in memory.
fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("reps >= 1"), median(&times))
}

/// Full-route output check: a complete answer that passes the reference
/// DRC, with the same hash as every earlier route of the circuit.
fn verify_route(pkg: &Package, out: &RouteOutcome, hash: &mut Option<u64>) -> Result<(), String> {
    if out.completion != info_rdl::router::Completion::Full {
        return Err("route returned a degraded answer".into());
    }
    check_layout(pkg, &out.layout, &out.net_status)?;
    let h = out.layout.canonical_hash();
    match *hash.get_or_insert(h) {
        first if first != h => Err(format!(
            "hash {h:016x} differs from an earlier {first:016x}"
        )),
        _ => Ok(()),
    }
}

/// The process's memory high-water mark in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `routability_pct` and `wirelength_per_net_um` cover the outcomes of
/// the first this-many requests, which every run completes whatever the
/// machine's speed, so both repeat exactly for a seed. On `eco_edit` these
/// are the fixed reference edits, so they repeat across seeds too; 24
/// `serve_mix` requests give each of the three dense1-family circuits the
/// same share of every request kind.
fn quality_prefix(workload: &str) -> usize {
    match workload {
        "route_dense" => 1,
        "eco_edit" => gen::REFERENCE_EDITS,
        _ => 24,
    }
}

// ---------------------------------------------------------------------------
// Traced full routes, shared by the three workloads' traced runs
// ---------------------------------------------------------------------------

/// Staged routes and the untraced twins they were checked against.
#[derive(Default)]
struct TracedRoutes {
    staged: Vec<Staged>,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
}

impl TracedRoutes {
    /// Routes `pkg` in two pairs, each once untraced (`InfoRouter::route`)
    /// and once stage by stage, the untraced route first in one pair and
    /// second in the other. Checks every output and that the canonical
    /// hashes agree, and returns the last untraced outcome. The run's
    /// first pair is preceded by an untimed, checked warm-up route, so no
    /// pair holds the process's cold first route.
    fn pairs(
        &mut self,
        run: &mut Run,
        pkg: &Package,
        cfg: &RouterConfig,
        what: &str,
    ) -> RouteOutcome {
        if self.staged.is_empty() {
            let out = InfoRouter::new(*cfg).route(pkg);
            run.tally(
                &format!("{what} (warm-up)"),
                verify_route(pkg, &out, &mut None),
            );
        }
        self.pair(run, pkg, cfg, what, true);
        self.pair(run, pkg, cfg, what, false)
    }

    /// One pair of [`TracedRoutes::pairs`].
    fn pair(
        &mut self,
        run: &mut Run,
        pkg: &Package,
        cfg: &RouterConfig,
        what: &str,
        untraced_first: bool,
    ) -> RouteOutcome {
        let request = run.tracer.request();
        let mut untraced = None;
        let mut staged = None;
        for leg in 0..2 {
            if (leg == 0) == untraced_first {
                let t = Instant::now();
                untraced = Some(InfoRouter::new(*cfg).route(pkg));
                self.untraced_s.push(t.elapsed().as_secs_f64());
            } else {
                let t = Instant::now();
                staged = Some(route_staged(pkg, cfg, &mut run.tracer, request));
                self.traced_s.push(t.elapsed().as_secs_f64());
            }
        }
        let (out, s) = (untraced.expect("ran"), staged.expect("ran"));
        run.tally(
            &format!("{what} (untraced)"),
            verify_route(pkg, &out, &mut None),
        );
        let (hu, hs) = (out.layout.canonical_hash(), s.layout.canonical_hash());
        run.tally(
            &format!("{what} (traced)"),
            check_layout(pkg, &s.layout, &s.status).and_then(|()| {
                if hu == hs {
                    Ok(())
                } else {
                    Err(format!(
                        "traced hash {hs:016x} != InfoRouter::route hash {hu:016x}"
                    ))
                }
            }),
        );
        run.notes.push(format!(
            "traced {what}: hash {hs:016x}, InfoRouter::route {hu:016x}"
        ));
        self.staged.push(s);
        out
    }

    /// Stage-level per-layer metrics: medians of span times, per-route
    /// means of counts, and ratios over the summed counts.
    fn report(&self, run: &mut Run) {
        let tr = &run.tracer;
        let med = |name: &str| {
            let xs = tr.ms(name);
            if xs.is_empty() {
                0.0
            } else {
                median(&xs)
            }
        };
        let times = [
            ("preprocess.ms", med("preprocess")),
            ("assign.ms", med("assign")),
            ("concurrent.ms", med("concurrent")),
            ("tile.space_build_ms", med("tile.space_build")),
            ("sequential.ms", med("sequential")),
            ("sequential.self_ms", median(&tr.self_ms("sequential"))),
            ("lpopt.mid_ms", med("lpopt.mid")),
            ("lpopt.final_ms", med("lpopt.final")),
            ("drc.check_ms", med("drc")),
        ];
        let s = &self.staged;
        let per = |f: &dyn Fn(&Staged) -> f64| mean(&s.iter().map(f).collect::<Vec<_>>());
        let sum = |label: &str| {
            s.iter()
                .map(|x| x.counters.counter(label) as f64)
                .sum::<f64>()
        };
        let counter = |label: &'static str| move |x: &Staged| x.counters.counter(label) as f64;
        let lp = |x: &Staged, f: &dyn Fn(&info_rdl::router::lpopt::LpOptReport) -> usize| {
            (x.lp_mid.iter().chain(&x.lp_final).map(f).sum::<usize>()) as f64
        };
        let values = [
            (
                "concurrent.nets_committed",
                per(&|x| x.concurrent_committed as f64),
            ),
            ("sequential.searches", per(&|x| x.search.searches as f64)),
            (
                "sequential.nodes_expanded",
                per(&|x| x.search.nodes_expanded as f64),
            ),
            (
                "sequential.window_escalations",
                per(&|x| x.search.window_escalations as f64),
            ),
            ("sequential.cells_rebuilt", per(&counter("cells_rebuilt"))),
            (
                "sequential.legality_cache_hit_pct",
                pct(
                    sum("legality_cache_hits"),
                    sum("legality_cache_hits") + sum("legality_cache_misses"),
                ),
            ),
            ("ripup.attempts", per(&counter("ripup_attempts"))),
            ("ripup.commits", per(&counter("ripup_commits"))),
            (
                "ripup.commit_pct",
                pct(sum("ripup_commits"), sum("ripup_attempts")),
            ),
            ("ripup.wall_ms", per(&counter("ripup_wall_us")) / 1e3),
            ("speculative.commits", per(&counter("speculative_commits"))),
            (
                "speculative.conflicts",
                per(&counter("speculative_conflicts")),
            ),
            (
                "speculative.commit_pct",
                pct(
                    sum("speculative_commits"),
                    sum("speculative_commits") + sum("speculative_conflicts"),
                ),
            ),
            ("pool.steals", per(&counter("pool_steals"))),
            ("lpopt.iterations", per(&|x| lp(x, &|r| r.iterations))),
            (
                "lpopt.components_solved",
                per(&|x| lp(x, &|r| r.components_solved)),
            ),
        ];
        for (k, v) in times.into_iter().chain(values) {
            run.set(k, v);
        }
        // Overhead per pair, so the machine's drift between pairs cancels.
        let mut ratios: Vec<f64> = (self.traced_s.iter().zip(&self.untraced_s))
            .map(|(t, u)| pct(t - u, *u))
            .collect();
        ratios.sort_by(f64::total_cmp);
        run.set("trace.overhead_pct", median(&ratios));
        run.set("trace.untraced_route_ms", median(&self.untraced_s) * 1e3);
        run.set("trace.traced_route_ms", median(&self.traced_s) * 1e3);
        run.notes.push(format!(
            "tracing overhead {:+.2}% (median of {} pairs, range {:+.2}% to {:+.2}%)",
            median(&ratios),
            ratios.len(),
            ratios[0],
            ratios[ratios.len() - 1]
        ));
    }
}

// ---------------------------------------------------------------------------
// route_dense: closed-loop full routes of dense2
// ---------------------------------------------------------------------------

fn route_dense(a: &Args, run: &mut Run) {
    let cfg = RouterConfig::default().with_threads(ROUTER_THREADS);
    let reps = setup_reps(a);
    let (pkg, setup_s) = timed_setup(
        reps,
        || {
            let t = Instant::now();
            let p = gen::dense2();
            run.set("gen.build_s", t.elapsed().as_secs_f64());
            p
        },
        drop,
    );
    if a.trace {
        let mut routes = TracedRoutes::default();
        routes.pairs(run, &pkg, &cfg, "dense2");
        routes.report(run);
        return;
    }
    let router = InfoRouter::new(cfg);
    let (mut lat, mut busy, mut hash, mut q) = (Vec::new(), 0.0, None, Quality::default());
    let mut dt = 0.0;
    while lat.len() < quality_prefix(&a.workload) || busy + dt <= a.seconds {
        let t = Instant::now();
        let out = router.route(&pkg);
        dt = t.elapsed().as_secs_f64();
        busy += dt;
        lat.push(dt * 1e3);
        run.tally("dense2 route", verify_route(&pkg, &out, &mut hash));
        if lat.len() <= quality_prefix(&a.workload) {
            q.add(quality(&out.layout, &out.net_status));
        }
    }
    run.set("peak_rss_mb", peak_rss_mb());
    run.set("setup_s", setup_s);
    run.set("latency_p50_ms", median(&lat));
    run.set("throughput_per_s", lat.len() as f64 / busy);
    q.report(run);
    run.latency_notes("route", &lat);
}

// ---------------------------------------------------------------------------
// eco_edit: closed-loop single-net re-pair ECOs against routed bases
// ---------------------------------------------------------------------------

fn eco_edit(a: &Args, run: &mut Run) {
    let cfg = RouterConfig::default().with_threads(ROUTER_THREADS);
    let reps = setup_reps(a);
    let mut routes = TracedRoutes::default();
    let ((bases, priors, router, cache), setup_s) = timed_setup(
        reps,
        || {
            let t = Instant::now();
            let bases = gen::dense1_family();
            run.set(
                "gen.build_s",
                t.elapsed().as_secs_f64() / bases.len() as f64,
            );
            let cache = Arc::new(WarmSpaceCache::new(4));
            let router = InfoRouter::new(if a.trace { cfg.with_telemetry() } else { cfg })
                .with_warm_cache(Arc::clone(&cache));
            let priors: Vec<RouteOutcome> = if a.trace {
                bases
                    .iter()
                    .enumerate()
                    .map(|(i, b)| routes.pairs(run, b, &cfg, &format!("base {i}")))
                    .collect()
            } else {
                bases.iter().map(|b| router.route(b)).collect()
            };
            (bases, priors, router, cache)
        },
        drop,
    );
    if !a.trace {
        for (i, (b, p)) in bases.iter().zip(&priors).enumerate() {
            run.tally(&format!("base {i} route"), verify_route(b, p, &mut None));
        }
    }

    let edits = gen::eco_edits(a.seed, &bases, STREAM_LEN);
    let (h0, m0) = cache.stats();
    let (mut lat, mut busy, mut q) = (Vec::new(), 0.0, Quality::default());
    let mut ecos: Vec<(EcoStats, f64, f64)> = Vec::new();
    let (t_run, mut dt) = (Instant::now(), 0.0);
    for (i, e) in edits.iter().enumerate() {
        let spent = if a.trace {
            t_run.elapsed().as_secs_f64()
        } else {
            busy
        };
        if lat.len() >= quality_prefix(&a.workload) && spent + dt > a.seconds {
            break;
        }
        let (base, prior, changes) = (&bases[e.base], &priors[e.base], e.changes());
        let t = Instant::now();
        let out = if a.trace {
            let req = run.tracer.request();
            let root = run.tracer.open("eco", None, req);
            // `reroute_delta` plans internally too; this call times the
            // planning step on its own.
            let _ = run
                .tracer
                .time("eco.plan", Some(root), req, || changes.plan(base));
            let out = run.tracer.time("eco.reroute", Some(root), req, || {
                router.reroute_delta(base, prior, &changes)
            });
            run.tracer.close(root);
            out
        } else {
            router.reroute_delta(base, prior, &changes)
        };
        dt = t.elapsed().as_secs_f64();
        busy += dt;
        lat.push(dt * 1e3);
        let checked = out
            .map_err(|e| format!("rejected: {e}"))
            .and_then(|out| verify_eco(base, &changes, &out, 1).map(|fresh| (out, fresh)));
        if let Ok((out, fresh)) = &checked {
            // The edit's own quality: the re-paired net, not the kept nets
            // the outcome copies from the prior.
            if lat.len() <= quality_prefix(&a.workload) {
                q.add(quality(&out.layout, fresh));
            }
            let eco = out.eco.clone().unwrap_or_default();
            ecos.push((
                eco,
                out.timings.sequential.as_secs_f64() * 1e3,
                out.timings.lp.as_secs_f64() * 1e3,
            ));
        }
        run.tally(&format!("edit {i} {e:?}"), checked.map(|_| ()));
    }
    let (h1, m1) = cache.stats();
    run.set("peak_rss_mb", peak_rss_mb());
    if a.trace {
        routes.report(run);
        eco_layer_metrics(run, &ecos);
        run.set("eco.plan_ms", median(&run.tracer.ms("eco.plan")));
        run.set("eco.reroute_ms", median(&run.tracer.ms("eco.reroute")));
        run.set(
            "warm.hit_pct",
            pct((h1 - h0) as f64, (h1 - h0 + m1 - m0) as f64),
        );
        return;
    }
    run.set("setup_s", setup_s);
    run.set("latency_p50_ms", median(&lat));
    run.set("throughput_per_s", lat.len() as f64 / busy);
    q.report(run);
    run.latency_notes("eco", &lat);
}

/// ECO output check: a full answer over the edited design that passes the
/// reference DRC and re-routed exactly `rerouted` nets — one for every
/// `eco_edit` re-pair, none for a `serve_mix` deletion, so no latency
/// distribution mixes searching edits with bookkeeping-only ones. Returns
/// the status of each net the edit routes fresh.
fn verify_eco(
    base: &Package,
    changes: &EcoChangeSet,
    out: &RouteOutcome,
    rerouted: usize,
) -> Result<Vec<(NetId, NetStatus)>, String> {
    let plan = changes.plan(base).map_err(|e| format!("plan: {e}"))?;
    if out.completion != info_rdl::router::Completion::Full {
        return Err("ECO returned a degraded answer".into());
    }
    let n = out.eco.as_ref().map_or(usize::MAX, |e| e.nets_rerouted);
    if n != rerouted {
        return Err(format!(
            "re-routed {n} nets, the workload requires {rerouted}"
        ));
    }
    check_layout(&plan.package, &out.layout, &out.net_status)?;
    plan.fresh
        .iter()
        .map(|&f| match out.net_status.iter().find(|(n, _)| *n == f) {
            Some(&st) => Ok(st),
            None => Err(format!("fresh net {f} has no status")),
        })
        .collect()
}

/// `eco.*` counts from the ECO outcomes of a traced run.
fn eco_layer_metrics(run: &mut Run, ecos: &[(EcoStats, f64, f64)]) {
    let per = |f: &dyn Fn(&EcoStats) -> usize| {
        mean(&ecos.iter().map(|(e, _, _)| f(e) as f64).collect::<Vec<_>>())
    };
    run.set("eco.nets_rerouted", per(&|e| e.nets_rerouted));
    run.set("eco.cells_invalidated", per(&|e| e.cells_invalidated));
    run.set(
        "eco.space_warm_hit_pct",
        100.0 * per(&|e| usize::from(e.space_warm_hit)),
    );
    run.set("eco.lp_dirty_nets", per(&|e| e.lp_dirty_nets));
    run.set(
        "eco.lp_components_skipped",
        per(&|e| e.lp_components_skipped),
    );
    run.set(
        "eco.sequential_ms",
        median(&ecos.iter().map(|x| x.1).collect::<Vec<_>>()),
    );
    run.set(
        "eco.lp_ms",
        median(&ecos.iter().map(|x| x.2).collect::<Vec<_>>()),
    );
}

// ---------------------------------------------------------------------------
// serve_mix: route and delete jobs over the JSON-lines protocol
// ---------------------------------------------------------------------------

/// One client connection to `serve_lines` running on a thread of this
/// process, through two pipes.
struct Wire {
    tx: std::io::PipeWriter,
    rx: std::io::Lines<BufReader<std::io::PipeReader>>,
    server: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Wire {
    fn start() -> Result<Wire, String> {
        let (requests, tx) = std::io::pipe().map_err(|e| e.to_string())?;
        let (rx, responses) = std::io::pipe().map_err(|e| e.to_string())?;
        let server = std::thread::spawn(move || {
            serve_lines(BufReader::new(requests), responses, ServeConfig::default())
        });
        Ok(Wire {
            tx,
            rx: BufReader::new(rx).lines(),
            server,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.tx.write_all(&buf).map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let line = self.rx.next().ok_or("the server closed the connection")?;
        let line = line.map_err(|e| format!("recv: {e}"))?;
        json::parse(&line).map_err(|e| format!("response: {e}"))
    }

    /// Sends `shutdown` and waits until the server has drained and its
    /// thread has ended.
    fn stop(self) -> Result<(), String> {
        let Wire { mut tx, rx, server } = self;
        tx.write_all(b"{\"op\":\"shutdown\"}\n")
            .map_err(|e| format!("send: {e}"))?;
        drop(tx);
        for line in rx {
            line.map_err(|e| format!("recv: {e}"))?;
        }
        server
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

/// Request index of a response id `r<i>`.
fn response_index(resp: &Json) -> Option<usize> {
    resp.get("id")?.as_str()?.strip_prefix('r')?.parse().ok()
}

/// What a correct response to one request must say.
struct Expected {
    hash: u64,
    /// Routed, failed and skipped net counts.
    counts: [usize; 3],
    quality: (usize, usize, f64),
}

impl Expected {
    fn of(out: &RouteOutcome) -> Expected {
        let count = |s: NetStatus| out.net_status.iter().filter(|(_, x)| *x == s).count();
        Expected {
            hash: out.layout.canonical_hash(),
            counts: [
                count(NetStatus::Routed),
                count(NetStatus::Failed),
                count(NetStatus::Skipped),
            ],
            quality: quality(&out.layout, &out.net_status),
        }
    }

    /// Checks a wire response against this expectation; a delete must
    /// also report that it re-routed nothing.
    fn verify(&self, resp: &Json, delete: bool) -> Result<(), String> {
        let status = resp.get("status").and_then(Json::as_str).unwrap_or("?");
        if status != "done" {
            return Err(format!(
                "status '{status}': {}",
                resp.get("error").and_then(Json::as_str).unwrap_or("")
            ));
        }
        let hash = resp.get("hash").and_then(Json::as_str).unwrap_or("?");
        if hash != format!("{:016x}", self.hash) {
            return Err(format!(
                "hash {hash}, the direct call gives {:016x}",
                self.hash
            ));
        }
        for (key, want) in ["routed", "failed", "skipped"].iter().zip(self.counts) {
            let got = resp.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
            if got != want as f64 {
                return Err(format!("{key} = {got}, the direct call gives {want}"));
            }
        }
        if delete {
            let n = resp
                .get("eco")
                .and_then(|e| e.get("nets_rerouted"))
                .and_then(Json::as_f64);
            if n != Some(0.0) {
                return Err(format!(
                    "a deletion re-routed {n:?} nets; the workload requires none"
                ));
            }
        }
        Ok(())
    }
}

/// Direct-call references for every request kind a stream uses: each
/// circuit's full route and each distinct deletion, computed with the
/// configuration the server gives a request without a `config` object.
struct References {
    routes: Vec<Expected>,
    deletes: BTreeMap<(usize, usize), Expected>,
}

impl References {
    fn build(
        run: &mut Run,
        pool: &[Package],
        priors: &[RouteOutcome],
        reqs: &[ServeReq],
    ) -> References {
        let router = InfoRouter::new(RouterConfig::default());
        let mut deletes = BTreeMap::new();
        for req in reqs {
            let ServeReq::Delete { circuit, net } = *req else {
                continue;
            };
            deletes.entry((circuit, net.index())).or_insert_with(|| {
                let changes = EcoChangeSet::new().remove_net(net);
                let out = router.reroute_delta(&pool[circuit], &priors[circuit], &changes);
                let checked = out
                    .map_err(|e| format!("rejected: {e}"))
                    .and_then(|o| verify_eco(&pool[circuit], &changes, &o, 0).map(|_| o));
                let exp = checked.as_ref().map(Expected::of).unwrap_or(Expected {
                    hash: 0,
                    counts: [usize::MAX; 3],
                    quality: (0, 0, 0.0),
                });
                run.tally(
                    &format!("reference delete {net} of circuit {circuit}"),
                    checked.map(|_| ()),
                );
                exp
            });
        }
        References {
            routes: priors.iter().map(Expected::of).collect(),
            deletes,
        }
    }

    fn of(&self, req: ServeReq) -> &Expected {
        match req {
            ServeReq::Route { circuit } => &self.routes[circuit],
            ServeReq::Delete { circuit, net } => &self.deletes[&(circuit, net.index())],
        }
    }
}

/// The pool's netlists, parsed the way the server parses them.
fn parse_pool(texts: &[String], tr: &mut Tracer) -> Vec<Package> {
    texts
        .iter()
        .map(|t| {
            tr.time("model.parse", None, 0, || parse_package(t))
                .expect("generated netlists parse")
        })
        .collect()
}

fn serve_mix(a: &Args, run: &mut Run) {
    if a.trace {
        return serve_mix_traced(a, run);
    }
    let mut stop_errors = Vec::new();
    let (setup, setup_s) = timed_setup(
        setup_reps(a),
        || {
            let family = gen::dense1_family();
            let nets: Vec<usize> = family.iter().map(|p| p.nets().len()).collect();
            let texts = gen::texts(&family);
            let mut wire = Wire::start()?;
            for (c, text) in texts.iter().enumerate() {
                wire.send(&gen::request_line(
                    &format!("w{c}"),
                    ServeReq::Route { circuit: c },
                    text,
                ))?;
            }
            let warm: Vec<Json> = (0..texts.len())
                .map(|_| wire.recv())
                .collect::<Result<_, _>>()?;
            Ok::<_, String>((texts, nets, wire, warm))
        },
        |prev| {
            if let Ok((_, _, wire, _)) = prev {
                stop_errors.extend(wire.stop().err());
            }
        },
    );
    for e in stop_errors {
        run.tally("server stop", Err(e));
    }
    let (texts, nets, mut wire, warm) = match setup {
        Ok(s) => s,
        Err(e) => return run.tally("server set-up", Err(e)),
    };
    let stream = gen::serve_stream(a.seed, &nets, STREAM_LEN);

    // Timed window: one connection, IN_FLIGHT requests outstanding.
    let prefix = quality_prefix(&a.workload);
    let mut inflight: BTreeMap<usize, Instant> = BTreeMap::new();
    let mut responses: Vec<(usize, f64, Json)> = Vec::new();
    let mut sent = 0;
    let t0 = Instant::now();
    let mut window = || -> Result<(), String> {
        loop {
            let more =
                sent < stream.len() && (sent < prefix || t0.elapsed().as_secs_f64() < a.seconds);
            if more && inflight.len() < IN_FLIGHT {
                let req = stream[sent];
                let (ServeReq::Route { circuit } | ServeReq::Delete { circuit, .. }) = req;
                let line = gen::request_line(&format!("r{sent}"), req, &texts[circuit]);
                inflight.insert(sent, Instant::now());
                wire.send(&line)?;
                sent += 1;
                continue;
            }
            if inflight.is_empty() {
                return Ok(());
            }
            let resp = wire.recv()?;
            let i =
                response_index(&resp).ok_or(format!("response without a request id: {resp}"))?;
            let t = inflight
                .remove(&i)
                .ok_or(format!("response for unknown request r{i}"))?;
            responses.push((i, t.elapsed().as_secs_f64() * 1e3, resp));
        }
    };
    let outcome = window();
    let wall = t0.elapsed().as_secs_f64();
    run.set("peak_rss_mb", peak_rss_mb());
    if let Err(e) = outcome.and_then(|()| wire.stop()) {
        return run.tally("serve window", Err(e));
    }

    // Checks, outside the window: every response against a direct call.
    let pool = parse_pool(&texts, &mut run.tracer);
    let router = InfoRouter::new(RouterConfig::default());
    let priors: Vec<RouteOutcome> = pool.iter().map(|p| router.route(p)).collect();
    for (c, (p, o)) in pool.iter().zip(&priors).enumerate() {
        run.tally(
            &format!("reference route of circuit {c}"),
            verify_route(p, o, &mut None),
        );
    }
    let refs = References::build(run, &pool, &priors, &stream[..sent]);
    // Warm-up responses arrive in completion order; `w<c>` names the circuit.
    for resp in &warm {
        let circuit = resp
            .get("id")
            .and_then(Json::as_str)
            .and_then(|id| id.strip_prefix('w'));
        let verdict = match circuit.and_then(|c| c.parse::<usize>().ok()) {
            Some(c) if c < refs.routes.len() => refs.routes[c].verify(resp, false),
            _ => Err(format!("unexpected warm-up response {resp}")),
        };
        run.tally("warm-up route", verdict);
    }
    let (mut route_ms, mut eco_ms, mut q) = (Vec::new(), Vec::new(), Quality::default());
    responses.sort_by_key(|r| r.0);
    for (i, ms, resp) in &responses {
        let req = stream[*i];
        let delete = matches!(req, ServeReq::Delete { .. });
        let exp = refs.of(req);
        run.tally(&format!("request r{i} {req:?}"), exp.verify(resp, delete));
        if *i < prefix {
            q.add(exp.quality);
        }
        if delete { &mut eco_ms } else { &mut route_ms }.push(*ms);
    }
    run.set("setup_s", setup_s);
    run.set("latency_p50_ms", median(&route_ms));
    run.set("throughput_per_s", responses.len() as f64 / wall);
    q.report(run);
    run.latency_notes("route", &route_ms);
    run.latency_notes("eco", &eco_ms);
}

/// The traced `serve_mix` run: the pool circuits routed stage by stage
/// (checked against `InfoRouter::route`), then the request stream
/// replayed through the calls `serve_lines` makes — `parse_request`,
/// `JobServer::submit`, `response_json` — with a span around each.
fn serve_mix_traced(a: &Args, run: &mut Run) {
    let t = Instant::now();
    let family = gen::dense1_family();
    run.set(
        "gen.build_s",
        t.elapsed().as_secs_f64() / family.len() as f64,
    );
    let texts = gen::texts(&family);
    let pool = parse_pool(&texts, &mut run.tracer);
    let mut routes = TracedRoutes::default();
    let cfg = RouterConfig::default();
    let priors: Vec<RouteOutcome> = pool
        .iter()
        .enumerate()
        .map(|(c, p)| routes.pairs(run, p, &cfg, &format!("circuit {c}")))
        .collect();
    let nets: Vec<usize> = pool.iter().map(|p| p.nets().len()).collect();
    let stream = gen::serve_stream(a.seed, &nets, STREAM_LEN);
    let refs = References::build(run, &pool, &priors, &stream);

    let (server, results) = JobServer::start(ServeConfig::default());
    for (c, text) in texts.iter().enumerate() {
        let line = gen::request_line(&format!("w{c}"), ServeReq::Route { circuit: c }, text);
        match parse_request(&line) {
            Ok(Request::Route(job, _)) => drop(server.submit(*job)),
            _ => return run.tally("warm-up request", Err("did not parse as a route".into())),
        }
    }
    for _ in 0..texts.len() {
        let verdict = match results.recv() {
            Ok(r) => {
                let c: usize = r.id[1..].parse().expect("warm-up ids are w<circuit>");
                let resp = response_json(&r, false).to_string();
                json::parse(&resp)
                    .map_err(|e| e.to_string())
                    .and_then(|j| refs.routes[c].verify(&j, false))
            }
            Err(_) => Err("the server stopped".into()),
        };
        run.tally("warm-up route", verdict);
    }

    let (h0, m0) = server.warm_cache().stats();
    let tr = &mut run.tracer;
    let mut inflight: BTreeMap<usize, (Instant, usize, u64)> = BTreeMap::new();
    let (mut queue_ms, mut route_service_ms, mut delete_service_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut ecos: Vec<(EcoStats, f64, f64)> = Vec::new();
    let mut checked: Vec<(usize, Result<(), String>)> = Vec::new();
    let (mut sent, mut rejects) = (0, 0);
    let t0 = Instant::now();
    loop {
        let more = sent < stream.len() && t0.elapsed().as_secs_f64() < a.seconds;
        if more && inflight.len() < IN_FLIGHT {
            let (i, req) = (sent, stream[sent]);
            sent += 1;
            let (ServeReq::Route { circuit } | ServeReq::Delete { circuit, .. }) = req;
            let id = tr.request();
            let root = tr.open("request", None, id);
            let line = gen::request_line(&format!("r{i}"), req, &texts[circuit]);
            let _ = tr.time("model.parse", Some(root), id, || {
                parse_package(&texts[circuit])
            });
            let parsed = tr.time("serve.parse_request", Some(root), id, || {
                parse_request(&line)
            });
            let Ok(Request::Route(job, _)) = parsed else {
                tr.close(root);
                checked.push((i, Err("the request did not parse".into())));
                continue;
            };
            if let Some(changes) = &job.changes {
                let _ = tr.time("eco.plan", Some(root), id, || changes.plan(&job.package));
            }
            let submitted = Instant::now();
            if let Err(reject) = server.submit(*job) {
                rejects += 1;
                tr.close(root);
                checked.push((i, Err(format!("rejected: {}", reject.as_str()))));
                continue;
            }
            inflight.insert(i, (submitted, root, id));
            continue;
        }
        if inflight.is_empty() {
            break;
        }
        let Ok(r) = results.recv() else { break };
        let Some(i) = r.id.strip_prefix('r').and_then(|s| s.parse::<usize>().ok()) else {
            continue;
        };
        let Some((submitted, root, id)) = inflight.remove(&i) else {
            continue;
        };
        let latency = submitted.elapsed().as_secs_f64() * 1e3;
        let service = r.elapsed.as_secs_f64() * 1e3;
        queue_ms.push(latency - service);
        let resp = tr.time("serve.encode", Some(root), id, || {
            response_json(&r, false).to_string()
        });
        tr.close(root);
        let req = stream[i];
        let delete = matches!(req, ServeReq::Delete { .. });
        if delete {
            &mut delete_service_ms
        } else {
            &mut route_service_ms
        }
        .push(service);
        let verdict = json::parse(&resp)
            .map_err(|e| e.to_string())
            .and_then(|j| refs.of(req).verify(&j, delete));
        if let (Ok(out), ServeReq::Delete { .. }) = (&r.outcome, req) {
            let eco = out.eco.clone().unwrap_or_default();
            ecos.push((
                eco,
                out.timings.sequential.as_secs_f64() * 1e3,
                out.timings.lp.as_secs_f64() * 1e3,
            ));
        }
        checked.push((i, verdict));
    }
    let (h1, m1) = server.warm_cache().stats();
    server.shutdown();
    checked.extend(
        inflight
            .keys()
            .map(|&i| (i, Err("no result arrived".to_string()))),
    );
    for (i, verdict) in checked {
        run.tally(&format!("request r{i} {:?}", stream[i]), verdict);
    }
    routes.report(run);
    eco_layer_metrics(run, &ecos);
    let tr = &run.tracer;
    let metrics = [
        ("model.parse_ms", median(&tr.ms("model.parse"))),
        ("eco.plan_ms", median(&tr.ms("eco.plan"))),
        ("eco.reroute_ms", median(&delete_service_ms)),
        (
            "serve.parse_request_ms",
            median(&tr.ms("serve.parse_request")),
        ),
        ("serve.encode_ms", median(&tr.ms("serve.encode"))),
        ("serve.queue_wait_ms", median(&queue_ms)),
        ("serve.service_ms", median(&route_service_ms)),
        ("serve.rejects", rejects as f64),
        (
            "warm.hit_pct",
            pct((h1 - h0) as f64, (h1 - h0 + m1 - m0) as f64),
        ),
    ];
    for (k, v) in metrics {
        run.set(k, v);
    }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

fn finish(a: &Args, mut run: Run) -> ExitCode {
    let names: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        // A layer the workload bypasses has no samples and reads 0; an
        // end-to-end metric that was not measured fails the run.
        let mut v = run.metrics.get(name).copied().unwrap_or(f64::NAN);
        if !v.is_finite() {
            if !a.trace {
                run.failures.push(format!("metric {name} was not measured"));
            }
            v = 0.0;
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let failed = run.failures.len();
    let correct = failed == 0;
    let threads = if a.workload == "serve_mix" {
        format!(
            "{} per job, {} workers",
            RouterConfig::default().threads,
            ServeConfig::default().workers
        )
    } else {
        ROUTER_THREADS.to_string()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let provenance = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \"nproc\": {nproc}, \"router_threads\": \"{threads}\"}}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        Json::Str(a.commit.clone()),
    );
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        metrics.join(", ")
    );
    for f in run.failures.iter().take(20) {
        eprintln!("FAILED {f}");
    }
    run.notes.push(format!(
        "error_pct {:.3} ({failed} of {})",
        pct(failed as f64, run.attempted as f64),
        run.attempted
    ));
    for n in &run.notes {
        println!("{n}");
    }
    println!("provenance {provenance}");
    if let Some(dir) = &a.out {
        let notes: Vec<String> = run
            .notes
            .iter()
            .map(|n| Json::Str(n.clone()).to_string())
            .collect();
        let spans = if a.trace {
            run.tracer.to_json()
        } else {
            "[]".to_string()
        };
        let samples: Vec<String> = run
            .samples
            .iter()
            .map(|(kind, ms)| {
                let xs: Vec<String> = ms.iter().map(|v| format!("{v:.3}")).collect();
                format!("\"{kind}\": [{}]", xs.join(", "))
            })
            .collect();
        let body = format!(
            "{{\n\"provenance\": {provenance},\n\"result\": {result},\n\"notes\": [{}],\n\"latencies_ms\": {{{}}},\n\"spans\": {spans}\n}}\n",
            notes.join(", "),
            samples.join(", ")
        );
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            a.workload,
            a.seed,
            u8::from(a.trace)
        ));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <route_dense|eco_edit|serve_mix> --seed <n> --seconds <s> --trace <0|1> [--commit <id>] [--out <dir>]");
            return ExitCode::from(2);
        }
    };
    let mut run = Run::default();
    match a.workload.as_str() {
        "route_dense" => route_dense(&a, &mut run),
        "eco_edit" => eco_edit(&a, &mut run),
        _ => serve_mix(&a, &mut run),
    }
    finish(&a, run)
}
