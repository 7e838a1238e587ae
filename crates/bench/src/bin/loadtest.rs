//! Serve-path load test: `loadtest [jobs] [workers]` pushes N concurrent
//! dense1 jobs through the [`JobServer`] worker pool and reports
//! throughput and service-latency percentiles.
//!
//! Three contracts are enforced (nonzero exit on violation):
//!
//! - **byte identity** — every concurrent job's layout hash equals the
//!   single-job direct `InfoRouter::route` hash;
//! - **warm-cache reuse** — with identical jobs, the shared space cache
//!   must see at least one hit;
//! - **scaling** — with 4+ workers on a 4+ core machine, throughput must
//!   be at least 2x the serial rate (gate skipped on smaller machines).
//!   The serial rate is measured *with the same warm-space benefit* the
//!   pool gets (one cold route plus N-1 warm-cache routes), so the
//!   comparison is pool-vs-serial scheduling, not cache-vs-no-cache.
//!
//! The summary replaces the top-level `"loadtest"` section of
//! `BENCH_rdl.json` (through [`BenchRecord`], which carries every other
//! section unchanged), so CI's artifact upload carries it alongside the
//! Table I numbers. A record that cannot be read or written exits
//! nonzero.

use info_bench::{fixed, obj, BenchRecord, BENCH_PATH};
use info_gen::dense;
use info_router::serve::json::Json;
use info_router::serve::{JobRequest, JobServer, ServeConfig};
use info_router::{InfoRouter, RouterConfig, WarmSpaceCache};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn percentile(sorted: &[Duration], pct: usize) -> Duration {
    let idx = (sorted.len().saturating_sub(1) * pct) / 100;
    sorted[idx]
}

fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let jobs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let mut record = BenchRecord::open(BENCH_PATH, workers)?;

    let pkg = Arc::new(dense(1));
    let rcfg = RouterConfig::default();

    // Single-job reference: the hash every concurrent job must reproduce,
    // and the serial-time denominator for the speedup figure. The serial
    // leg gets its own warm-space cache so it pays exactly what a serial
    // worker would for N identical jobs: one cold build, then N-1 warm
    // starts. The old measurement timed a single *cold* route and scaled
    // it by N, while the pool's wall clock enjoyed N-1 warm hits — the
    // denominator was inflated by (N-1) space builds the pool never did,
    // and the printed "speedup" swung below 1.0 on machines where the
    // pool was genuinely fine (0.94x with warm_hits 7 on one core).
    let serial_cache = Arc::new(WarmSpaceCache::new(2));
    let t0 = Instant::now();
    let direct =
        InfoRouter::new(rcfg).with_warm_cache(Arc::clone(&serial_cache)).route(&pkg);
    let serial_cold = t0.elapsed();
    let want = direct.layout.canonical_hash();
    let t0 = Instant::now();
    let rewarm = InfoRouter::new(rcfg).with_warm_cache(Arc::clone(&serial_cache)).route(&pkg);
    let serial_warm = t0.elapsed();
    assert_eq!(
        rewarm.layout.canonical_hash(),
        want,
        "warm-start direct route must reproduce the cold layout"
    );
    // Modeled serial wall for N jobs with the same cache benefit the
    // pool gets: one cold route, N-1 warm ones.
    let serial_total =
        serial_cold.as_secs_f64() + serial_warm.as_secs_f64() * jobs.saturating_sub(1) as f64;
    println!(
        "direct route: dense1 ({} nets) cold {:.3}s, warm {:.3}s, hash {want:016x}",
        pkg.nets().len(),
        serial_cold.as_secs_f64(),
        serial_warm.as_secs_f64()
    );

    let scfg = ServeConfig {
        workers,
        queue_capacity: jobs.max(1),
        ..ServeConfig::default()
    };
    let (server, results) = JobServer::start(scfg);
    let t0 = Instant::now();
    for i in 0..jobs {
        server
            .submit(JobRequest {
                id: format!("load-{i}"),
                package: Arc::clone(&pkg),
                cfg: rcfg,
                deadline: None,
                changes: None,
            })
            .unwrap_or_else(|r| panic!("submit load-{i} rejected: {r:?}"));
    }
    let mut latencies = Vec::with_capacity(jobs);
    let mut mismatches = 0usize;
    for _ in 0..jobs {
        let r = results
            .recv_timeout(Duration::from_secs(3600))
            .expect("job result");
        latencies.push(r.elapsed);
        match r.outcome {
            Ok(out) => {
                let got = out.layout.canonical_hash();
                if got != want {
                    eprintln!("{}: HASH MISMATCH {got:016x} != {want:016x}", r.id);
                    mismatches += 1;
                }
            }
            Err(e) => {
                eprintln!("{}: job failed: {e}", r.id);
                mismatches += 1;
            }
        }
    }
    let wall = t0.elapsed();
    let (hits, misses) = server.warm_cache().stats();
    server.shutdown();

    latencies.sort();
    let p50 = percentile(&latencies, 50);
    let p99 = percentile(&latencies, 99);
    let throughput = jobs as f64 / wall.as_secs_f64();
    let speedup = serial_total / wall.as_secs_f64();
    println!(
        "{jobs} jobs x {workers} workers: wall {:.3}s, {throughput:.2} jobs/s, \
         p50 {:.1}ms, p99 {:.1}ms, speedup {speedup:.2}x, warm {hits} hits / {misses} misses",
        wall.as_secs_f64(),
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
    );

    if mismatches > 0 {
        eprintln!("{mismatches} of {jobs} jobs diverged from the direct route");
        std::process::exit(1);
    }
    if jobs > 1 && hits == 0 {
        eprintln!("warm cache saw no reuse across {jobs} identical jobs");
        std::process::exit(1);
    }
    // Scaling regression gate: with 4+ workers on a machine that can
    // actually run them (4+ cores), anything under 2x over serial means
    // the worker pool is serializing somewhere (lock held across a
    // route, queue starvation). Skipped on smaller machines, where
    // sub-serial throughput is the hardware's fault, not the pool's.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if workers >= 4 && cores >= 4 && speedup < 2.0 {
        eprintln!(
            "speedup {speedup:.2}x with {workers} workers on {cores} cores is below the 2.0x floor"
        );
        std::process::exit(1);
    }

    let summary = obj([
        ("jobs", Json::Num(jobs as f64)),
        ("workers", Json::Num(workers as f64)),
        ("wall_s", fixed(wall.as_secs_f64(), 4)),
        ("throughput_jobs_s", fixed(throughput, 2)),
        ("p50_ms", fixed(p50.as_secs_f64() * 1e3, 1)),
        ("p99_ms", fixed(p99.as_secs_f64() * 1e3, 1)),
        // `serial_s` is the modeled per-job serial cost (cold + N-1 warm,
        // averaged) so speedup == serial_s * jobs / wall_s still holds;
        // the cold/warm split is published alongside it.
        ("serial_s", fixed(serial_total / jobs.max(1) as f64, 4)),
        ("serial_cold_s", fixed(serial_cold.as_secs_f64(), 4)),
        ("serial_warm_s", fixed(serial_warm.as_secs_f64(), 4)),
        ("speedup", fixed(speedup, 2)),
        ("warm_hits", Json::Num(hits as f64)),
        ("warm_misses", Json::Num(misses as f64)),
        ("hash", Json::Str(format!("{want:016x}"))),
    ]);
    record.set("loadtest", summary);
    record.save()?;
    println!("updated {BENCH_PATH} (loadtest section)");
    Ok(())
}
