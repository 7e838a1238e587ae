//! ECO sweep: `eco_sweep [max_dense] [--gate PCT]` measures every
//! single-net-deletion ECO and one single-net re-pair per net on
//! dense1..=max_dense (default 3).
//!
//! For each circuit the base design is routed once through the full
//! five-stage flow, then each net is deleted in turn and re-routed as a
//! delta via [`InfoRouter::reroute_delta`] against a shared
//! [`WarmSpaceCache`] keyed on the prior layout — the deployment shape
//! the serve `"eco"` job kind uses. Then each net is re-paired in turn
//! onto the free bump pad nearest its bump terminal, which re-routes
//! that net through a search in a space derived from the cached prior
//! space. Reported per circuit: mean/max ECO wall time for deletions,
//! the deletion mean as a percentage of the full-route time, mean/max
//! re-pair time, the warm-cache hit counts that prove the "one
//! build, N-1 warm hits" contract, and how many of the ECOs ran the
//! touched-component LP (`lp_passes`) and how many of those passes its
//! safety net reverted (`lp_reverted`).
//!
//! Three contracts are enforced (nonzero exit on violation):
//!
//! - **legality** — every ECO outcome is geometrically clean (violations
//!   only `Disconnected` on nets the outcome itself declares unrouted);
//! - **warm re-pairs** — every re-pair after the first on a circuit
//!   derives its space from a warm hit on the prior's cached space (a
//!   count, so it does not depend on the runner's speed);
//! - **incrementality** — with `--gate PCT`, the mean single-net
//!   deletion ECO time on every measured circuit must stay under PCT% of
//!   that circuit's full-route time (CI runs `eco_sweep 1 --gate 5`).
//!
//! The per-circuit summaries are merged into the `"eco"` section of
//! `BENCH_rdl.json` through [`BenchRecord`]: a measured circuit replaces
//! its recorded entry, the others are carried, and the rest of the file
//! is untouched. Suite circuits no run has measured are listed under
//! `eco.skipped` (and announced on stderr) — a partial sweep never
//! publishes a file that silently looks complete. A record that cannot
//! be read or written exits nonzero.

use info_bench::{fixed, obj, BenchRecord, BENCH_PATH};
use info_gen::dense;
use info_router::serve::json::Json;
use info_model::{Package, PadId};
use info_router::{
    EcoChangeSet, InfoRouter, NetStatus, RouteOutcome, RouterConfig, WarmSpaceCache,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn geom_clean(out: &RouteOutcome) -> bool {
    use info_model::drc::Violation;
    let unrouted: std::collections::BTreeSet<usize> = out
        .net_status
        .iter()
        .filter(|(_, st)| *st != NetStatus::Routed)
        .map(|(id, _)| id.index())
        .collect();
    out.drc
        .violations()
        .iter()
        .all(|v| matches!(v, Violation::Disconnected { net } if unrouted.contains(&net.index())))
}

/// One re-pair per net: the net keeps an io terminal and moves its other
/// end to the free bump pad nearest that end (ties to the lower pad id).
/// Empty when the circuit has no free bump pad.
fn re_pairs(pkg: &Package) -> Vec<EcoChangeSet> {
    let used: BTreeSet<PadId> = pkg.nets().iter().flat_map(|n| [n.a, n.b]).collect();
    let free: Vec<&info_model::Pad> =
        pkg.pads().iter().filter(|p| !p.is_io() && !used.contains(&p.id)).collect();
    pkg.nets()
        .iter()
        .filter_map(|n| {
            let (io, far) = if pkg.pad(n.a).is_io() { (n.a, n.b) } else { (n.b, n.a) };
            let at = pkg.pad(far).center;
            let bump = free
                .iter()
                .min_by_key(|p| ((p.center.x - at.x).abs() + (p.center.y - at.y).abs(), p.id))?;
            Some(EcoChangeSet::new().re_pair(n.id, io, bump.id))
        })
        .collect()
}

fn main() -> std::io::Result<()> {
    let mut max_dense = 3usize;
    let mut gate_pct: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--gate" => {
                gate_pct = args.next().and_then(|v| v.parse().ok());
                if gate_pct.is_none() {
                    eprintln!("error: --gate requires a percentage");
                    std::process::exit(2);
                }
            }
            _ => match a.parse::<usize>() {
                Ok(n) if (1..=5).contains(&n) => max_dense = n,
                _ => {
                    eprintln!("usage: eco_sweep [max_dense 1-5] [--gate PCT]");
                    std::process::exit(2);
                }
            },
        }
    }

    let rcfg = RouterConfig::default();
    let mut record = BenchRecord::open(BENCH_PATH, 1)?;
    let mut sections = Vec::new();
    let mut gate_failed = false;
    for d in 1..=max_dense {
        let pkg = dense(d);
        let nets = pkg.nets().len();

        let t0 = Instant::now();
        let prior = InfoRouter::new(rcfg).route(&pkg);
        let full = t0.elapsed();
        println!(
            "dense{d}: full route {} nets in {:.3}s, hash {:016x}",
            nets,
            full.as_secs_f64(),
            prior.layout.canonical_hash()
        );

        let cache = Arc::new(WarmSpaceCache::new(2));
        let router = InfoRouter::new(rcfg).with_warm_cache(Arc::clone(&cache));
        let mut times: Vec<Duration> = Vec::with_capacity(nets);
        let mut rerouted_total = 0usize;
        let mut illegal = 0usize;
        // Touched-component LP passes run, and passes reverted, over all
        // of this circuit's ECOs.
        let (mut lp_passes, mut lp_reverted) = (0usize, 0usize);
        let mut count_lp = |out: &RouteOutcome| {
            if let Some(s) = &out.eco {
                lp_passes += usize::from(s.lp_dirty_nets > 0);
                lp_reverted += usize::from(s.lp_reverted);
            }
        };
        for net in pkg.nets() {
            let changes = EcoChangeSet::new().remove_net(net.id);
            let t0 = Instant::now();
            let out = router
                .reroute_delta(&pkg, &prior, &changes)
                .unwrap_or_else(|e| panic!("dense{d}: delete net {}: {e:?}", net.id.index()));
            times.push(t0.elapsed());
            if !geom_clean(&out) {
                eprintln!(
                    "dense{d}: deleting net {} left DRC violations: {:?}",
                    net.id.index(),
                    out.drc.violations()
                );
                illegal += 1;
            }
            rerouted_total += out.eco.as_ref().map_or(0, |s| s.nets_rerouted);
            count_lp(&out);
        }

        let mut repair_times: Vec<Duration> = Vec::with_capacity(nets);
        let (mut repair_hits, mut cold_repairs) = (0usize, 0usize);
        for (k, changes) in re_pairs(&pkg).iter().enumerate() {
            let t0 = Instant::now();
            let out = router
                .reroute_delta(&pkg, &prior, changes)
                .unwrap_or_else(|e| panic!("dense{d}: re-pair net {k}: {e:?}"));
            repair_times.push(t0.elapsed());
            if !geom_clean(&out) {
                eprintln!(
                    "dense{d}: re-pairing net {k} left DRC violations: {:?}",
                    out.drc.violations()
                );
                illegal += 1;
            }
            count_lp(&out);
            let hit = out.eco.as_ref().is_some_and(|s| s.space_warm_hit);
            repair_hits += usize::from(hit);
            if k > 0 && !hit {
                cold_repairs += 1;
            }
        }

        let (hits, misses) = cache.stats();
        let mean_of = |ts: &[Duration]| ts.iter().sum::<Duration>() / ts.len().max(1) as u32;
        let max_of = |ts: &[Duration]| ts.iter().max().copied().unwrap_or_default();
        let (mean, max) = (mean_of(&times), max_of(&times));
        let (repair_mean, repair_max) = (mean_of(&repair_times), max_of(&repair_times));
        let mean_pct = 100.0 * mean.as_secs_f64() / full.as_secs_f64();
        println!(
            "dense{d}: {nets} single-net ECOs: mean {:.1}ms ({mean_pct:.2}% of full), \
             max {:.1}ms, {rerouted_total} nets re-routed total; {} re-pairs: mean {:.1}ms, \
             max {:.1}ms, {repair_hits} warm; warm {hits} hits / {misses} misses; \
             {lp_reverted} of {lp_passes} LP passes reverted",
            mean.as_secs_f64() * 1e3,
            max.as_secs_f64() * 1e3,
            repair_times.len(),
            repair_mean.as_secs_f64() * 1e3,
            repair_max.as_secs_f64() * 1e3,
        );

        if cold_repairs > 0 {
            eprintln!(
                "dense{d}: {cold_repairs} re-pairs after the first missed the warm space \
                 cache; every edit against one prior must share its cached space"
            );
            std::process::exit(1);
        }
        if illegal > 0 {
            eprintln!("dense{d}: {illegal} ECOs were geometrically illegal");
            std::process::exit(1);
        }
        if let Some(gate) = gate_pct {
            if mean_pct > gate {
                eprintln!(
                    "dense{d}: GATE FAILED: mean single-net ECO is {mean_pct:.2}% of the \
                     full-route time (budget {gate}%)"
                );
                gate_failed = true;
            }
        }

        sections.push((
            format!("dense{d}"),
            obj([
                ("nets", Json::Num(nets as f64)),
                ("full_s", fixed(full.as_secs_f64(), 4)),
                ("eco_mean_ms", fixed(mean.as_secs_f64() * 1e3, 2)),
                ("eco_max_ms", fixed(max.as_secs_f64() * 1e3, 2)),
                ("eco_mean_pct", fixed(mean_pct, 2)),
                ("nets_rerouted_total", Json::Num(rerouted_total as f64)),
                ("repairs", Json::Num(repair_times.len() as f64)),
                ("repair_mean_ms", fixed(repair_mean.as_secs_f64() * 1e3, 2)),
                ("repair_max_ms", fixed(repair_max.as_secs_f64() * 1e3, 2)),
                ("repair_warm_hits", Json::Num(repair_hits as f64)),
                ("warm_hits", Json::Num(hits as f64)),
                ("warm_misses", Json::Num(misses as f64)),
                ("lp_passes", Json::Num(lp_passes as f64)),
                ("lp_reverted", Json::Num(lp_reverted as f64)),
            ]),
        ));
    }

    if gate_failed {
        std::process::exit(1);
    }

    // Circuits of the dense suite that neither this run nor the record
    // has measured are listed as skipped — in the JSON and on stderr —
    // instead of silently publishing a file that looks complete. (The
    // suite is dense1..=5; this run covered 1..=max_dense.)
    let recorded = record.get("eco").and_then(Json::as_obj).unwrap_or_default();
    let skipped: Vec<String> = (1..=5)
        .map(|d| format!("dense{d}"))
        .filter(|name| !sections.iter().chain(recorded).any(|(n, _)| n == name))
        .collect();
    if !skipped.is_empty() {
        eprintln!(
            "note: no ECO measurements for {} (this run swept dense1..=dense{max_dense}; \
             pass a larger max_dense to cover them)",
            skipped.join(", ")
        );
    }
    let skipped = Json::Arr(skipped.into_iter().map(Json::Str).collect());
    sections.push(("skipped".to_string(), skipped));
    record.merge("eco", Json::Obj(sections));
    record.save()?;
    println!("updated {BENCH_PATH} (eco section)");
    Ok(())
}
