//! Quick development check: run only the via-based router on one circuit
//! and print its layout hash, work counters and the process's peak
//! resident memory (VmHWM). `oursonly [idx]`.
use std::time::Instant;
fn main() {
    let idx: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let pkg = info_gen::dense(idx);
    let cfg = info_router::RouterConfig::default().with_telemetry();
    let t = Instant::now();
    let out = info_router::InfoRouter::new(cfg).route(&pkg);
    println!("dense{idx} OURS: {} in {:?} (conc {} seq {} fail {:?})",
        out.stats, t.elapsed(), out.concurrent_routed, out.sequential_routed, out.failed);
    println!("  sequential {:?}  hash {:016x}", out.timings.sequential, out.layout.canonical_hash());
    if let Some(rep) = &out.telemetry {
        println!(
            "  ripup_wall {:.3}s  trials {} committed {} refuted attempts {}",
            rep.counter("ripup_wall_us") as f64 / 1e6,
            rep.counter("ripup_attempts"),
            rep.counter("ripup_commits"),
            rep.counter("ripup_refuted"),
        );
        println!(
            "  cells rebuilt {}  layer-cells reused {}",
            rep.counter("cells_rebuilt"),
            rep.counter("layer_cells_reused"),
        );
        println!(
            "  lp {:?}  simplex iterations {}  passes reverted {}/{}",
            out.timings.lp,
            rep.counter("lp_simplex_iterations"),
            rep.counter("lp_reverted"),
            rep.counter("lp_passes"),
        );
        println!(
            "  tile slots peak {}  live tiles peak {}  compactions {}",
            rep.counter("tile_slots_peak"),
            rep.counter("live_tiles_peak"),
            rep.counter("tile_compactions"),
        );
    }
    match vm_hwm_mb() {
        Some(mb) => println!("  VmHWM {mb:.1} MB"),
        None => println!("  VmHWM unavailable"),
    }
}

/// The process's resident-memory high-water mark in MB, from
/// `/proc/self/status` (Linux only).
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
