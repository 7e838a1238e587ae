//! Regenerates the Fig. 7 claim: LP-based layout optimization shortens an
//! initial routing solution, converging within the paper's observed
//! iteration budget (≤ 50 on the largest benchmark). `after` is the
//! wirelength of the layout that is kept; `applied` says whether the
//! optimized layout survived the safety net (`no` = reverted to the
//! initial one because applying it added DRC violations or wirelength).
//!
//! Usage: `fig7_lpopt [max_index]` (default 3).

use info_router::{lpopt, FlowCtx, InfoRouter, RouterConfig};
use std::time::Instant;

fn main() {
    let max_index: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    println!("Fig. 7 — wirelength before/after LP-based layout optimization");
    println!(
        "{:<8} | {:>12} | {:>12} | {:>7} | {:>6} | {:>7} | {:>8}",
        "Circuit", "before (um)", "after (um)", "gain %", "iters", "applied", "time (s)"
    );
    for idx in 1..=max_index {
        let pkg = info_gen::dense(idx);
        // Route without any LP to get the raw initial solution.
        let out = InfoRouter::new(RouterConfig::default().without_lp()).route(&pkg);
        let mut layout = out.layout.clone();
        let t = Instant::now();
        let rep =
            lpopt::optimize(&pkg, &mut layout, &RouterConfig::default(), &FlowCtx::default());
        let dt = t.elapsed();
        let gain = if rep.wirelength_before > 0.0 {
            100.0 * (rep.wirelength_before - rep.wirelength_after) / rep.wirelength_before
        } else {
            0.0
        };
        println!(
            "{:<8} | {:>12.0} | {:>12.0} | {:>7.2} | {:>6} | {:>7} | {:>8.2}",
            format!("dense{idx}"),
            rep.wirelength_before / 1_000.0,
            rep.wirelength_after / 1_000.0,
            gain,
            rep.iterations,
            if rep.applied { "yes" } else { "no" },
            dt.as_secs_f64()
        );
        if rep.iterations > 50 {
            eprintln!(
                "fig7_lpopt: dense{idx} needed {} iterations, above the paper's observed \
                 bound of 50",
                rep.iterations
            );
            std::process::exit(1);
        }
        // The optimized layout must remain DRC-clean wherever it was clean.
        let before_report = info_model::drc::check(&pkg, &out.layout);
        let after_report = info_model::drc::check(&pkg, &layout);
        if after_report.violations().len() > before_report.violations().len() {
            eprintln!(
                "fig7_lpopt: dense{idx}: optimization added DRC violations ({} -> {})",
                before_report.violations().len(),
                after_report.violations().len()
            );
            std::process::exit(1);
        }
    }
}
