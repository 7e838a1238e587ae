//! Experiment harness reproducing the paper's Table I and figure claims.
//!
//! Each binary in `src/bin/` regenerates one table or figure:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table I: routability / wirelength / runtime, Lin-ext vs ours, dense1–dense5 |
//! | `fig2_layers` | Fig. 2: minimum layer count for entangled nets, with vs without flexible vias |
//! | `fig5_mpsc` | Fig. 5: weighted vs unweighted MPSC on a congested channel |
//! | `fig7_lpopt` | Fig. 7: wirelength before/after LP-based layout optimization |
//! | `ablation_weights` | A1: chord-weight parameters on/off across the dense suite |
//! | `ablation_cells` | A2: global-cell grid sweep |
//! | `ablation_lp` | A3: LP stage on/off effect on routability and wirelength |
//!
//! Criterion micro-benchmarks live in `benches/`. `table1`, `loadtest`
//! and `eco_sweep` record their numbers in `BENCH_rdl.json` through
//! [`BenchRecord`].

mod record;

pub use record::{fixed, obj, BenchRecord, BENCH_PATH};

use std::time::Duration;

/// Formats a duration as fractional seconds for table output.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Geometric-mean helper used for the paper-style "Comparisons" row.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
        assert!((geomean([2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(Duration::from_millis(1234)), "1.23");
    }
}
