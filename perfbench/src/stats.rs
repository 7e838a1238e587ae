//! Order statistics for latency samples.

/// The median (mean of the two middle values for an even count); NaN
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100), or `None` unless at least ten
/// samples lie beyond it: a percentile with fewer jumps from run to run.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n < rank + 10 {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `100 * num / den`, or 0 when `den` is 0.
pub fn pct(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        100.0 * num / den
    } else {
        0.0
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
