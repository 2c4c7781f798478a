//! Medians and exact sample percentiles.
//!
//! Every percentile is read from raw samples (never from log2 buckets)
//! by the nearest-rank rule, and is reported only when at least
//! [`MIN_BEYOND`] samples lie above its rank.

/// Samples that must lie beyond a percentile's rank for it to be
/// reported.
pub const MIN_BEYOND: u64 = 10;

/// Median of `values` (mean of the two middle values for an even
/// count); `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: u64) -> u64 {
    ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n)
}

/// An exact percentile with the sample count it was read from. `value`
/// is `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: Option<f64>,
    pub n: u64,
}

/// Exact percentile `p` of `samples` (sorted in place).
pub fn percentile(samples: &mut [u64], p: f64) -> Pct {
    samples.sort_unstable();
    let n = samples.len() as u64;
    if n == 0 {
        return Pct { value: None, n };
    }
    let r = rank(p, n);
    Pct {
        value: (n - r >= MIN_BEYOND).then(|| samples[(r - 1) as usize] as f64),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut s, 50.0).value, Some(50.0));
        assert_eq!(percentile(&mut s, 90.0).value, Some(90.0));
        // p95 leaves only five samples above it.
        assert_eq!(percentile(&mut s, 95.0).value, None);
        assert_eq!(percentile(&mut [], 50.0).n, 0);
    }
}
