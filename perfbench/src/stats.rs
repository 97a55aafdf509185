//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank rule: the p-th percentile of `n`
//! sorted samples is the sample at rank `ceil(p/100 · n)`. A percentile is
//! *supported* when at least [`MIN_BEYOND`] samples lie beyond that rank;
//! the benchmark reports a tail only at a level it supports.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Number of samples strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Nearest-rank percentile of already sorted samples (`NaN` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Sorts in place and returns the median (`NaN` when empty).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        return f64::NAN;
    }
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `values` into a sample set.
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Median (`NaN` when empty).
    pub fn median(&self) -> f64 {
        median(&mut self.0.clone())
    }

    /// Nearest-rank percentile (`NaN` when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.0, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        // p99 needs 1000 samples: rank 990 leaves exactly ten above it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        // p90 needs 100, p75 needs 40.
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(40, 75.0));
        assert!(!supports(39, 75.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.median(), 50.5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert!(Samples::default().median().is_nan());
    }
}
