//! Streaming (single-pass) moment accumulation.
//!
//! Implements Welford's online algorithm for numerically stable mean and
//! variance, plus min/max tracking. This is the workhorse accumulator used
//! by the simulator's latency sinks, where hundreds of thousands of samples
//! arrive one at a time and storing them all would be wasteful.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
///
/// ```
/// use cocnet_stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's `M2`).
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`n − 1` denominator); `0.0` with < 2 samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (`σ/√n`); `0.0` when empty.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest sample seen; `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen; `−∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    ///
    /// Uses the Chan et al. pairwise update so that
    /// `a.merge(&b)` equals pushing all of `b`'s samples into `a`.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn empty_is_zeroed() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn matches_naive_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 100.0 + 3.0).collect();
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let (mean, var) = naive_mean_var(&xs);
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.variance() - var).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 * 0.37).cos()).collect();
        let (a, b) = xs.split_at(123);
        let mut sa = OnlineStats::new();
        let mut sb = OnlineStats::new();
        for &x in a {
            sa.push(x);
        }
        for &x in b {
            sb.push(x);
        }
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        sa.merge(&sb);
        assert_eq!(sa.count(), whole.count());
        assert!((sa.mean() - whole.mean()).abs() < 1e-12);
        assert!((sa.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(sa.min(), whole.min());
        assert_eq!(sa.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::new();
        s.push(1.0);
        s.push(2.0);
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn constant_stream_has_zero_variance() {
        let mut s = OnlineStats::new();
        for _ in 0..10_000 {
            s.push(7.25);
        }
        assert!((s.mean() - 7.25).abs() < 1e-12);
        assert!(s.variance().abs() < 1e-12);
    }
}
