//! Exact percentile computation over retained samples.
//!
//! For modest sample counts (unit tests, small validation runs) it is often
//! simplest to retain the raw samples and compute exact order statistics.

use serde::{Deserialize, Serialize};

/// Retains samples and serves exact percentiles on demand.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a collector with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            samples: Vec::with_capacity(cap),
            sorted: true,
        }
    }

    /// Records one sample. Non-finite samples are rejected with `false`.
    pub fn record(&mut self, x: f64) -> bool {
        if !x.is_finite() {
            return false;
        }
        self.samples.push(x);
        self.sorted = false;
        true
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// Exact quantile via the nearest-rank method. `q` must be in `[0, 1]`.
    /// Returns `None` when empty or `q` out of range.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        self.ensure_sorted();
        if q == 0.0 {
            return self.samples.first().copied();
        }
        let rank = (q * self.samples.len() as f64).ceil() as usize;
        self.samples
            .get(rank.saturating_sub(1).min(self.samples.len() - 1))
            .copied()
    }

    /// Median (50th percentile, nearest rank).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_finite() {
        let mut p = Percentiles::new();
        assert!(!p.record(f64::NAN));
        assert!(!p.record(f64::INFINITY));
        assert!(p.record(1.0));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut p = Percentiles::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            p.record(x);
        }
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.median(), Some(3.0));
        assert_eq!(p.quantile(1.0), Some(5.0));
        assert_eq!(p.quantile(0.2), Some(1.0));
        assert_eq!(p.quantile(0.21), Some(2.0));
    }

    #[test]
    fn empty_and_out_of_range() {
        let mut p = Percentiles::new();
        assert_eq!(p.median(), None);
        p.record(1.0);
        assert_eq!(p.quantile(-0.1), None);
        assert_eq!(p.quantile(1.1), None);
    }

    #[test]
    fn interleaved_record_and_query() {
        let mut p = Percentiles::new();
        p.record(10.0);
        assert_eq!(p.median(), Some(10.0));
        p.record(0.0);
        assert_eq!(p.quantile(0.0), Some(0.0));
        p.record(20.0);
        assert_eq!(p.median(), Some(10.0));
    }
}
