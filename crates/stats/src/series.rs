//! Sweep series: ordered `(x, y)` data with a label, the exchange format
//! between the experiment harness and the table/JSON renderers.
//!
//! Every figure in the paper is a set of labelled series (e.g. "Analysis
//! (Lm=256)", "Simulation") plotted against the traffic generation rate, so
//! this type is what the figure entries produce.

use serde::{Deserialize, Serialize};

/// One data point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Independent variable (traffic generation rate λ_g in the paper).
    pub x: f64,
    /// Dependent variable (mean message latency).
    pub y: f64,
}

/// A labelled, x-ordered series of points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label, e.g. `"Analysis (Lm=256)"`.
    pub label: String,
    /// The data points, in the order produced by the sweep.
    pub points: Vec<Point>,
}

impl Series {
    /// Creates an empty series with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(Point { x, y });
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The x values.
    pub fn xs(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.x).collect()
    }

    /// The y values.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.y).collect()
    }

    /// Whether `y` is non-decreasing in `x` order (sanity check for latency
    /// vs. load curves, which must grow with offered load).
    pub fn is_monotone_non_decreasing(&self) -> bool {
        self.points.windows(2).all(|w| w[1].y >= w[0].y - 1e-9)
    }

    /// Linear interpolation of `y` at `x0`; `None` outside the x range or
    /// when fewer than two points exist. Assumes points sorted by x.
    pub fn interpolate(&self, x0: f64) -> Option<f64> {
        if self.points.len() < 2 {
            return None;
        }
        let first = self.points.first()?;
        let last = self.points.last()?;
        if x0 < first.x || x0 > last.x {
            return None;
        }
        for w in self.points.windows(2) {
            let (a, b) = (w[0], w[1]);
            if (a.x..=b.x).contains(&x0) {
                if b.x == a.x {
                    return Some(a.y);
                }
                let t = (x0 - a.x) / (b.x - a.x);
                return Some(a.y + t * (b.y - a.y));
            }
        }
        None
    }
}

/// One data point of a CI-bearing sweep: the estimate plus the interval
/// it is known to, and how much work (replications) it cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CiPoint {
    /// Independent variable (traffic generation rate λ_g in the paper).
    pub x: f64,
    /// Point estimate (mean over replication means).
    pub y: f64,
    /// Lower bound of the confidence interval.
    pub lo: f64,
    /// Upper bound of the confidence interval.
    pub hi: f64,
    /// Independent replications actually spent on this point.
    pub replications: usize,
    /// Whether the point met its precision target (as opposed to tripping
    /// the replication cap).
    pub converged: bool,
}

/// A labelled series of CI-bearing points — what a precision-driven sweep
/// produces instead of a bare [`Series`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CiSeries {
    /// Legend label, e.g. `"Simulation (Lm=256)"`.
    pub label: String,
    /// Confidence level of every point's `[lo, hi]`, e.g. `0.95`.
    pub level: f64,
    /// The data points, in the order produced by the sweep.
    pub points: Vec<CiPoint>,
}

impl CiSeries {
    /// Creates an empty CI-bearing series.
    pub fn new(label: impl Into<String>, level: f64) -> Self {
        Self {
            label: label.into(),
            level,
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, point: CiPoint) {
        self.points.push(point);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point estimates as a plain [`Series`] (same label) — for
    /// renderers that only understand `(x, y)` data, e.g. scatter plots.
    pub fn mean_series(&self) -> Series {
        let mut out = Series::new(self.label.clone());
        for p in &self.points {
            out.push(p.x, p.y);
        }
        out
    }

    /// Whether every point met its precision target.
    pub fn all_converged(&self) -> bool {
        self.points.iter().all(|p| p.converged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(points: &[(f64, f64)]) -> Series {
        let mut out = Series::new("test");
        for &(x, y) in points {
            out.push(x, y);
        }
        out
    }

    #[test]
    fn push_and_accessors() {
        let se = s(&[(0.0, 1.0), (1.0, 3.0)]);
        assert_eq!(se.len(), 2);
        assert_eq!(se.xs(), vec![0.0, 1.0]);
        assert_eq!(se.ys(), vec![1.0, 3.0]);
        assert!(!se.is_empty());
    }

    #[test]
    fn monotonicity_check() {
        assert!(s(&[(0.0, 1.0), (1.0, 1.0), (2.0, 5.0)]).is_monotone_non_decreasing());
        assert!(!s(&[(0.0, 2.0), (1.0, 1.0)]).is_monotone_non_decreasing());
    }

    #[test]
    fn interpolation_inside_and_outside() {
        let se = s(&[(0.0, 0.0), (2.0, 4.0)]);
        assert_eq!(se.interpolate(1.0), Some(2.0));
        assert_eq!(se.interpolate(0.0), Some(0.0));
        assert_eq!(se.interpolate(2.0), Some(4.0));
        assert_eq!(se.interpolate(-0.1), None);
        assert_eq!(se.interpolate(2.1), None);
    }

    #[test]
    fn serde_round_trip() {
        let se = s(&[(0.0, 1.0)]);
        let json = serde_json::to_string(&se).unwrap();
        let back: Series = serde_json::from_str(&json).unwrap();
        assert_eq!(se, back);
    }

    #[test]
    fn ci_series_mean_projection_and_convergence() {
        let mut cs = CiSeries::new("Simulation", 0.95);
        cs.push(CiPoint {
            x: 1e-4,
            y: 40.0,
            lo: 39.0,
            hi: 41.0,
            replications: 4,
            converged: true,
        });
        cs.push(CiPoint {
            x: 2e-4,
            y: 44.0,
            lo: 40.0,
            hi: 48.0,
            replications: 16,
            converged: false,
        });
        assert_eq!(cs.len(), 2);
        assert!(!cs.is_empty());
        assert!(!cs.all_converged());
        let means = cs.mean_series();
        assert_eq!(means.label, "Simulation");
        assert_eq!(means.ys(), vec![40.0, 44.0]);
        let json = serde_json::to_string(&cs).unwrap();
        let back: CiSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(cs, back);
    }
}
