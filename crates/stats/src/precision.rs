//! Precision targets for sequential (adaptive) estimation.
//!
//! Sequential-stopping practice treats statistical precision as a *target*
//! rather than a hope: keep adding independent replications until the
//! confidence interval around the estimate is tight enough, then stop. A
//! [`Precision`] names that stopping rule — a maximum CI half-width,
//! relative to the mean or absolute, at a confidence level — and
//! [`Precision::met_by`] is its convergence test, which the scenario
//! runner applies to the interval over a sweep point's replication means.

use crate::ci::ConfidenceInterval;
use serde::{Deserialize, Serialize};

/// A CI half-width target: the estimate is precise enough once a
/// confidence interval at [`Precision::level`] is no wider than the
/// relative and/or absolute bound.
///
/// At least one of `rel`/`abs` must be set; when both are, **both** must
/// hold (the conservative conjunction). An infinite half-width (fewer
/// than two samples) never meets any target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Precision {
    /// Maximum relative half-width (`half_width / |mean|`), e.g. `0.05`
    /// for "the mean is known to ±5 %".
    pub rel: Option<f64>,
    /// Maximum absolute half-width, in the estimate's own units.
    pub abs: Option<f64>,
    /// Confidence level of the interval the bounds apply to, e.g. `0.95`.
    pub level: f64,
}

impl Precision {
    /// A relative half-width target at the given confidence level.
    pub fn relative(rel: f64, level: f64) -> Self {
        Self {
            rel: Some(rel),
            abs: None,
            level,
        }
    }

    /// An absolute half-width target at the given confidence level.
    pub fn absolute(abs: f64, level: f64) -> Self {
        Self {
            rel: None,
            abs: Some(abs),
            level,
        }
    }

    /// Checks the target is well-formed: at least one bound, every bound
    /// finite and positive, and a level the CI machinery actually carries
    /// critical values for. [`crate::mean_confidence_interval`] only has
    /// 95 % and 99 % Student-t tables — any other level would silently
    /// produce a differently-labelled interval than the one tested, so it
    /// is rejected here instead.
    pub fn validate(&self) -> Result<(), String> {
        if self.rel.is_none() && self.abs.is_none() {
            return Err("precision needs a relative or absolute half-width bound".into());
        }
        for (name, bound) in [("relative", self.rel), ("absolute", self.abs)] {
            if let Some(b) = bound {
                if !(b.is_finite() && b > 0.0) {
                    return Err(format!(
                        "precision: {name} bound must be finite and > 0 (got {b})"
                    ));
                }
            }
        }
        if self.level != 0.95 && self.level != 0.99 {
            return Err(format!(
                "precision: confidence level must be 0.95 or 0.99 — the only levels the \
                 t-tables carry (got {})",
                self.level
            ));
        }
        Ok(())
    }

    /// Whether `ci` is tight enough: its half-width is finite and within
    /// every configured bound. The interval's own confidence level is the
    /// caller's responsibility (build it at [`Precision::level`]).
    pub fn met_by(&self, ci: &ConfidenceInterval) -> bool {
        if !ci.half_width.is_finite() {
            return false;
        }
        if let Some(rel) = self.rel {
            if ci.relative_half_width() > rel {
                return false;
            }
        }
        if let Some(abs) = self.abs {
            if ci.half_width > abs {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ci(mean: f64, half_width: f64) -> ConfidenceInterval {
        ConfidenceInterval {
            mean,
            half_width,
            level: 0.95,
        }
    }

    #[test]
    fn relative_target_tests_relative_width() {
        let p = Precision::relative(0.05, 0.95);
        assert!(p.met_by(&ci(100.0, 4.9)));
        assert!(!p.met_by(&ci(100.0, 5.1)));
        // Zero mean → infinite relative width → never met.
        assert!(!p.met_by(&ci(0.0, 0.001)));
    }

    #[test]
    fn absolute_target_tests_absolute_width() {
        let p = Precision::absolute(2.0, 0.95);
        assert!(p.met_by(&ci(1e6, 1.9)));
        assert!(!p.met_by(&ci(1e6, 2.1)));
    }

    #[test]
    fn both_bounds_must_hold() {
        let p = Precision {
            rel: Some(0.05),
            abs: Some(1.0),
            level: 0.95,
        };
        assert!(p.met_by(&ci(100.0, 0.9))); // 0.9 % relative, 0.9 absolute
        assert!(!p.met_by(&ci(100.0, 2.0))); // relative ok, absolute not
        assert!(!p.met_by(&ci(10.0, 0.9))); // absolute ok, relative not
    }

    #[test]
    fn infinite_half_width_never_converges() {
        let p = Precision::relative(0.5, 0.95);
        assert!(!p.met_by(&ci(10.0, f64::INFINITY)));
    }

    #[test]
    fn validate_rejects_malformed_targets() {
        assert!(Precision {
            rel: None,
            abs: None,
            level: 0.95
        }
        .validate()
        .is_err());
        assert!(Precision::relative(0.0, 0.95).validate().is_err());
        assert!(Precision::relative(f64::NAN, 0.95).validate().is_err());
        assert!(Precision::absolute(-1.0, 0.95).validate().is_err());
        assert!(Precision::relative(0.05, 1.0).validate().is_err());
        assert!(Precision::relative(0.05, 0.0).validate().is_err());
        // Only the levels with t-tables are legal: anything else would
        // converge against a differently-labelled interval.
        assert!(Precision::relative(0.05, 0.9).validate().is_err());
        assert!(Precision::relative(0.05, 0.975).validate().is_err());
        assert!(Precision::relative(0.05, 0.95).validate().is_ok());
        assert!(Precision::absolute(3.0, 0.99).validate().is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let p = Precision::relative(0.05, 0.95);
        let v = serde::Serialize::to_value(&p);
        let back: Precision = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(p, back);
    }
}
