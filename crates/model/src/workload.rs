//! Workload description shared by the model and the simulator.

use crate::error::ModelError;
use serde::{Deserialize, Serialize};

/// An open-loop workload: every node generates fixed-length messages by a
/// Poisson process with uniformly random destinations (paper assumptions
/// 1, 2 and 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Workload {
    /// Per-node message generation rate `λ_g` (messages per time unit).
    pub lambda_g: f64,
    /// Message length `M` in flits.
    pub msg_flits: u32,
    /// Flit size `d_m` in bytes (the paper's figure legends call it `Lm`).
    pub flit_bytes: f64,
}

impl Workload {
    /// Creates a validated workload.
    pub fn new(lambda_g: f64, msg_flits: u32, flit_bytes: f64) -> Result<Self, ModelError> {
        let wl = Self {
            lambda_g,
            msg_flits,
            flit_bytes,
        };
        wl.validate()?;
        Ok(wl)
    }

    /// Validates finiteness/positivity of all parameters. `λ_g = 0` is
    /// allowed (zero-load latency is well defined and useful).
    pub fn validate(&self) -> Result<(), ModelError> {
        if !(self.lambda_g.is_finite() && self.lambda_g >= 0.0) {
            return Err(ModelError::BadWorkload {
                what: "lambda_g must be finite and >= 0",
            });
        }
        if self.msg_flits == 0 {
            return Err(ModelError::BadWorkload {
                what: "messages must have at least one flit",
            });
        }
        if !(self.flit_bytes.is_finite() && self.flit_bytes > 0.0) {
            return Err(ModelError::BadWorkload {
                what: "flit size must be finite and positive",
            });
        }
        Ok(())
    }

    /// Returns a copy with a different generation rate (sweep helper).
    pub fn with_rate(&self, lambda_g: f64) -> Self {
        Self { lambda_g, ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_workloads_pass() {
        assert!(Workload::new(1e-4, 32, 256.0).is_ok());
        assert!(Workload::new(0.0, 1, 1.0).is_ok());
    }

    #[test]
    fn invalid_workloads_fail() {
        assert!(Workload::new(-1.0, 32, 256.0).is_err());
        assert!(Workload::new(f64::NAN, 32, 256.0).is_err());
        assert!(Workload::new(1e-4, 0, 256.0).is_err());
        assert!(Workload::new(1e-4, 32, 0.0).is_err());
        assert!(Workload::new(1e-4, 32, f64::INFINITY).is_err());
    }

    #[test]
    fn helpers() {
        let wl = Workload::new(1e-4, 32, 256.0).unwrap();
        assert_eq!(wl.with_rate(2e-4).lambda_g, 2e-4);
        assert_eq!(wl.with_rate(2e-4).msg_flits, 32);
    }
}
