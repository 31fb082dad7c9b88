//! Intra-cluster mean message latency — §3.1 of the paper (Eqs. (4)–(19)).
//!
//! An intra-cluster message travels entirely inside ICN1(i):
//! `L_in = W_in + T_in + E_in` — the M/G/1 wait at the source queue, the
//! network latency of the header, and the time for the tail flit to drain.

use crate::error::{ModelError, SaturationSite};
use crate::mg1::{mg1_wait, Mg1Wait};
use crate::model::{ModelOptions, VarianceApprox};
use crate::prob::{hop_distribution, mean_distance};
use crate::stages::{journey_latency, Stage};
use crate::workload::Workload;
use cocnet_topology::SystemSpec;
use serde::{Deserialize, Serialize};

/// Component breakdown of the intra-cluster latency `L_in` (Eq. (4)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntraBreakdown {
    /// `W_in`: mean wait in the source queue (Eq. (18)).
    pub source_wait: f64,
    /// `T_in`: mean network latency of the header (Eq. (5)).
    pub network: f64,
    /// `E_in`: mean time for the tail flit to reach the destination (Eq. (19)).
    pub tail: f64,
    /// `η_{I1}`: the per-channel message rate used for blocking (Eq. (10)).
    pub channel_rate: f64,
}

impl IntraBreakdown {
    /// `L_in = W_in + T_in + E_in`.
    pub fn total(&self) -> f64 {
        self.source_wait + self.network + self.tail
    }
}

/// Evaluates the intra-cluster latency of cluster `i` (Eqs. (4)–(19))
/// under the uniform-destination probability of Eq. (2).
pub fn intra_latency(
    spec: &SystemSpec,
    wl: &Workload,
    i: usize,
    opts: &ModelOptions,
) -> Result<IntraBreakdown, ModelError> {
    intra_latency_with_u(spec, wl, i, opts, spec.outgoing_probability(i))
}

/// Evaluates the intra-cluster latency with an explicit outgoing
/// probability `u_i` (non-uniform traffic generalisation; see
/// [`crate::profile::OutgoingProfile`]).
pub fn intra_latency_with_u(
    spec: &SystemSpec,
    wl: &Workload,
    i: usize,
    opts: &ModelOptions,
    u_i: f64,
) -> Result<IntraBreakdown, ModelError> {
    let tree = spec.cluster_tree(i);
    let net = &spec.clusters[i].icn1;
    let (m, n_i) = (tree.m(), tree.n());
    let n_nodes = tree.num_nodes() as f64;
    let m_flits = wl.msg_flits as f64;
    let t_cn = net.t_cn(wl.flit_bytes);
    let t_cs = net.t_cs(wl.flit_bytes);

    // Eq. (7): aggregate message rate entering ICN1(i).
    let lambda_i1 = n_nodes * wl.lambda_g * (1.0 - u_i);
    // Eqs. (8)–(10): mean distance and per-channel rate.
    let dist = mean_distance(m, n_i);
    let eta = lambda_i1 * dist / (4.0 * n_i as f64 * n_nodes);

    // Eqs. (5), (13)–(14): average the journey latency over the hop
    // distribution. A 2h-link journey has K = 2h−1 stages, all charging
    // M·t_cs except the final ejection stage, which charges M·t_cn.
    let probs = hop_distribution(m, n_i);
    let mut t_in = 0.0;
    for h in 1..=n_i {
        let k = (2 * h - 1) as usize;
        let mut stages = Vec::with_capacity(k);
        for s in 0..k {
            let transfer = if s == k - 1 {
                m_flits * t_cn
            } else {
                m_flits * t_cs
            };
            stages.push(Stage { transfer, eta });
        }
        t_in += probs[(h - 1) as usize] * journey_latency(&stages).t0;
    }

    // Eq. (17): variance approximation (Draper & Ghosh style): the minimum
    // service is the uncontended final-stage transfer M·t_cn.
    let sigma2 = match opts.variance {
        VarianceApprox::DraperGhosh => {
            let d = t_in - m_flits * t_cn;
            d * d
        }
        VarianceApprox::Zero => 0.0,
    };

    // Eq. (18): M/G/1 source queue. The arrival process at one node's
    // intra-cluster injection channel is its own intra-bound generation,
    // rate λ_g·(1−U_i): the queue is per node, so the rate is not the
    // cluster's aggregate N_i·λ_g·(1−U_i).
    let w_in = match mg1_wait(wl.lambda_g * (1.0 - u_i), t_in, sigma2) {
        Mg1Wait::Stable(w) => w,
        Mg1Wait::Saturated(rho) => {
            return Err(ModelError::Saturated {
                site: SaturationSite::IntraSourceQueue(i),
                rho,
            })
        }
    };

    // Eq. (19): tail-flit drain time.
    let mut e_in = 0.0;
    for h in 1..=n_i {
        e_in += probs[(h - 1) as usize] * (2.0 * (h as f64 - 1.0) * t_cs + t_cn);
    }

    Ok(IntraBreakdown {
        source_wait: w_in,
        network: t_in,
        tail: e_in,
        channel_rate: eta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocnet_topology::{ClusterSpec, NetworkCharacteristics, SystemSpec};

    fn spec(m: u32, heights: &[u32]) -> SystemSpec {
        let net1 = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
        let net2 = NetworkCharacteristics::new(250.0, 0.05, 0.01).unwrap();
        let clusters = heights
            .iter()
            .map(|&n| ClusterSpec {
                n,
                icn1: net1,
                ecn1: net2,
                topology: Default::default(),
            })
            .collect();
        SystemSpec::new(m, clusters, net1).unwrap()
    }

    fn wl(rate: f64) -> Workload {
        Workload::new(rate, 32, 256.0).unwrap()
    }

    #[test]
    fn zero_load_equals_uncontended_latency() {
        // At λ=0 there is no waiting anywhere: T_in is the probability-
        // weighted uncontended header latency (M·t_cn for every h, since
        // only stage-0 transfer counts and higher stages only add waits...
        // for h=1 the single stage charges M·t_cn; for h>1 stage 0 charges
        // M·t_cs) and W_in = 0.
        let s = spec(4, &[2, 2, 2, 2]);
        let w = wl(0.0);
        let out = intra_latency(&s, &w, 0, &ModelOptions::default()).unwrap();
        assert_eq!(out.source_wait, 0.0);
        let net = &s.clusters[0].icn1;
        let m_t_cn = 32.0 * net.t_cn(256.0);
        let m_t_cs = 32.0 * net.t_cs(256.0);
        let p = hop_distribution(4, 2);
        let expected = p[0] * m_t_cn + p[1] * m_t_cs;
        assert!((out.network - expected).abs() < 1e-9);
        assert!(out.tail > 0.0);
        assert_eq!(out.channel_rate, 0.0);
    }

    #[test]
    fn latency_monotone_in_load() {
        let s = spec(4, &[3, 3, 3, 3]);
        let opts = ModelOptions::default();
        let mut last = 0.0;
        for rate in [0.0, 1e-4, 5e-4, 1e-3] {
            let out = intra_latency(&s, &wl(rate), 0, &opts).unwrap();
            assert!(out.total() >= last, "latency must grow with load");
            last = out.total();
        }
    }

    #[test]
    fn single_level_cluster_tail_is_tcn() {
        // n_i = 1: every intra message crosses one switch; E_in = t_cn.
        let s = spec(8, &[1; 8]);
        let out = intra_latency(&s, &wl(1e-4), 0, &ModelOptions::default()).unwrap();
        let t_cn = s.clusters[0].icn1.t_cn(256.0);
        assert!((out.tail - t_cn).abs() < 1e-12);
    }

    #[test]
    fn variance_option_changes_wait_only() {
        let s = spec(4, &[3, 3, 3, 3]);
        let dg = intra_latency(&s, &wl(5e-4), 0, &ModelOptions::default()).unwrap();
        let zero = intra_latency(
            &s,
            &wl(5e-4),
            0,
            &ModelOptions {
                variance: VarianceApprox::Zero,
                ..ModelOptions::default()
            },
        )
        .unwrap();
        assert_eq!(dg.network, zero.network);
        assert_eq!(dg.tail, zero.tail);
        assert!(dg.source_wait >= zero.source_wait);
    }

    #[test]
    fn saturates_at_extreme_load() {
        let s = spec(4, &[3, 3, 3, 3]);
        let err = intra_latency(&s, &wl(1.0), 0, &ModelOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            ModelError::Saturated {
                site: SaturationSite::IntraSourceQueue(0),
                ..
            }
        ));
    }
}
