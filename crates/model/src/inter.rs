//! Inter-cluster mean message latency — §3.2 of the paper (Eqs. (20)–(39)).
//!
//! An inter-cluster message from cluster `i` to cluster `j` crosses three
//! networks back-to-back under wormhole flow control: `r` links up the
//! source ECN1(i), the concentrator, `2l` links through the global ICN2,
//! the dispatcher, and `v` links down the destination ECN1(j). The paper
//! treats the wormhole pipeline across the three networks as one merged
//! journey (Eq. (20)), weighting each `(r, v) + l` combination by the
//! product of the per-network hop distributions (Eq. (21)).

use crate::condis::concentrator_wait;
use crate::error::{ModelError, SaturationSite};
use crate::mg1::{mg1_wait, Mg1Wait};
use crate::model::{ModelOptions, VarianceApprox};
use crate::prob::{hop_distribution, mean_distance};
use crate::stages::{journey_latency, Stage};
use crate::workload::Workload;
use cocnet_topology::SystemSpec;
use serde::{Deserialize, Serialize};

/// Component breakdown of the inter-cluster latency `L_out` (Eq. (39)),
/// averaged over all destination clusters `j ≠ i` (Eqs. (35), (38)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterBreakdown {
    /// Average `W_ex`: M/G/1 wait at the inter-cluster source queue (Eq. (31)).
    pub source_wait: f64,
    /// Average `T_ex`: merged network latency across ECN1(i)/ICN2/ECN1(j)
    /// (Eq. (20)).
    pub network: f64,
    /// Average `E_ex`: tail-flit drain time (Eq. (33)).
    pub tail: f64,
    /// `W_d`: mean concentrator + dispatcher wait (Eq. (38)).
    pub condis_wait: f64,
}

impl InterBreakdown {
    /// `L_out = L_ex + W_d` with `L_ex = W_ex + T_ex + E_ex` (Eqs. (32), (39)).
    pub fn total(&self) -> f64 {
        self.source_wait + self.network + self.tail + self.condis_wait
    }
}

/// Latency components of one `(i, j)` cluster pair before averaging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairLatency {
    /// `W_ex^{(i,j)}` (Eq. (31)).
    pub source_wait: f64,
    /// `T_ex^{(i,j)}` (Eq. (20)).
    pub network: f64,
    /// `E_ex^{(i,j)}` (Eq. (33)).
    pub tail: f64,
    /// `2·W_c^{(i,j)}`: concentrate + dispatch buffer waits (Eqs. (37)–(38)).
    pub condis_wait: f64,
}

/// Evaluates the `(i, j)` pair terms of §3.2 under uniform destinations.
pub fn pair_latency(
    spec: &SystemSpec,
    wl: &Workload,
    i: usize,
    j: usize,
    opts: &ModelOptions,
) -> Result<PairLatency, ModelError> {
    pair_latency_with_u(
        spec,
        wl,
        i,
        j,
        opts,
        spec.outgoing_probability(i),
        spec.outgoing_probability(j),
    )
}

/// Evaluates the `(i, j)` pair terms with explicit outgoing probabilities.
#[allow(clippy::too_many_arguments)]
pub fn pair_latency_with_u(
    spec: &SystemSpec,
    wl: &Workload,
    i: usize,
    j: usize,
    opts: &ModelOptions,
    u_i: f64,
    u_j: f64,
) -> Result<PairLatency, ModelError> {
    assert_ne!(i, j, "pair latency needs distinct clusters");
    let m = spec.m;
    let (n_i, n_j) = (spec.clusters[i].n, spec.clusters[j].n);
    let n_c = spec.icn2_height()?;
    let (big_n_i, big_n_j) = (spec.cluster_nodes(i) as f64, spec.cluster_nodes(j) as f64);
    let m_flits = wl.msg_flits as f64;

    let e1_i = &spec.clusters[i].ecn1;
    let e1_j = &spec.clusters[j].ecn1;
    let i2 = &spec.icn2;
    let t_cs_e1i = e1_i.t_cs(wl.flit_bytes);
    let t_cs_e1j = e1_j.t_cs(wl.flit_bytes);
    let t_cs_i2 = i2.t_cs(wl.flit_bytes);
    let t_cn_e1i = e1_i.t_cn(wl.flit_bytes);
    let t_cn_e1j = e1_j.t_cn(wl.flit_bytes);

    // Eq. (22): traffic carried by the pair's ECN1 networks (outgoing from
    // i plus incoming to i, approximated from the (i, j) viewpoint).
    let lambda_e1 = wl.lambda_g * (big_n_i * u_i + big_n_j * u_j);
    // Eq. (23), reconstructed: the pair's view of the ICN2 traffic is the
    // mean of the two clusters' outgoing inter-cluster rates, half of λ_E1.
    let lambda_i2 = 0.5 * lambda_e1;

    // Eqs. (24)–(25): per-channel rates.
    let eta_e1 = lambda_e1 * mean_distance(m, n_i) / (4.0 * n_i as f64 * big_n_i);
    let eta_i2 = lambda_i2 * mean_distance(m, n_c) / (4.0 * n_c as f64);
    // Eqs. (27)–(28): relaxing factor discounts ICN2-stage waits by the
    // ICN2/ECN1 bandwidth ratio.
    let delta = if opts.relaxing_factor {
        spec.relaxing_factor(i)
    } else {
        1.0
    };
    let eta_i2_relaxed = eta_i2 * delta;

    let p_r = hop_distribution(m, n_i);
    let p_v = hop_distribution(m, n_j);
    let p_l = hop_distribution(m, n_c);

    let mut t_ex = 0.0;
    let mut e_ex = 0.0;
    let mut stages: Vec<Stage> = Vec::with_capacity((n_i + 2 * n_c + n_j) as usize);
    for r in 1..=n_i {
        for v in 1..=n_j {
            for l in 1..=n_c {
                let p = p_r[(r - 1) as usize] * p_v[(v - 1) as usize] * p_l[(l - 1) as usize];
                if p == 0.0 {
                    continue;
                }
                // K = r + 2l + v − 1 stages; Eq. (30) assigns each stage its
                // network's switch-to-switch time, and Eq. (29) makes the
                // final ejection stage charge t_cn of ECN1(j).
                let k = (r + 2 * l + v - 1) as usize;
                stages.clear();
                for s in 0..k {
                    let (transfer, eta) = if s == k - 1 {
                        (m_flits * t_cn_e1j, eta_e1)
                    } else if (s as u32) < r {
                        (m_flits * t_cs_e1i, eta_e1)
                    } else if (s as u32) < r + 2 * l - 1 {
                        (m_flits * t_cs_i2, eta_i2_relaxed)
                    } else {
                        (m_flits * t_cs_e1j, eta_e1)
                    };
                    stages.push(Stage { transfer, eta });
                }
                t_ex += p * journey_latency(&stages).t0;
                // Eq. (34): tail drain across the merged path.
                e_ex += p
                    * ((r as f64 - 1.0) * t_cs_e1i
                        + (v as f64 - 1.0) * t_cs_e1j
                        + 2.0 * l as f64 * t_cs_i2
                        + t_cn_e1j);
            }
        }
    }

    // Eq. (31): M/G/1 source queue for outgoing messages. The queue is one
    // node's ECN1 injection channel, fed only by that node's own
    // inter-bound generation, so its arrival rate is per node, λ_g·U_i;
    // variance via Eq. (17)'s scheme with minimum service M·t_cn^{ECN1(i)}.
    let sigma2 = match opts.variance {
        VarianceApprox::DraperGhosh => {
            let d = t_ex - m_flits * t_cn_e1i;
            d * d
        }
        VarianceApprox::Zero => 0.0,
    };
    let w_ex = match mg1_wait(wl.lambda_g * u_i, t_ex, sigma2) {
        Mg1Wait::Stable(w) => w,
        Mg1Wait::Saturated(rho) => {
            return Err(ModelError::Saturated {
                site: SaturationSite::InterSourceQueue(i),
                rho,
            })
        }
    };

    // Eqs. (36)–(38): concentrate + dispatch buffers (same rate, same law).
    let w_c = match concentrator_wait(lambda_i2, m_flits, t_cs_i2, t_cs_e1i, opts.variance) {
        Mg1Wait::Stable(w) => w,
        Mg1Wait::Saturated(rho) => {
            return Err(ModelError::Saturated {
                site: SaturationSite::Concentrator(i, j),
                rho,
            })
        }
    };

    Ok(PairLatency {
        source_wait: w_ex,
        network: t_ex,
        tail: e_ex,
        condis_wait: 2.0 * w_c,
    })
}

/// Evaluates the inter-cluster latency of cluster `i`, averaging the pair
/// terms over every destination cluster `j ≠ i` (Eqs. (35) and (38)).
///
/// Clusters with identical specifications are grouped so each distinct pair
/// shape is evaluated once (the paper's organizations have at most three
/// distinct cluster classes).
pub fn inter_latency(
    spec: &SystemSpec,
    wl: &Workload,
    i: usize,
    opts: &ModelOptions,
) -> Result<InterBreakdown, ModelError> {
    let us: Vec<f64> = (0..spec.num_clusters())
        .map(|j| spec.outgoing_probability(j))
        .collect();
    inter_latency_with_us(spec, wl, i, opts, &us)
}

/// [`inter_latency`] with explicit per-cluster outgoing probabilities.
pub fn inter_latency_with_us(
    spec: &SystemSpec,
    wl: &Workload,
    i: usize,
    opts: &ModelOptions,
    us: &[f64],
) -> Result<InterBreakdown, ModelError> {
    // Group destination clusters by identical (ClusterSpec, U_j).
    let mut classes: Vec<(usize, f64)> = Vec::new(); // (example index, weight)
    for j in 0..spec.num_clusters() {
        if j == i {
            continue;
        }
        if let Some(entry) = classes
            .iter_mut()
            .find(|(jx, _)| spec.clusters[*jx] == spec.clusters[j] && us[*jx] == us[j])
        {
            entry.1 += 1.0;
        } else {
            classes.push((j, 1.0));
        }
    }
    let total_weight: f64 = classes.iter().map(|(_, w)| w).sum();
    debug_assert_eq!(total_weight as usize, spec.num_clusters() - 1);

    let mut out = InterBreakdown {
        source_wait: 0.0,
        network: 0.0,
        tail: 0.0,
        condis_wait: 0.0,
    };
    for &(j, weight) in &classes {
        let pair = pair_latency_with_u(spec, wl, i, j, opts, us[i], us[j])?;
        let w = weight / total_weight;
        out.source_wait += w * pair.source_wait;
        out.network += w * pair.network;
        out.tail += w * pair.tail;
        out.condis_wait += w * pair.condis_wait;
    }
    Ok(out)
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
    fn zero_load_has_no_waits() {
        let s = spec(4, &[2, 2, 3, 3]);
        let out = inter_latency(&s, &wl(0.0), 0, &ModelOptions::default()).unwrap();
        assert_eq!(out.source_wait, 0.0);
        assert_eq!(out.condis_wait, 0.0);
        assert!(out.network > 0.0);
        assert!(out.tail > 0.0);
    }

    #[test]
    fn pair_vs_average_consistency_homogeneous() {
        // With identical clusters every pair is the same, so the average
        // must equal any single pair.
        let s = spec(4, &[2, 2, 2, 2]);
        let opts = ModelOptions::default();
        let avg = inter_latency(&s, &wl(1e-4), 0, &opts).unwrap();
        let pair = pair_latency(&s, &wl(1e-4), 0, 1, &opts).unwrap();
        assert!((avg.network - pair.network).abs() < 1e-12);
        assert!((avg.source_wait - pair.source_wait).abs() < 1e-12);
        assert!((avg.tail - pair.tail).abs() < 1e-12);
        assert!((avg.condis_wait - pair.condis_wait).abs() < 1e-12);
    }

    #[test]
    fn grouping_matches_explicit_average() {
        // Heterogeneous clusters: the grouped average must equal the naive
        // j-loop average.
        let s = spec(4, &[1, 1, 2, 3]);
        let opts = ModelOptions::default();
        let w = wl(5e-5);
        let grouped = inter_latency(&s, &w, 0, &opts).unwrap();
        let mut network = 0.0;
        for j in 1..4 {
            network += pair_latency(&s, &w, 0, j, &opts).unwrap().network;
        }
        network /= 3.0;
        assert!((grouped.network - network).abs() < 1e-12);
    }

    #[test]
    fn latency_monotone_in_load() {
        let s = spec(4, &[2, 2, 3, 3]);
        let opts = ModelOptions::default();
        let mut last = 0.0;
        for rate in [0.0, 5e-5, 1e-4, 2e-4] {
            let out = inter_latency(&s, &wl(rate), 0, &opts).unwrap();
            assert!(out.total() >= last);
            last = out.total();
        }
    }

    #[test]
    fn inter_longer_than_intra_at_zero_load() {
        // The merged three-network journey must beat the single-network one.
        let s = spec(4, &[2, 2, 2, 2]);
        let opts = ModelOptions::default();
        let inter = inter_latency(&s, &wl(0.0), 0, &opts).unwrap();
        let intra = crate::intra::intra_latency(&s, &wl(0.0), 0, &opts).unwrap();
        assert!(inter.total() > intra.total());
    }

    #[test]
    fn relaxing_factor_reduces_latency_under_load() {
        let s = spec(4, &[2, 2, 3, 3]);
        let with = inter_latency(&s, &wl(3e-4), 0, &ModelOptions::default()).unwrap();
        let without = inter_latency(
            &s,
            &wl(3e-4),
            0,
            &ModelOptions {
                relaxing_factor: false,
                ..ModelOptions::default()
            },
        )
        .unwrap();
        assert!(with.network <= without.network);
    }

    #[test]
    fn concentrator_saturates_under_heavy_load() {
        let s = spec(4, &[2, 2, 3, 3]);
        let err = inter_latency(&s, &wl(0.05), 0, &ModelOptions::default()).unwrap_err();
        assert!(matches!(err, ModelError::Saturated { .. }));
    }

    #[test]
    #[should_panic(expected = "distinct clusters")]
    fn pair_latency_rejects_same_cluster() {
        let s = spec(4, &[2, 2, 2, 2]);
        let _ = pair_latency(&s, &wl(0.0), 1, 1, &ModelOptions::default());
    }
}
