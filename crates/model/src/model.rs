//! Top-level model evaluation — Eqs. (1)–(3) of the paper.
//!
//! [`evaluate`] combines each cluster's intra- and inter-cluster latencies
//! (weighted by the outgoing probability `U_i` of Eq. (2)) and averages the
//! per-cluster means weighted by cluster size (Eq. (3)).

use crate::error::ModelError;
use crate::inter::{inter_latency_with_us, InterBreakdown};
use crate::intra::{intra_latency_with_u, IntraBreakdown};
use crate::profile::OutgoingProfile;
use crate::workload::Workload;
use cocnet_topology::{SystemSpec, TopologyError};
use serde::{Deserialize, Serialize};

/// Whether the analytical model's equations apply to a spec.
///
/// The paper's Eqs. (1)–(39) are derived for m-port n-tree networks; a
/// spec using any other topology backend (e.g. a torus cluster) can still
/// be simulated, but the model has nothing to say about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelCoverage {
    /// Every network is an m-port n-tree: the model fully applies.
    Full,
    /// At least one network uses a non-tree backend: results come from
    /// simulation only.
    SimOnly {
        /// Which network broke coverage and why.
        reason: String,
    },
}

/// Classifies `spec` by model coverage (see [`ModelCoverage`]).
pub fn coverage(spec: &SystemSpec) -> ModelCoverage {
    for (i, c) in spec.clusters.iter().enumerate() {
        if !c.topology.is_tree() {
            return ModelCoverage::SimOnly {
                reason: format!(
                    "cluster {i} uses the {} backend; the paper's equations \
                     model m-port n-trees only",
                    c.topology.backend_name()
                ),
            };
        }
    }
    if !spec.topology.is_tree() {
        return ModelCoverage::SimOnly {
            reason: format!(
                "ICN2 uses the {} backend; the paper's equations model \
                 m-port n-trees only",
                spec.topology.backend_name()
            ),
        };
    }
    ModelCoverage::Full
}

/// How the service-time variance of the M/G/1 queues is approximated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum VarianceApprox {
    /// The paper's choice (after Draper & Ghosh \[9\]): `σ² = (x̄ − x_min)²`,
    /// where `x_min` is the uncontended service time (Eqs. (17), (36)).
    #[default]
    DraperGhosh,
    /// Deterministic service (`σ² = 0`) — ablation baseline; the paper
    /// itself names Eq. (17) as a source of inaccuracy near saturation.
    Zero,
}

/// Evaluation options (ablation switches; defaults reproduce the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ModelOptions {
    /// Apply the relaxing factor `δ_i` of Eqs. (27)–(28) to ICN2 stages.
    pub relaxing_factor: bool,
    /// Service-variance approximation for all M/G/1 queues.
    pub variance: VarianceApprox,
}

impl Default for ModelOptions {
    fn default() -> Self {
        Self {
            relaxing_factor: true,
            variance: VarianceApprox::default(),
        }
    }
}

/// Per-cluster latency report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterLatency {
    /// Cluster index `i`.
    pub cluster: usize,
    /// Outgoing probability `U_i` (Eq. (2)).
    pub outgoing_probability: f64,
    /// Intra-cluster breakdown `L_in` (Eq. (4)).
    pub intra: IntraBreakdown,
    /// Inter-cluster breakdown `L_out` (Eq. (39)).
    pub inter: InterBreakdown,
    /// The cluster's mean message latency
    /// `ℓ_i = (1−U_i)·L_in + U_i·L_out` (Eq. (1)).
    pub mean: f64,
}

/// Whole-system latency report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemLatency {
    /// System mean message latency (Eq. (3)).
    pub latency: f64,
    /// Per-cluster reports, one per cluster, in cluster order.
    pub per_cluster: Vec<ClusterLatency>,
}

/// Evaluates the analytical model for `spec` under `wl`.
///
/// Clusters with identical specifications share one evaluation (the paper's
/// organizations have at most three distinct cluster classes), so sweeps
/// over large systems stay fast.
pub fn evaluate(
    spec: &SystemSpec,
    wl: &Workload,
    opts: &ModelOptions,
) -> Result<SystemLatency, ModelError> {
    spec.validate()?;
    evaluate_with_profile(spec, wl, opts, &OutgoingProfile::uniform(spec))
}

/// Evaluates the model under a non-uniform destination pattern, expressed
/// as per-cluster outgoing probabilities (the paper's future-work
/// generalisation; see [`crate::profile::OutgoingProfile`]).
pub fn evaluate_with_profile(
    spec: &SystemSpec,
    wl: &Workload,
    opts: &ModelOptions,
    profile: &OutgoingProfile,
) -> Result<SystemLatency, ModelError> {
    wl.validate()?;
    spec.validate()?;
    if let ModelCoverage::SimOnly { .. } = coverage(spec) {
        // Defense in depth: callers surface sim-only coverage before ever
        // invoking the model, but a direct call must not silently produce
        // tree numbers for a non-tree system.
        let backend = spec
            .clusters
            .iter()
            .map(|c| &c.topology)
            .chain(std::iter::once(&spec.topology))
            .find(|t| !t.is_tree())
            .map(|t| t.backend_name())
            .unwrap_or("non-tree");
        return Err(ModelError::Topology(TopologyError::UnsupportedByBackend {
            backend,
            what: "the analytical latency model",
        }));
    }
    if profile.values().len() != spec.num_clusters() {
        return Err(ModelError::BadWorkload {
            what: "profile length must equal the cluster count",
        });
    }
    let us = profile.values();

    // Representative index per distinct (ClusterSpec, U_i).
    let mut class_of: Vec<usize> = Vec::with_capacity(spec.num_clusters());
    let mut reps: Vec<usize> = Vec::new();
    for i in 0..spec.num_clusters() {
        match reps
            .iter()
            .position(|&r| spec.clusters[r] == spec.clusters[i] && us[r] == us[i])
        {
            Some(c) => class_of.push(c),
            None => {
                class_of.push(reps.len());
                reps.push(i);
            }
        }
    }

    // Evaluate each class once.
    let mut class_results: Vec<(IntraBreakdown, InterBreakdown)> = Vec::with_capacity(reps.len());
    for &r in &reps {
        let intra = intra_latency_with_u(spec, wl, r, opts, us[r])?;
        let inter = inter_latency_with_us(spec, wl, r, opts, us)?;
        class_results.push((intra, inter));
    }

    let total_nodes = spec.total_nodes() as f64;
    let mut latency = 0.0;
    let mut per_cluster = Vec::with_capacity(spec.num_clusters());
    for i in 0..spec.num_clusters() {
        let (intra, inter) = class_results[class_of[i]];
        let u = us[i];
        let mean = (1.0 - u) * intra.total() + u * inter.total();
        latency += spec.cluster_nodes(i) as f64 / total_nodes * mean;
        per_cluster.push(ClusterLatency {
            cluster: i,
            outgoing_probability: u,
            intra,
            inter,
            mean,
        });
    }
    Ok(SystemLatency {
        latency,
        per_cluster,
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
    fn latency_is_size_weighted_average() {
        let s = spec(4, &[1, 1, 2, 3]);
        let out = evaluate(&s, &wl(5e-5), &ModelOptions::default()).unwrap();
        let total: f64 = out
            .per_cluster
            .iter()
            .map(|c| s.cluster_nodes(c.cluster) as f64 / s.total_nodes() as f64 * c.mean)
            .sum();
        assert!((out.latency - total).abs() < 1e-12);
        assert_eq!(out.per_cluster.len(), 4);
    }

    #[test]
    fn identical_clusters_share_results() {
        let s = spec(4, &[2, 2, 2, 2]);
        let out = evaluate(&s, &wl(1e-4), &ModelOptions::default()).unwrap();
        for c in &out.per_cluster {
            assert_eq!(c.mean, out.per_cluster[0].mean);
        }
    }

    #[test]
    fn mixing_follows_eq1() {
        let s = spec(4, &[1, 1, 2, 3]);
        let out = evaluate(&s, &wl(5e-5), &ModelOptions::default()).unwrap();
        for c in &out.per_cluster {
            let expect = (1.0 - c.outgoing_probability) * c.intra.total()
                + c.outgoing_probability * c.inter.total();
            assert!((c.mean - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn small_clusters_send_more_outside() {
        let s = spec(4, &[1, 3, 3, 3]);
        let out = evaluate(&s, &wl(1e-5), &ModelOptions::default()).unwrap();
        assert!(out.per_cluster[0].outgoing_probability > out.per_cluster[1].outgoing_probability);
    }

    #[test]
    fn latency_monotone_in_rate_until_saturation() {
        let s = spec(4, &[2, 2, 3, 3]);
        let opts = ModelOptions::default();
        let mut last = 0.0;
        let mut rate = 0.0;
        while let Ok(out) = evaluate(&s, &wl(rate), &opts) {
            assert!(out.latency >= last, "latency must grow with load");
            last = out.latency;
            rate += 2e-4;
            if rate > 1.0 {
                panic!("model never saturated");
            }
        }
    }

    #[test]
    fn rejects_bad_workload() {
        let s = spec(4, &[2, 2, 2, 2]);
        let bad = Workload {
            lambda_g: -1.0,
            msg_flits: 32,
            flit_bytes: 256.0,
        };
        assert!(matches!(
            evaluate(&s, &bad, &ModelOptions::default()),
            Err(ModelError::BadWorkload { .. })
        ));
    }

    #[test]
    fn longer_messages_increase_latency() {
        let s = spec(4, &[2, 2, 3, 3]);
        let opts = ModelOptions::default();
        let short = evaluate(&s, &Workload::new(1e-5, 32, 256.0).unwrap(), &opts).unwrap();
        let long = evaluate(&s, &Workload::new(1e-5, 64, 256.0).unwrap(), &opts).unwrap();
        assert!(long.latency > short.latency);
    }

    #[test]
    fn bigger_flits_increase_latency() {
        let s = spec(4, &[2, 2, 3, 3]);
        let opts = ModelOptions::default();
        let small = evaluate(&s, &Workload::new(1e-5, 32, 256.0).unwrap(), &opts).unwrap();
        let big = evaluate(&s, &Workload::new(1e-5, 32, 512.0).unwrap(), &opts).unwrap();
        assert!(big.latency > small.latency);
    }

    #[test]
    fn torus_specs_are_sim_only_and_rejected_by_evaluate() {
        use cocnet_topology::{TopoSpec, TorusShape};
        let tree = spec(4, &[1, 1, 2, 2]);
        assert_eq!(coverage(&tree), ModelCoverage::Full);

        let mut mixed = tree.clone();
        mixed.clusters[1].n = 0;
        mixed.clusters[1].topology = TopoSpec::Torus(TorusShape::new(&[2, 2]).unwrap());
        mixed.validate().unwrap();
        match coverage(&mixed) {
            ModelCoverage::SimOnly { reason } => {
                assert!(reason.contains("cluster 1"), "{reason}");
                assert!(reason.contains("torus"), "{reason}");
            }
            ModelCoverage::Full => panic!("torus cluster must be sim-only"),
        }
        assert!(matches!(
            evaluate(&mixed, &wl(1e-5), &ModelOptions::default()),
            Err(ModelError::Topology(
                cocnet_topology::TopologyError::UnsupportedByBackend {
                    backend: "torus",
                    ..
                }
            ))
        ));
    }
}
