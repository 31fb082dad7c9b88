//! # Paper-to-code equation map
//!
//! One section per equation of Javadi et al. (CLUSTER 2006), each with the
//! implementing item and an executable example (doctests double as
//! regression tests for the numeric interpretations stated below: the
//! reconstructed Eq. (23) and the per-node reading of the source-queue
//! arrival rates). Numbers below use the paper's validation parameters
//! (Table 2 networks, 32-flit messages of 256-byte flits) unless stated.
//!
//! ## Eq. (1) — mixing intra and inter latency
//!
//! `ℓ_i = (1 − U_i)·L_in^(i) + U_i·L_out^(i)` — implemented in
//! [`crate::model::evaluate`]; exposed per cluster as
//! [`crate::model::ClusterLatency::mean`].
//!
//! ```
//! # use cocnet_model::{evaluate, ModelOptions, Workload};
//! # use cocnet_topology::{ClusterSpec, NetworkCharacteristics, SystemSpec};
//! # let net1 = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
//! # let net2 = NetworkCharacteristics::new(250.0, 0.05, 0.01).unwrap();
//! # let c = |n| ClusterSpec { n, icn1: net1, ecn1: net2, topology: Default::default() };
//! # let spec = SystemSpec::new(4, vec![c(2), c(2), c(3), c(3)], net1).unwrap();
//! let out = evaluate(
//!     &spec,
//!     &Workload::new(1e-4, 32, 256.0).unwrap(),
//!     &ModelOptions::default(),
//! )
//! .unwrap();
//! for cl in &out.per_cluster {
//!     let u = cl.outgoing_probability;
//!     let expect = (1.0 - u) * cl.intra.total() + u * cl.inter.total();
//!     assert!((cl.mean - expect).abs() < 1e-12);
//! }
//! ```
//!
//! ## Eq. (2) — outgoing probability
//!
//! `U_i = 1 − (N_i − 1)/(N − 1)` —
//! [`cocnet_topology::SystemSpec::outgoing_probability`].
//!
//! ```
//! # use cocnet_topology::{ClusterSpec, NetworkCharacteristics, SystemSpec};
//! # let net = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
//! # let c = |n| ClusterSpec { n, icn1: net, ecn1: net, topology: Default::default() };
//! // Four clusters of 8/8/16/16 nodes: N = 48.
//! let spec = SystemSpec::new(4, vec![c(2), c(2), c(3), c(3)], net).unwrap();
//! assert!((spec.outgoing_probability(0) - (1.0 - 7.0 / 47.0)).abs() < 1e-12);
//! ```
//!
//! ## Eq. (3) — system latency
//!
//! `Latency = Σ_i (N_i/N)·ℓ_i` — the size-weighted average in
//! [`crate::model::evaluate`] (tested there).
//!
//! ## Eqs. (5)–(6) — hop distribution
//!
//! `P(h,n) = (m/2 − 1)(m/2)^{h−1}/(N−1)` for `h < n`,
//! `(m−1)(m/2)^{n−1}/(N−1)` for `h = n` — [`crate::prob::hop_distribution`].
//! The counts sum to exactly `N − 1`:
//!
//! ```
//! let p = cocnet_model::prob::hop_distribution(8, 3);
//! assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! // 128-node tree: 3 siblings at h=1, 12 at h=2, 112 via the roots.
//! assert!((p[0] - 3.0 / 127.0).abs() < 1e-12);
//! assert!((p[1] - 12.0 / 127.0).abs() < 1e-12);
//! assert!((p[2] - 112.0 / 127.0).abs() < 1e-12);
//! ```
//!
//! ## Eqs. (8)–(9) — mean message distance
//!
//! `D = 2·Σ h·P(h,n)`, with the closed form of Eq. (9) —
//! [`crate::prob::mean_distance`] / [`crate::prob::mean_distance_closed_form`].
//!
//! ```
//! let d = cocnet_model::prob::mean_distance(8, 3);
//! let closed = cocnet_model::prob::mean_distance_closed_form(8, 3);
//! assert!((d - closed).abs() < 1e-10);
//! assert!(d > 2.0 && d < 6.0); // between one hop and the diameter
//! ```
//!
//! ## Eqs. (7), (10), (22)–(25) — traffic rates
//!
//! Aggregate rates `λ_I1 = N_i λ_g (1−U_i)`,
//! `λ_E1 = λ_g (N_i U_i + N_j U_j)`, `λ_I2 = λ_E1/2` (reconstructed: the
//! mean of the two clusters' outgoing inter-cluster rates) and the
//! per-channel rates `η = λ·D/(4nN)` —
//! [`crate::rates::network_rates`].
//!
//! ## Eqs. (11)–(12) — service times
//!
//! `t_cn = 0.5·α_n + d_m·β_n`, `t_cs = α_s + d_m·β_n` —
//! [`cocnet_topology::NetworkCharacteristics::t_cn`] / `t_cs`.
//!
//! ```
//! # use cocnet_topology::NetworkCharacteristics;
//! let net2 = NetworkCharacteristics::new(250.0, 0.05, 0.01).unwrap();
//! assert!((net2.t_cn(256.0) - 1.049).abs() < 1e-12);
//! assert!((net2.t_cs(256.0) - 1.034).abs() < 1e-12);
//! ```
//!
//! ## Eqs. (13)–(14), (26)–(30) — per-stage blocking recursion
//!
//! `W_k = ½·η_k·T_k²`, `T_k = M·t_k + Σ_{s>k} W_s`, backward from the
//! ejection stage — [`crate::stages::journey_latency`]. The relaxing
//! factor `δ_i = β_ICN2/β_ECN1` of Eqs. (27)–(28) scales `η` on ICN2
//! stages ([`cocnet_topology::SystemSpec::relaxing_factor`]).
//!
//! ```
//! use cocnet_model::stages::{journey_latency, Stage};
//! // Two stages, hand-checkable: T1 = 6, W1 = ½·0.05·36 = 0.9, T0 = 4.9.
//! let j = journey_latency(&[
//!     Stage { transfer: 4.0, eta: 0.05 },
//!     Stage { transfer: 6.0, eta: 0.05 },
//! ]);
//! assert!((j.t0 - 4.9).abs() < 1e-12);
//! ```
//!
//! ## Eqs. (15)–(18), (31) — M/G/1 source queues
//!
//! Pollaczek–Khinchine with the Draper–Ghosh variance surrogate
//! `σ² = (x̄ − x_min)²` — [`crate::mg1::mg1_wait`] +
//! [`crate::model::VarianceApprox`]. Arrival rates use the per-node
//! reading: a source queue is one node's injection channel, fed only by
//! that node's own generation (`λ_g(1−U_i)` intra, `λ_g·U_i` inter).
//!
//! ```
//! use cocnet_model::mg1::{mg1_wait, Mg1Wait};
//! // M/D/1 at ρ = 0.5: W = ρx̄/(2(1−ρ)) = 0.5.
//! assert_eq!(mg1_wait(0.5, 1.0, 0.0), Mg1Wait::Stable(0.5));
//! // The stability boundary is saturation, not an error value.
//! assert!(matches!(mg1_wait(1.0, 1.0, 0.0), Mg1Wait::Saturated(_)));
//! ```
//!
//! ## Eq. (19), (33)–(34) — tail-flit drain
//!
//! `E_in = Σ_h P(h)·[2(h−1)·t_cs + t_cn]` and its inter-cluster analogue —
//! computed inside [`crate::intra::intra_latency`] /
//! [`crate::inter::pair_latency`], reported as the `tail` fields.
//!
//! ## Eqs. (20)–(21) — merged inter-cluster journey
//!
//! The `(r,v)+l` triple sum with probability
//! `P(r,n_i)·P(v,n_j)·P(l,n_c)` — [`crate::inter::pair_latency`].
//!
//! ## Eqs. (36)–(38) — concentrator/dispatcher
//!
//! M/G/1 with service `M·t_cs^{ICN2}` —
//! [`crate::condis::concentrator_wait`]; doubled (concentrate + dispatch)
//! and averaged over destinations into
//! [`crate::inter::InterBreakdown::condis_wait`].
//!
//! ## Eq. (39) — inter-cluster total
//!
//! `L_out = L_ex + W_d` — [`crate::inter::InterBreakdown::total`].

// This module is documentation-only; the doctests above are its tests.
