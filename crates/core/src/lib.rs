//! cocnet — analytical modeling and simulation of heterogeneous
//! large-scale cluster-of-clusters networks.
//!
//! This is the façade crate of the cocnet workspace, a from-scratch
//! reproduction of Javadi, Abawajy, Akbari & Nahavandi, *"Analytical
//! Network Modeling of Heterogeneous Large-Scale Cluster Systems"*
//! (IEEE CLUSTER 2006). It re-exports the public API of the component
//! crates and adds the experiment harness that regenerates every table and
//! figure of the paper.
//!
//! # Quick start
//!
//! ```
//! use cocnet::prelude::*;
//!
//! // The paper's N=544 organization (Table 1) under the Fig. 5 workload.
//! let spec = cocnet::presets::org_544();
//! let wl = cocnet::presets::wl_m32_l256().with_rate(2e-4);
//!
//! // Analytical prediction (Eqs. 1–39)…
//! let predicted = evaluate(&spec, &wl, &ModelOptions::default()).unwrap();
//!
//! // …validated by discrete-event simulation.
//! let mut cfg = SimConfig::quick(7);
//! cfg.measured = 2_000;
//! let simulated = run_simulation(&spec, &wl, Pattern::Uniform, &cfg);
//!
//! let err = (predicted.latency - simulated.latency.mean) / simulated.latency.mean;
//! assert!(err.abs() < 0.5);
//! ```
//!
//! # Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`cocnet_topology`] | m-port n-trees, Up*/Down* routing, system specs |
//! | [`cocnet_model`] | the analytical latency model (the paper's contribution) |
//! | [`cocnet_sim`] | discrete-event wormhole simulator (validation substrate) |
//! | [`cocnet_workloads`] | traffic patterns and the paper's presets |
//! | [`cocnet_stats`] | statistics utilities |

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod compare;
pub mod registry;
pub mod report;
pub mod runner;

pub use cocnet_model as model;
pub use cocnet_sim as sim;
pub use cocnet_stats as stats;
pub use cocnet_topology as topology;
pub use cocnet_workloads::presets;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::compare::{compare_series, ValidationRow};
    pub use crate::registry::RunOpts;
    pub use crate::runner::{PointSim, RateGrid, Scenario, Seeding, WorkloadEntry};
    pub use cocnet_model::{
        evaluate, saturation_point, sweep, ModelOptions, SystemLatency, VarianceApprox, Workload,
    };
    pub use cocnet_sim::{run_simulation, Coupling, SimConfig, SimResults};
    pub use cocnet_stats::{Series, Summary};
    pub use cocnet_topology::{ClusterSpec, MPortNTree, NetworkCharacteristics, SystemSpec};
    pub use cocnet_workloads::Pattern;
}
