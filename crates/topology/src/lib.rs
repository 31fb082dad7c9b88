//! m-port n-tree fat-tree topologies and heterogeneous cluster-of-clusters
//! system specifications.
//!
//! This crate provides the *structural* substrate of the cocnet toolkit:
//!
//! * [`tree::MPortNTree`] — the m-port n-tree topology of Lin (ref \[17\] of
//!   the paper): `2(m/2)^n` processing nodes, `(2n−1)(m/2)^{n−1}` switches,
//!   with label algebra, nearest-common-ancestor levels and hop statistics.
//! * [`graph::Graph`] — an explicit channel-level wiring of a tree with
//!   deterministic Up*/Down* routing (refs \[19, 20\]), used by the
//!   discrete-event simulator.
//! * [`system::SystemSpec`] — the heterogeneous cluster-of-clusters system
//!   of the paper's Fig. 1: `C` clusters, per-cluster ICN1/ECN1 trees with
//!   individual network characteristics, and a global ICN2 tree joined by
//!   concentrator/dispatchers.
//! * [`netchar::NetworkCharacteristics`] — bandwidth/latency parameters and
//!   the service-time formulas of Eqs. (11)–(12).
//! * [`topo::Topology`] — the pluggable routing-backend trait ([`Graph`] and
//!   [`torus::Torus`] implement it), the consolidated [`topo::RouteQuery`]
//!   entrypoint, and the serialisable [`topo::TopoSpec`] backend selector.
//! * [`torus::Torus`] — a 2D/3D torus backend with dimension-order routing.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod graph;
pub mod labels;
pub mod netchar;
pub mod system;
pub mod topo;
pub mod torus;
pub mod tree;

pub use error::TopologyError;
pub use graph::{AscentPolicy, ChannelId, ChannelKind, Endpoint, FaultSet, Graph};
pub use labels::{NodeLabel, SwitchLabel};
pub use netchar::NetworkCharacteristics;
pub use system::{ClusterSpec, SystemSpec};
pub use topo::{AnyTopology, RouteMode, RouteQuery, TopoSpec, Topology, TorusShape};
pub use torus::Torus;
pub use tree::MPortNTree;
