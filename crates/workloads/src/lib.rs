//! Traffic workloads and paper-validation presets.
//!
//! * [`pattern::Pattern`] — destination distributions: the paper's uniform
//!   pattern (assumption 2) plus the hotspot and cluster-local patterns the
//!   paper names as future work (§5).
//! * [`arrival::ArrivalSpec`] — per-node Poisson generation (assumption 1)
//!   and its interrupted (on/off) variant.
//! * [`presets`] — the exact system organizations of Table 1, the network
//!   characteristics of Table 2, and the message configurations used by
//!   Figs. 3–7.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod arrival;
pub mod pattern;
pub mod presets;

pub use arrival::{exponential_sample, ArrivalProcess, ArrivalSpec, ArrivalStreams, OnOffPhase};
pub use pattern::{cluster_offsets, Pattern};
