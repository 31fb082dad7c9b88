//! Discrete-event wormhole simulator for heterogeneous cluster-of-clusters
//! fat-tree networks — the validation substrate of the paper (§4).
//!
//! The simulator follows the paper's methodology: every node generates
//! fixed-length messages by an independent Poisson process, destinations
//! are drawn from a traffic pattern (uniform by default), message latencies
//! are measured from generation time-stamp to complete delivery at the sink,
//! and statistics gathering skips a warm-up prefix and is followed by a
//! drain phase of extra generated-but-unmeasured messages.
//!
//! # Wormhole model
//!
//! Channels have single-flit buffers and FIFO arbitration (assumption 6).
//! A message's header acquires channels hop by hop, holding everything
//! upstream while it waits — chained blocking emerges naturally. An
//! inter-cluster message crosses three networks (ECN1(i) → ICN2 → ECN1(j))
//! as three pipelined *segments* separated by the concentrator/dispatcher
//! buffers, which cut through (the header forwards immediately) but decouple
//! the drain rates of adjacent networks (an infinite-buffer assumption that
//! matches the paper's M/G/1 treatment of the concentrators).
//!
//! Within a segment, the tail drains at the segment's bottleneck link rate;
//! channel `k` is released once the tail has fully crossed it. This
//! message-level treatment is exact when `M ≥` path length (true for all of
//! the paper's workloads, `M ∈ {32, 64, 128}` vs. paths ≤ 14) and
//! approximate otherwise. The flit engine (`flit.rs`) models every flit and
//! is the exact reference; `tests/engine_agreement.rs` holds the two
//! engines to each other.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod build;
pub mod config;
pub mod engine;
pub mod events;
pub mod flit;
pub mod replicate;
pub mod results;
pub mod shard;
pub mod trace;

pub use build::{
    validate_faults, AdaptiveRouteCache, AdaptiveScratch, BuildError, BuiltSystem, CachedRoute,
    RouteRef, RouteTable, SegMeta, Segment,
};
pub use config::{
    Coupling, FaultAction, FaultEvent, FaultSchedule, InternMode, ShardMode, SimConfig,
};
pub use engine::{run_simulation, run_simulation_arrivals, run_simulation_built};
pub use events::{ArrivalBand, CalendarQueue, EventQueue, Merged, Scheduler, Timed};
pub use flit::{run_simulation_flit, run_simulation_flit_built};
pub use replicate::{summarize, ReplicationAccumulator, ReplicationSummary};
pub use results::{SimResults, StopReason, WarmupAudit};
pub use trace::{MessageTrace, TraceEvent, TraceEventKind};
