//! Library half of the cocnet paper-scale benchmark: the arithmetic and
//! bookkeeping the harness binary (`src/main.rs`) relies on, kept apart so
//! `cargo test` checks it without running a workload.
//!
//! * [`stats`] — medians, Python-compatible quartiles, relative spread and
//!   the paired parent-versus-change comparison.
//! * [`metrics`] — the metric catalogue (names, units, direction), the
//!   name grammar, the assembly of measured values into metrics, and the
//!   result-line encoder.
//! * [`trace`] — in-memory spans around the harness's calls into each
//!   layer, their JSON-lines dump, and per-layer self time.

pub mod metrics;
pub mod stats;
pub mod trace;
