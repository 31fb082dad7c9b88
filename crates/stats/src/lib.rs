//! Statistics utilities shared by the cocnet analytical model, simulator and
//! experiment harness.
//!
//! The crate is deliberately dependency-light: everything here is plain
//! numerics — streaming moments ([`online::OnlineStats`]), exact
//! percentiles ([`percentile::Percentiles`]), confidence intervals
//! ([`ci::mean_confidence_interval`]), warm-up truncation
//! ([`warmup::mser5`]), sweep series containers ([`series::Series`]) and
//! ASCII table rendering ([`table::Table`]).
//!
//! All accumulators are deterministic: feeding the same samples in the same
//! order always produces bit-identical results, which the simulator's
//! reproducibility tests rely on.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod ci;
pub mod online;
pub mod percentile;
pub mod plot;
pub mod precision;
pub mod series;
pub mod summary;
pub mod table;
pub mod warmup;

pub use ci::{mean_confidence_interval, ConfidenceInterval};
pub use online::OnlineStats;
pub use percentile::Percentiles;
pub use plot::scatter;
pub use precision::Precision;
pub use series::{CiPoint, CiSeries, Point, Series};
pub use summary::Summary;
pub use table::Table;
pub use warmup::{mser, mser5, MserResult};
