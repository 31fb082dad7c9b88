//! The unified experiment runner: one [`Scenario`] abstraction executed
//! over a rayon pool with deterministic seeding, shared by every registry
//! entry that sweeps load and by the CLI.
//!
//! A `Scenario` names the whole experiment — system spec, workloads,
//! traffic pattern, sweep grid, replication budget, model options,
//! simulation config — and the runner fans every (workload × rate ×
//! replication) simulation out over the thread pool.
//!
//! # One sweep loop
//!
//! [`Scenario::run_sim_detailed`] runs a sweep in waves. A fixed scenario
//! is one wave of `replications` runs per point. A scenario with a
//! [`PrecisionSpec`] starts each point with `min_replications` runs and
//! adds waves until the CI over the point's replication means meets the
//! target or `max_replications` trips. Either way each point ends as a
//! [`PointSim`] holding every run spent on it.
//!
//! # Determinism
//!
//! Parallel execution is bit-identical to serial execution: replication
//! `r` of a point runs at seed `point_seed + r` ([`Seeding`]) in both
//! modes, a wave's results are reassembled in job order regardless of
//! completion order, and stopping is decided only between waves.
//! [`Scenario::run_sim_detailed_serial`] is the same loop on a plain
//! iterator — the equality is pinned by `tests/scenario_smoke.rs` and
//! `tests/adaptive.rs`.

use cocnet_model::{sweep, ModelOptions, Workload};
use cocnet_sim::{
    run_simulation_built, summarize, validate_budgets, validate_faults, BuiltSystem,
    ReplicationSummary, SimConfig, SimResults,
};
use cocnet_stats::{CiPoint, CiSeries, ConfidenceInterval, Precision, Series};
use cocnet_topology::SystemSpec;
use cocnet_workloads::Pattern;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Largest number of latency samples a scenario may ask the sinks to
/// keep (`sim.measured` under `sim.collect_percentiles`, `sim.warmup +
/// sim.measured` under `sim.audit_warmup`): they reserve room for every
/// sample, 8 bytes each, before the run starts.
const MAX_RESERVED_SAMPLES: u64 = 1 << 28;

/// Largest sweep a scenario file or a `cocnet` flag may ask for: at most
/// this many rates, and at most this many simulation runs (`workloads ×
/// rates ×` the per-point cap: `replications`, or a precision scenario's
/// `precision.max_replications`). The runner lists a wave's runs before
/// it starts one, so a larger sweep would abort on that allocation rather
/// than fail validation.
pub const MAX_SWEEP_RUNS: usize = 1 << 20;

/// How per-job seeds are derived from `sim.seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Seeding {
    /// Every sweep point uses `sim.seed` as its base seed (replication `r`
    /// adds `r`). This is the historical figure-harness behaviour — the
    /// published series and the determinism tests assume it.
    #[default]
    Shared,
    /// Each (workload, point) pair gets its own base seed, mixed from
    /// `sim.seed` by a SplitMix64 step, so sweep points are statistically
    /// independent even at equal rates. Preferred for new studies.
    PerPoint,
}

/// One plotted series: a legend label plus the workload that produces it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WorkloadEntry {
    /// Legend suffix, e.g. `"Lm=256"` (series render as `Analysis (Lm=256)`
    /// / `Simulation (Lm=256)`).
    pub label: String,
    /// The workload swept for this series (its `lambda_g` is replaced by
    /// each grid rate in turn).
    pub workload: Workload,
}

/// The sweep grid of a [`Scenario`]: either the traffic generation rates
/// spelled out in plot order, or an evenly spaced range.
///
/// In JSON a grid is *untagged*: an array is an explicit list, an object
/// `{"start": …, "stop": …, "steps": …}` is a range (`start` may be
/// omitted and defaults to 0). A range resolves to `steps` evenly spaced
/// rates in `(start, stop]` — exactly [`cocnet_model::rate_grid`] when
/// `start == 0`, so declarative scenarios reproduce the figures' grids
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub enum RateGrid {
    /// Explicit rates, in plot order.
    List(Vec<f64>),
    /// `steps` evenly spaced rates in `(start, stop]`.
    Range {
        /// Exclusive lower bound (0 = the classic figure grid).
        start: f64,
        /// Inclusive upper bound (the largest rate on the x axis).
        stop: f64,
        /// Number of grid points.
        steps: usize,
    },
}

impl Default for RateGrid {
    fn default() -> Self {
        RateGrid::List(Vec::new())
    }
}

impl RateGrid {
    /// Resolves the grid to concrete rates, in plot order.
    pub fn values(&self) -> Vec<f64> {
        match self {
            RateGrid::List(rates) => rates.clone(),
            &RateGrid::Range { start, stop, steps } => {
                if start == 0.0 {
                    // Delegate so the resolved grid is bit-identical to the
                    // historical figure grids.
                    cocnet_model::rate_grid(stop, steps)
                } else {
                    (1..=steps)
                        .map(|i| start + (stop - start) * i as f64 / steps as f64)
                        .collect()
                }
            }
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        match self {
            RateGrid::List(rates) => rates.len(),
            RateGrid::Range { steps, .. } => *steps,
        }
    }

    /// Whether the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy re-gridded to `steps` points. Ranges rescale; explicit lists
    /// have no generating rule, so they are truncated/kept as-is (never
    /// extended).
    pub fn with_steps(&self, steps: usize) -> RateGrid {
        match self {
            RateGrid::List(rates) => {
                RateGrid::List(rates.iter().copied().take(steps.max(1)).collect())
            }
            &RateGrid::Range { start, stop, .. } => RateGrid::Range { start, stop, steps },
        }
    }
}

impl Serialize for RateGrid {
    fn to_value(&self) -> serde::Value {
        match self {
            RateGrid::List(rates) => rates.to_value(),
            &RateGrid::Range { start, stop, steps } => serde::Value::Obj(vec![
                ("start".to_string(), start.to_value()),
                ("stop".to_string(), stop.to_value()),
                ("steps".to_string(), steps.to_value()),
            ]),
        }
    }
}

impl Deserialize for RateGrid {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Arr(_) => Ok(RateGrid::List(Vec::<f64>::from_value(v)?)),
            serde::Value::Obj(_) => {
                serde::check_unknown_fields(v, "RateGrid", &["start", "stop", "steps"])?;
                let start = match v.get("start") {
                    Some(inner) => serde::de_field_val(inner, "RateGrid", "start")?,
                    None => 0.0,
                };
                Ok(RateGrid::Range {
                    start,
                    stop: serde::de_field(v, "RateGrid", "stop")?,
                    steps: serde::de_field(v, "RateGrid", "steps")?,
                })
            }
            other => Err(serde::DeError::expected(
                "rate list or {start, stop, steps} range",
                other,
            )),
        }
    }
}

/// `#[serde(default = …)]` helper: scenarios run one replication per point
/// unless the file says otherwise.
fn default_replications() -> usize {
    1
}

/// A precision target for adaptive replication control, as declared in a
/// scenario file (`"precision": {"rel_ci": 0.05}`) or forced from the CLI
/// (`cocnet run … --rel-ci 0.05`).
///
/// With a `precision`, a scenario stops running a fixed number of
/// replications per sweep point: the runner adds replications in
/// deterministic waves until the confidence interval over the replication
/// means is tight enough ([`Scenario::run_sim_detailed`]), or the
/// `max_replications` cap trips. `rel_ci`/`abs_ci` mirror
/// [`cocnet_stats::Precision`]'s relative/absolute half-width bounds; at
/// least one must be set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct PrecisionSpec {
    /// Maximum relative CI half-width (`half_width / mean`), e.g. `0.05`.
    pub rel_ci: Option<f64>,
    /// Maximum absolute CI half-width, in latency time units.
    pub abs_ci: Option<f64>,
    /// Confidence level of the interval (default 0.95).
    pub level: f64,
    /// Replications every point starts with (default 2 — the fewest that
    /// yield a finite CI).
    pub min_replications: usize,
    /// Hard cap per point (default 32): a point still unconverged here is
    /// reported with `converged = false` rather than run forever.
    pub max_replications: usize,
    /// Replications added per wave after the first (default 4). Larger
    /// waves use wide pools better; smaller waves stop closer to the
    /// minimum needed.
    pub wave: usize,
}

impl Default for PrecisionSpec {
    fn default() -> Self {
        PrecisionSpec {
            rel_ci: None,
            abs_ci: None,
            level: 0.95,
            min_replications: 2,
            max_replications: 32,
            wave: 4,
        }
    }
}

impl PrecisionSpec {
    /// The equivalent [`cocnet_stats::Precision`] stopping rule.
    pub fn target(&self) -> Precision {
        Precision {
            rel: self.rel_ci,
            abs: self.abs_ci,
            level: self.level,
        }
    }

    /// Checks every invariant a deserialized precision spec must satisfy.
    pub fn validate(&self) -> Result<(), String> {
        self.target().validate()?;
        if self.min_replications < 2 {
            return Err(format!(
                "precision: min_replications must be >= 2, a single replication has no CI (got {})",
                self.min_replications
            ));
        }
        if self.max_replications < self.min_replications {
            return Err(format!(
                "precision: max_replications {} below min_replications {}",
                self.max_replications, self.min_replications
            ));
        }
        if self.wave == 0 {
            return Err("precision: wave must be >= 1".into());
        }
        Ok(())
    }
}

/// One fully specified experiment: everything needed to regenerate a
/// latency-vs-load figure (or any rate sweep) from both the analytical
/// model and the simulator.
///
/// A `Scenario` is pure data — it serializes to/from JSON (see the
/// `scenarios/` directory for the committed paper experiments), so new
/// experiments can be authored and run through `cocnet run file.json`
/// without recompiling. Only `spec`, `workloads` and `rates` are required
/// in a file; everything else has the documented default.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Scenario {
    /// Human-readable title (used by reports; never by execution).
    #[serde(default)]
    pub name: String,
    /// The system organization under study.
    pub spec: SystemSpec,
    /// The plotted series; each label/workload pair produces one.
    pub workloads: Vec<WorkloadEntry>,
    /// Destination traffic pattern for the simulator (default: uniform).
    #[serde(default)]
    pub pattern: Pattern,
    /// The sweep grid: traffic generation rates, in plot order.
    pub rates: RateGrid,
    /// Independent replications per sweep point (≥ 1, default 1). A
    /// scenario with a `precision` leaves it at 1: its budget per point is
    /// `precision.min_replications` to `precision.max_replications`.
    #[serde(default = "default_replications")]
    pub replications: usize,
    /// Optional precision target: when set, the runner replicates each
    /// point in waves until the latency CI meets the target (see
    /// [`PrecisionSpec`]); when absent, the scenario runs exactly
    /// `replications` per point.
    #[serde(default)]
    pub precision: Option<PrecisionSpec>,
    /// Seed-derivation policy (default: the historical shared seed).
    #[serde(default)]
    pub seeding: Seeding,
    /// Analytical-model options (default: the paper's).
    #[serde(default)]
    pub opts: ModelOptions,
    /// Simulation configuration (default: the paper's §4 methodology).
    #[serde(default)]
    pub sim: SimConfig,
}

/// One sweep point's simulation outcome: every run spent on it, in seed
/// order (replication `r` ran at `seed + r`), plus the rate they ran at.
/// Detailed enough for entries that report more than the mean
/// (intra/inter splits, channel utilisation, fault accounting), and for a
/// precision scenario's CI and spend.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSim {
    /// Traffic generation rate of this point.
    pub rate: f64,
    /// Base seed the point's replications started from.
    pub seed: u64,
    /// Per-replication results, in seed order.
    pub runs: Vec<SimResults>,
}

impl PointSim {
    /// Whether every replication measured a latency
    /// ([`SimResults::has_latency`]), which puts the point on the
    /// simulation series: a run that drained because faults cut off part
    /// of its measured population counts, a saturated one does not. A
    /// point without one is saturated, and precision waves stop at it.
    pub fn has_latency(&self) -> bool {
        self.runs.iter().all(SimResults::has_latency)
    }

    /// Cross-replication summary (mean of means) over the replications in
    /// seed order, as [`summarize`] merges them.
    pub fn summary(&self) -> ReplicationSummary {
        summarize(&self.runs)
    }

    /// Confidence interval over the replication means at `level`.
    pub fn ci(&self, level: f64) -> ConfidenceInterval {
        self.summary().ci(level)
    }

    /// Whether the point met `precision`'s target: it measured a latency,
    /// spent at least `min_replications`, and its CI at the target's level
    /// is within the bounds. The sweep loop stops a point as soon as this
    /// holds, so an unconverged point saturated or tripped the cap.
    pub fn converged(&self, precision: &PrecisionSpec) -> bool {
        self.has_latency()
            && self.runs.len() >= precision.min_replications
            && precision.target().met_by(&self.ci(precision.level))
    }

    /// Replications whose MSER-5 warm-up audit flagged a transient
    /// outlasting the configured warm-up (0 unless `sim.audit_warmup` is
    /// set).
    pub fn warmup_flagged(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.warmup_audit.is_some_and(|a| a.exceeds()))
            .count()
    }

    /// The first replication's full results (convenient when
    /// `replications == 1`).
    pub fn first(&self) -> &SimResults {
        &self.runs[0]
    }

    /// Total transmissions dropped at failed channels across replications.
    pub fn dropped_total(&self) -> u64 {
        self.runs.iter().map(|r| r.dropped).sum()
    }

    /// Total retransmissions across the point's replications.
    pub fn retransmits_total(&self) -> u64 {
        self.runs.iter().map(|r| r.retransmits).sum()
    }

    /// Total messages written off as unreachable across replications.
    pub fn unreachable_total(&self) -> u64 {
        self.runs.iter().map(|r| r.unreachable).sum()
    }

    /// Fraction of generated messages fully delivered, pooled over the
    /// point's replications — the degradation sweep's y-axis.
    pub fn delivered_fraction(&self) -> f64 {
        let gen: u64 = self.runs.iter().map(|r| r.generated).sum();
        if gen == 0 {
            1.0
        } else {
            self.runs.iter().map(|r| r.delivered_total).sum::<u64>() as f64 / gen as f64
        }
    }
}

/// A single schedulable unit: one simulation run of a wave.
#[derive(Debug, Clone, Copy)]
struct Job {
    workload: usize,
    point: usize,
    rate: f64,
    seed: u64,
}

/// SplitMix64 output function — the seed mixer behind [`Seeding::PerPoint`].
fn mix_seed(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Scenario {
    /// A scenario with the given title and system, no workloads or rates
    /// yet, uniform traffic, one replication, shared seeding, and default
    /// model/sim options. Chain the `with_*` builders to fill it in.
    pub fn new(name: impl Into<String>, spec: SystemSpec) -> Self {
        Scenario {
            name: name.into(),
            spec,
            workloads: Vec::new(),
            pattern: Pattern::Uniform,
            rates: RateGrid::default(),
            replications: 1,
            precision: None,
            seeding: Seeding::default(),
            opts: ModelOptions::default(),
            sim: SimConfig::default(),
        }
    }

    /// Adds one `(legend suffix, workload)` series.
    pub fn with_workload(mut self, label: impl Into<String>, wl: Workload) -> Self {
        self.workloads.push(WorkloadEntry {
            label: label.into(),
            workload: wl,
        });
        self
    }

    /// Sets the sweep grid to an explicit rate list.
    pub fn with_rates(mut self, rates: Vec<f64>) -> Self {
        self.rates = RateGrid::List(rates);
        self
    }

    /// Sets an evenly spaced grid of `points` rates over `(0, max]`.
    pub fn with_grid(mut self, max: f64, points: usize) -> Self {
        self.rates = RateGrid::Range {
            start: 0.0,
            stop: max,
            steps: points,
        };
        self
    }

    /// Sets the traffic pattern.
    pub fn with_pattern(mut self, pattern: Pattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Sets the per-point replication count.
    pub fn with_replications(mut self, replications: usize) -> Self {
        assert!(replications > 0, "need at least one replication");
        self.replications = replications;
        self
    }

    /// Sets the seeding policy.
    pub fn with_seeding(mut self, seeding: Seeding) -> Self {
        self.seeding = seeding;
        self
    }

    /// Sets the precision target, switching the sweep loop from a fixed
    /// replication count to precision waves.
    pub fn with_precision(mut self, precision: PrecisionSpec) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Sets the simulation configuration.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// The base seed of one (workload, point) pair under the scenario's
    /// seeding policy. Replication `r` runs at `point_seed + r`.
    pub fn point_seed(&self, workload: usize, point: usize) -> u64 {
        match self.seeding {
            Seeding::Shared => self.sim.seed,
            Seeding::PerPoint => mix_seed(self.sim.seed, (workload as u64) << 32 | point as u64),
        }
    }

    /// Checks every invariant a deserialized scenario file must satisfy
    /// before it can execute: a valid system and workloads, a non-empty
    /// positive finite rate grid, at least one replication (exactly one
    /// beside a `precision`, which sets its own budget), a sweep within
    /// [`MAX_SWEEP_RUNS`] rates and runs, pattern
    /// parameters in range, and a terminating simulation config. The
    /// builder methods cannot construct most of these violations; `cocnet
    /// validate` and `cocnet run <file>` call this on every loaded file.
    pub fn validate(&self) -> Result<(), String> {
        self.spec.validate().map_err(|e| format!("spec: {e}"))?;
        // Before anything sized by the system: a spec over an id budget is
        // rejected from its arithmetic alone.
        validate_budgets(&self.spec, self.sim.interning).map_err(|e| e.to_string())?;
        if self.workloads.is_empty() {
            return Err("scenario needs at least one workload".into());
        }
        for entry in &self.workloads {
            entry
                .workload
                .validate()
                .map_err(|e| format!("workload {:?}: {e}", entry.label))?;
        }
        if let RateGrid::Range { start, stop, steps } = self.rates {
            if !(start.is_finite() && start >= 0.0 && stop.is_finite() && stop > start) {
                return Err(format!(
                    "rates: range needs finite 0 <= start < stop (got start={start}, stop={stop})"
                ));
            }
            if steps == 0 {
                return Err("rates: range needs at least one step".into());
            }
        }
        // From the grid's length alone: resolving an oversized range would
        // allocate it.
        let points = self.rates.len();
        if points > MAX_SWEEP_RUNS {
            let field = match self.rates {
                RateGrid::List(_) => "rates",
                RateGrid::Range { .. } => "rates.steps",
            };
            return Err(format!(
                "{field}: at most {MAX_SWEEP_RUNS} rates in a sweep (got {points})"
            ));
        }
        if self.precision.is_some() && self.replications != 1 {
            return Err(format!(
                "replications: a precision scenario spends precision.min_replications to \
                 precision.max_replications per point; leave replications at 1 (got {})",
                self.replications
            ));
        }
        let field = match self.precision {
            Some(_) => "precision.max_replications",
            None => "replications",
        };
        // The cap the sweep loop itself stops at.
        let replications = self.max_replications();
        let workloads = self.workloads.len();
        let runs = workloads
            .checked_mul(points)
            .and_then(|n| n.checked_mul(replications));
        if runs.is_none_or(|n| n > MAX_SWEEP_RUNS) {
            return Err(format!(
                "{field}: at most {MAX_SWEEP_RUNS} runs in a sweep, workloads x rates x \
                 {field} (got {workloads} x {points} x {replications})"
            ));
        }
        let rates = self.rates.values();
        if rates.is_empty() {
            return Err("scenario needs at least one rate".into());
        }
        for &rate in &rates {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(format!(
                    "rates: every rate must be finite and > 0 (got {rate})"
                ));
            }
        }
        if self.replications == 0 {
            return Err("replications must be >= 1".into());
        }
        if let Some(precision) = &self.precision {
            precision.validate()?;
        }
        let unit = |x: f64, what: &str| {
            if (0.0..=1.0).contains(&x) {
                Ok(())
            } else {
                Err(format!("pattern: {what} must lie in [0, 1] (got {x})"))
            }
        };
        match self.pattern {
            Pattern::Uniform | Pattern::Complement => {}
            Pattern::Hotspot { hotspot, fraction } => {
                unit(fraction, "hotspot fraction")?;
                if hotspot >= self.spec.total_nodes() {
                    return Err(format!(
                        "pattern: hotspot node {hotspot} outside the {}-node system",
                        self.spec.total_nodes()
                    ));
                }
            }
            Pattern::ClusterLocal { locality } => unit(locality, "locality")?,
            Pattern::ClusterShift { shift } => {
                if shift == 0 || shift >= self.spec.num_clusters() {
                    return Err(format!(
                        "pattern: shift must lie in 1..{} (got {shift})",
                        self.spec.num_clusters()
                    ));
                }
            }
        }
        if self.sim.measured == 0 {
            return Err("sim: need at least one measured message".into());
        }
        if self.sim.max_events == 0 {
            return Err("sim: max_events of 0 can never terminate a run".into());
        }
        let sim = &self.sim;
        if sim
            .warmup
            .checked_add(sim.measured)
            .and_then(|n| n.checked_add(sim.drain))
            .is_none()
        {
            return Err(format!(
                "sim.warmup + sim.measured + sim.drain overflows a 64-bit count \
                 (got {} + {} + {})",
                sim.warmup, sim.measured, sim.drain
            ));
        }
        if sim.collect_percentiles && sim.measured > MAX_RESERVED_SAMPLES {
            return Err(format!(
                "sim.measured: at most {MAX_RESERVED_SAMPLES} messages with \
                 sim.collect_percentiles, which keeps one latency per measured message \
                 (got {})",
                sim.measured
            ));
        }
        if sim.audit_warmup && sim.warmup + sim.measured > MAX_RESERVED_SAMPLES {
            return Err(format!(
                "sim.warmup + sim.measured: at most {MAX_RESERVED_SAMPLES} messages with \
                 sim.audit_warmup, which keeps one latency per audited message (got {} + {})",
                sim.warmup, sim.measured
            ));
        }
        if self.sim.adaptive_routing {
            // Engine-level adaptive routing draws per-hop digits against the
            // fat-tree's free-ascent structure; a scenario pairing it with a
            // non-tree backend would otherwise panic deep inside the engine.
            self.spec
                .adaptive_routing_supported()
                .map_err(|e| format!("sim: {e}"))?;
        }
        validate_faults(&self.spec, &self.sim.faults).map_err(|e| format!("faults: {e}"))?;
        Ok(())
    }

    /// The analytical series: one per workload, produced by
    /// [`cocnet_model::sweep()`] over the scenario grid. Rates past the
    /// stability boundary yield no point, as in the paper's figures.
    pub fn run_model(&self) -> Vec<Series> {
        let rates = self.rates.values();
        self.workloads
            .iter()
            .map(|entry| {
                sweep(
                    &self.spec,
                    &entry.workload,
                    &rates,
                    &self.opts,
                    format!("Analysis ({})", entry.label),
                )
            })
            .collect()
    }

    /// The simulation series: one per workload, each point the mean over
    /// the point's replications. Points with a replication that measured
    /// no latency (saturation) are omitted, mirroring how the paper's
    /// simulation points stop at saturation; see [`PointSim::has_latency`].
    /// Each wave's (workload × rate × replication) runs execute
    /// concurrently on the rayon pool.
    pub fn run_sim(&self) -> Vec<Series> {
        self.sim_series(&self.run_sim_detailed())
    }

    /// Full per-point results (per workload, in grid order) from the sweep
    /// loop, each wave's runs in parallel on the rayon pool. Use this
    /// instead of [`Scenario::run_sim`] when an entry needs more than the
    /// latency mean.
    pub fn run_sim_detailed(&self) -> Vec<Vec<PointSim>> {
        self.run_waves(false)
    }

    /// Serial reference for [`Scenario::run_sim_detailed`]: the same loop
    /// on a plain iterator, for determinism tests and for measuring the
    /// parallel speedup; bit-identical results.
    pub fn run_sim_detailed_serial(&self) -> Vec<Vec<PointSim>> {
        self.run_waves(true)
    }

    /// The most runs the sweep loop spends on one point: `replications`,
    /// or a precision scenario's `max_replications`.
    fn max_replications(&self) -> usize {
        self.precision
            .map_or(self.replications, |p| p.max_replications)
    }

    /// How many runs `point` gets in the next wave: a fixed scenario's
    /// `replications` in the first and none after; a precision scenario's
    /// `min_replications` in the first, then `wave` more until the point
    /// converges, saturates or reaches `max_replications`.
    fn next_wave(&self, point: &PointSim) -> usize {
        let have = point.runs.len();
        let want = match &self.precision {
            None => self.replications,
            Some(p) if have == 0 => p.min_replications,
            // More runs of a saturated point cannot converge.
            Some(p) if !point.has_latency() || point.converged(p) => 0,
            Some(p) => p.wave,
        };
        want.min(self.max_replications().saturating_sub(have))
    }

    /// The sweep loop: plans every point's next wave, runs it, and lands
    /// its results in job order before planning the next, so the schedule
    /// never depends on completion order.
    fn run_waves(&self, serial: bool) -> Vec<Vec<PointSim>> {
        let builts = self.build_all();
        let rates = self.rates.values();
        let mut points: Vec<Vec<PointSim>> = (0..self.workloads.len())
            .map(|w| {
                rates
                    .iter()
                    .enumerate()
                    .map(|(p, &rate)| PointSim {
                        rate,
                        seed: self.point_seed(w, p),
                        runs: Vec::new(),
                    })
                    .collect()
            })
            .collect();
        loop {
            // In (workload, point, replication) order.
            let mut jobs = Vec::new();
            for (w, row) in points.iter().enumerate() {
                for (p, point) in row.iter().enumerate() {
                    let have = point.runs.len();
                    jobs.extend((have..have + self.next_wave(point)).map(|r| Job {
                        workload: w,
                        point: p,
                        rate: point.rate,
                        seed: point.seed.wrapping_add(r as u64),
                    }));
                }
            }
            if jobs.is_empty() {
                return points;
            }
            let run = |job: &Job| self.run_job(&builts, job);
            let results: Vec<SimResults> = if serial {
                jobs.iter().map(run).collect()
            } else {
                jobs.par_iter().map(run).collect()
            };
            for (job, result) in jobs.iter().zip(results) {
                points[job.workload][job.point].runs.push(result);
            }
        }
    }

    /// One built system per workload (flit size differs per workload);
    /// building once and sharing it across the pool avoids redundant
    /// route-table construction per sweep point.
    fn build_all(&self) -> Vec<BuiltSystem> {
        self.workloads
            .iter()
            .map(|entry| BuiltSystem::for_config(&self.spec, entry.workload.flit_bytes, &self.sim))
            .collect()
    }

    /// Executes one job. Pure: output depends only on (scenario, job).
    fn run_job(&self, builts: &[BuiltSystem], job: &Job) -> SimResults {
        let wl = &self.workloads[job.workload].workload;
        let cfg = SimConfig {
            seed: job.seed,
            ..self.sim.clone()
        };
        run_simulation_built(
            &builts[job.workload],
            &wl.with_rate(job.rate),
            self.pattern,
            &cfg,
        )
    }

    /// Builds the CI-bearing `Simulation (…)` series of a precision
    /// scenario: one [`CiSeries`] per workload at `precision.level`, each
    /// point with its CI, spend and convergence; saturated points are
    /// omitted, as in [`Scenario::sim_series`].
    pub fn ci_series(
        &self,
        detailed: &[Vec<PointSim>],
        precision: &PrecisionSpec,
    ) -> Vec<CiSeries> {
        self.workloads
            .iter()
            .zip(detailed)
            .map(|(entry, points)| {
                let mut series =
                    CiSeries::new(format!("Simulation ({})", entry.label), precision.level);
                for point in points.iter().filter(|p| p.has_latency()) {
                    let summary = point.summary();
                    let ci = summary.ci(precision.level);
                    series.push(CiPoint {
                        x: point.rate,
                        y: summary.mean,
                        lo: ci.lo(),
                        hi: ci.hi(),
                        replications: point.runs.len(),
                        converged: point.converged(precision),
                    });
                }
                series
            })
            .collect()
    }

    /// Builds the `Simulation (…)` series from detailed results — public
    /// so harnesses that need both the per-point counters (fault
    /// accounting) and the latency series can run the sweep once.
    pub fn sim_series(&self, detailed: &[Vec<PointSim>]) -> Vec<Series> {
        self.workloads
            .iter()
            .zip(detailed)
            .map(|(entry, points)| {
                let mut series = Series::new(format!("Simulation ({})", entry.label));
                for point in points {
                    if point.has_latency() {
                        series.push(point.rate, point.summary().mean);
                    }
                }
                series
            })
            .collect()
    }
}

/// Order-preserving parallel map over arbitrary experiment jobs — for
/// entries whose sweep axis is not a rate grid (locality, duty cycle,
/// buffer depth…). Results arrive in input order; panics propagate.
pub fn par_map<J: Sync, R: Send>(jobs: &[J], f: impl Fn(&J) -> R + Sync) -> Vec<R> {
    jobs.par_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocnet_topology::{ClusterSpec, NetworkCharacteristics};

    fn small_spec() -> SystemSpec {
        let net1 = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
        let net2 = NetworkCharacteristics::new(250.0, 0.05, 0.01).unwrap();
        let c = |n| ClusterSpec {
            n,
            icn1: net1,
            ecn1: net2,
            topology: Default::default(),
        };
        SystemSpec::new(4, vec![c(1), c(1), c(2), c(2)], net1).unwrap()
    }

    fn quick_sim(seed: u64) -> SimConfig {
        SimConfig {
            warmup: 200,
            measured: 2_000,
            drain: 200,
            seed,
            ..SimConfig::default()
        }
    }

    fn scenario() -> Scenario {
        Scenario::new("test", small_spec())
            .with_workload("Lm=256", Workload::new(0.0, 16, 256.0).unwrap())
            .with_grid(6e-4, 4)
            .with_sim(quick_sim(11))
    }

    #[test]
    fn validate_rejects_adaptive_routing_on_non_tree_specs() {
        use cocnet_topology::{TopoSpec, TorusShape};

        let mut s = scenario();
        s.sim.adaptive_routing = true;
        s.validate().unwrap();
        s.spec.clusters[1].n = 0;
        s.spec.clusters[1].topology = TopoSpec::Torus(TorusShape::new(&[2, 2]).unwrap());
        let err = s.validate().unwrap_err();
        assert!(
            err.contains("torus") && err.contains("adaptive"),
            "unexpected error: {err}"
        );
        s.sim.adaptive_routing = false;
        s.validate().unwrap();
    }

    #[test]
    fn parallel_equals_serial_bitwise() {
        for seeding in [Seeding::Shared, Seeding::PerPoint] {
            let s = scenario().with_seeding(seeding).with_replications(2);
            let par = s.run_sim_detailed();
            let ser = s.run_sim_detailed_serial();
            assert_eq!(par.len(), ser.len());
            for (pw, sw) in par.iter().zip(&ser) {
                for (pp, sp) in pw.iter().zip(sw) {
                    assert_eq!(pp.seed, sp.seed);
                    assert_eq!(pp.runs.len(), sp.runs.len());
                    for (pr, sr) in pp.runs.iter().zip(&sp.runs) {
                        assert_eq!(pr.latency, sr.latency);
                        assert_eq!(pr.generated, sr.generated);
                        assert_eq!(pr.sim_time, sr.sim_time);
                    }
                }
            }
        }
    }

    #[test]
    fn shared_seeding_matches_plain_run_simulation() {
        let s = scenario();
        let series = s.run_sim();
        assert_eq!(series.len(), 1);
        for point in &series[0].points {
            let r = cocnet_sim::run_simulation(
                &s.spec,
                &s.workloads[0].workload.with_rate(point.x),
                Pattern::Uniform,
                &s.sim,
            );
            assert_eq!(r.latency.mean, point.y, "rate {}", point.x);
        }
    }

    #[test]
    fn per_point_seeds_are_distinct_and_stable() {
        let s = scenario()
            .with_seeding(Seeding::PerPoint)
            .with_grid(6e-4, 8);
        let mut seen = std::collections::HashSet::new();
        for p in 0..8 {
            let seed = s.point_seed(0, p);
            assert!(seen.insert(seed), "seed collision at point {p}");
            assert_eq!(seed, s.point_seed(0, p), "seed must be pure");
        }
    }

    #[test]
    fn replications_summarized_like_replicate() {
        let s = scenario().with_replications(3);
        let detailed = s.run_sim_detailed();
        let wl = s.workloads[0].workload.with_rate(s.rates.values()[0]);
        let built = BuiltSystem::build(&s.spec, wl.flit_bytes);
        let runs: Vec<SimResults> = (0..3u64)
            .map(|r| {
                let cfg = SimConfig {
                    seed: s.point_seed(0, 0).wrapping_add(r),
                    ..s.sim.clone()
                };
                run_simulation_built(&built, &wl, Pattern::Uniform, &cfg)
            })
            .collect();
        let reference = summarize(&runs);
        let got = detailed[0][0].summary();
        assert_eq!(got.replication_means, reference.replication_means);
        assert_eq!(got.mean, reference.mean);
    }

    #[test]
    fn par_map_preserves_order() {
        let jobs: Vec<u64> = (0..40).collect();
        let out = par_map(&jobs, |&j| j * j);
        assert_eq!(out, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
    }

    #[test]
    fn rate_grid_single_point_and_zero_start_edges() {
        // A 1-point zero-start range is the 1-point figure grid: just the
        // stop rate.
        let one = RateGrid::Range {
            start: 0.0,
            stop: 4e-4,
            steps: 1,
        };
        assert_eq!(one.len(), 1);
        assert!(!one.is_empty());
        assert_eq!(one.values(), vec![4e-4]);
        // A zero-start range must resolve through `rate_grid` bit-for-bit.
        let grid = RateGrid::Range {
            start: 0.0,
            stop: 1e-3,
            steps: 10,
        };
        assert_eq!(grid.values(), cocnet_model::rate_grid(1e-3, 10));
        // A nonzero start excludes the start itself and includes the stop.
        let shifted = RateGrid::Range {
            start: 2e-4,
            stop: 6e-4,
            steps: 4,
        };
        let vals = shifted.values();
        assert_eq!(vals.len(), 4);
        assert!(vals[0] > 2e-4);
        assert_eq!(*vals.last().unwrap(), 6e-4);
        // A 1-point explicit list survives with_steps unchanged; lists
        // never grow.
        let list = RateGrid::List(vec![3e-4]);
        assert_eq!(list.with_steps(1).values(), vec![3e-4]);
        assert_eq!(list.with_steps(5).values(), vec![3e-4]);
        // Ranges re-grid exactly.
        assert_eq!(grid.with_steps(1).values(), vec![1e-3]);
        assert_eq!(
            grid.with_steps(5).values(),
            cocnet_model::rate_grid(1e-3, 5)
        );
    }

    #[test]
    fn precision_spec_validation() {
        assert!(PrecisionSpec::default().validate().is_err(), "no bound set");
        let rel = PrecisionSpec {
            rel_ci: Some(0.05),
            ..PrecisionSpec::default()
        };
        assert!(rel.validate().is_ok());
        assert!(PrecisionSpec {
            min_replications: 1,
            ..rel
        }
        .validate()
        .is_err());
        assert!(PrecisionSpec {
            max_replications: 1,
            ..rel
        }
        .validate()
        .is_err());
        assert!(PrecisionSpec { wave: 0, ..rel }.validate().is_err());
        assert!(PrecisionSpec { level: 1.5, ..rel }.validate().is_err());
        // Scenario::validate threads the precision check through.
        let bad = scenario().with_precision(PrecisionSpec::default());
        assert!(bad.validate().is_err());
        let good = scenario().with_precision(rel);
        assert!(good.validate().is_ok());
        // A precision target sets the budget; a fixed count beside it would
        // be silently overruled.
        let err = good.with_replications(3).validate().unwrap_err();
        assert!(err.starts_with("replications:"), "{err}");
    }

    fn adaptive_scenario(rel: f64, max: usize) -> Scenario {
        scenario().with_grid(6e-4, 2).with_precision(PrecisionSpec {
            rel_ci: Some(rel),
            min_replications: 2,
            max_replications: max,
            wave: 2,
            ..PrecisionSpec::default()
        })
    }

    #[test]
    fn adaptive_parallel_equals_serial_bitwise() {
        let s = adaptive_scenario(0.1, 12);
        let par = s.run_sim_detailed();
        assert_eq!(par, s.run_sim_detailed_serial());
        // Every point spent at least its first wave, and stopped where the
        // loop says it should.
        let p = s.precision.unwrap();
        for point in par.iter().flatten() {
            assert!(point.runs.len() >= p.min_replications);
            assert!(point.converged(&p) || point.runs.len() == p.max_replications);
        }
    }

    #[test]
    fn adaptive_converges_within_target_and_reports_spend() {
        let s = adaptive_scenario(0.2, 16);
        let p = s.precision.unwrap();
        let detailed = s.run_sim_detailed();
        for point in &detailed[0] {
            assert!(point.has_latency());
            assert!(point.converged(&p), "rate {} did not converge", point.rate);
            assert!(point.runs.len() >= 2);
            assert!(point.runs.len() <= 16);
            assert!(point.ci(0.95).half_width / point.summary().mean <= 0.2);
        }
        // The CI series carries the spend through to the report layer.
        let series = s.ci_series(&detailed, &p);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].level, 0.95);
        assert!(series[0].all_converged());
        for p in &series[0].points {
            assert!(p.lo <= p.y && p.y <= p.hi);
            assert!(p.replications >= 2);
        }
    }

    #[test]
    fn faulted_points_keep_their_simulation_means() {
        // A static fault that cuts off some pairs leaves part of the
        // measured population unreachable, so every run drains instead of
        // completing. Each still measured the messages it delivered: the
        // fixed-mode series keeps every point at its replications' mean,
        // and a precision run neither calls the points saturated nor drops
        // them from its series.
        let mut s = scenario().with_grid(6e-4, 2).with_replications(2);
        s.sim.faults.link_fraction = 0.1;
        let detailed = s.run_sim_detailed();
        let series = s.sim_series(&detailed);
        assert_eq!(series[0].points.len(), 2);
        for (point, plotted) in detailed[0].iter().zip(&series[0].points) {
            for r in &point.runs {
                assert_eq!(r.stop, cocnet_sim::StopReason::Drained);
                assert!(!r.completed && r.unreachable > 0);
            }
            assert_eq!(plotted.y, point.summary().mean);
            assert!(plotted.y.is_finite() && plotted.y > 0.0);
        }
        let mut s = adaptive_scenario(0.5, 4);
        s.sim.faults.link_fraction = 0.1;
        let detailed = s.run_sim_detailed();
        assert!(detailed[0].iter().all(PointSim::has_latency));
        let series = s.ci_series(&detailed, &s.precision.unwrap());
        assert_eq!(series[0].points.len(), 2);
    }

    #[test]
    fn adaptive_cap_trips_on_unreachable_target() {
        // A 0.01% relative target cannot be met in 4 replications: every
        // point must stop at the cap, unconverged.
        let s = adaptive_scenario(1e-4, 4);
        let detailed = s.run_sim_detailed();
        for point in &detailed[0] {
            assert!(!point.converged(&s.precision.unwrap()));
            assert_eq!(point.runs.len(), 4);
        }
    }

    #[test]
    fn adaptive_seed_schedule_matches_fixed_mode() {
        // The first k adaptive replications of a point reuse exactly the
        // fixed-mode seeds, so adaptive results are comparable with (and
        // reproducible as) fixed runs.
        let s = adaptive_scenario(0.2, 8);
        let detailed = s.run_sim_detailed();
        let mut fixed = s.clone().with_replications(detailed[0][0].runs.len());
        fixed.precision = None;
        assert_eq!(detailed[0][0], fixed.run_sim_detailed()[0][0]);
    }
}
