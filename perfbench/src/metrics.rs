//! The metric catalogue, the name grammar, the assembly of measured
//! values into named metrics, and the result-line encoder.
//!
//! The catalogue here and `BENCHMARK.json` must list the same metrics;
//! `tests/harness.rs` holds them equal.

use crate::stats::{median, Better};
use std::collections::BTreeMap;

/// One metric: its name, unit and better direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["fig5_sweep", "org_1m_uniform"];

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("wall_s", "s", Lower),
    def("sim_msgs_per_s", "msg/s", Higher),
    def("peak_rss_mib", "MiB", Lower),
    def("pass_frac", "ratio", Higher),
];

/// Layers whose span self time the traced run reports as `<layer>.self_s`:
/// the repository's modules, plus `runner` for scenario validation.
pub const SPAN_LAYERS: [&str; 9] = [
    "runner",
    "topology",
    "build",
    "workloads",
    "events",
    "engine",
    "shard",
    "stats",
    "model",
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("topology.route_query_ns", "ns", Lower),
    def("build.system_s", "s", Lower),
    def("build.route_ref_cold_ns", "ns", Lower),
    def("build.route_ref_warm_ns", "ns", Lower),
    def("build.classes_touched", "count", Lower),
    def("build.table_bytes", "bytes", Lower),
    def("workloads.gen_ns_per_msg", "ns", Lower),
    def("events.hold_ns_heap", "ns", Lower),
    def("events.hold_ns_calendar", "ns", Lower),
    def("engine.events", "count", Lower),
    def("engine.events_per_msg", "ratio", Lower),
    def("engine.peak_live_msgs", "count", Lower),
    def("engine.ns_per_event", "ns", Lower),
    def("engine.self_ns_per_event", "ns", Lower),
    def("shard.speedup_vs_serial", "ratio", Higher),
    def("shard.sys_frac", "ratio", Lower),
    def("stats.sink_ns_per_msg", "ns", Lower),
    def("model.eval_us", "us", Lower),
    def("model.share", "ratio", Lower),
    def("trace.overhead_s", "s", Lower),
    def("runner.self_s", "s", Lower),
    def("topology.self_s", "s", Lower),
    def("build.self_s", "s", Lower),
    def("workloads.self_s", "s", Lower),
    def("events.self_s", "s", Lower),
    def("engine.self_s", "s", Lower),
    def("shard.self_s", "s", Lower),
    def("stats.self_s", "s", Lower),
    def("model.self_s", "s", Lower),
];

/// Whether `s` is a valid metric or workload name: a letter or digit,
/// then letters, digits, `_`, `.` or `-`; at most 64 characters.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `s` is a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` or `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One timed pass over a workload's points in an untraced run.
#[derive(Debug, Clone, PartialEq)]
pub struct IterSample {
    /// Set-up plus every simulation and model call, seconds.
    pub wall_s: f64,
    /// Host seconds inside the simulation calls.
    pub sim_s: f64,
    /// `delivered_total` summed over the points.
    pub delivered: u64,
    /// Mean model error over the workload's reference points, percent;
    /// `None` when the workload has none.
    pub model_err_pct: Option<f64>,
}

/// Everything an untraced run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSample {
    /// Every set-up of the run, seconds.
    pub setup_s: Vec<f64>,
    /// Every timed pass.
    pub iterations: Vec<IterSample>,
    /// Peak resident set of the process, MiB.
    pub peak_rss_mib: f64,
    /// Points attempted over all passes.
    pub attempted: u64,
    /// Points that failed a check.
    pub failed: u64,
}

/// The end-to-end metric values of an untraced run: medians over the
/// run's set-ups and passes.
pub fn end_to_end_values(s: &RunSample) -> Vec<(&'static str, f64)> {
    let over = |f: fn(&IterSample) -> f64| median(&s.iterations.iter().map(f).collect::<Vec<_>>());
    vec![
        ("setup_s", median(&s.setup_s)),
        ("wall_s", over(|i| i.wall_s)),
        ("sim_msgs_per_s", over(|i| i.delivered as f64 / i.sim_s)),
        ("peak_rss_mib", s.peak_rss_mib),
        (
            "pass_frac",
            (s.attempted - s.failed) as f64 / s.attempted as f64,
        ),
    ]
}

/// `model_err_pct`: the median over passes of the mean |model − sim| / sim
/// over the workload's reference points, percent. Deterministic per seed,
/// so it has no spread to bound; it is printed for the workloads that
/// have reference points and kept out of `BENCHMARK.json`, whose metrics
/// every workload must report.
pub fn model_err_pct(s: &RunSample) -> Option<f64> {
    let errs: Option<Vec<f64>> = s.iterations.iter().map(|i| i.model_err_pct).collect();
    errs.filter(|e| !e.is_empty()).map(|e| median(&e))
}

/// Everything a traced run measured: one traced pass, its untraced twin,
/// and the replayed layer costs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayerSample {
    /// Mean `RouteQuery` cost over the sampled pairs, ns.
    pub route_query_ns: f64,
    /// Median `BuiltSystem::try_build_full` time, s.
    pub build_system_s: f64,
    /// Mean first `route_ref` + `seg_meta` per pair, ns.
    pub route_ref_cold_ns: f64,
    /// Mean repeated `route_ref` + `seg_meta` per pair, ns.
    pub route_ref_warm_ns: f64,
    /// Interned route segments after the pass.
    pub classes_touched: f64,
    /// Resident route-table bytes after the pass.
    pub table_bytes: f64,
    /// One arrival draw plus one `Pattern::sample`, ns.
    pub gen_ns_per_msg: f64,
    /// One schedule + pop on the heap scheduler (hold model), ns.
    pub hold_ns_heap: f64,
    /// One schedule + pop on the calendar scheduler (hold model), ns.
    pub hold_ns_calendar: f64,
    /// Engine events over the pass.
    pub events: f64,
    /// Messages generated over the pass.
    pub generated: f64,
    /// Messages recorded into the sinks over the pass.
    pub recorded: f64,
    /// Largest live-message high-water mark of the pass.
    pub peak_live_msgs: f64,
    /// Host seconds inside the pass's simulation calls.
    pub engine_s: f64,
    /// Serial host seconds ÷ sharded host seconds on the shard probe.
    pub shard_speedup: f64,
    /// System CPU ÷ total CPU across the shard probe's sharded call.
    pub shard_sys_frac: f64,
    /// Pushes into the overall, intra/inter and per-cluster sinks, ns per
    /// message.
    pub sink_ns_per_msg: f64,
    /// Median `evaluate` time per point, µs.
    pub model_eval_us: f64,
    /// Seconds inside `evaluate` over the pass.
    pub model_s: f64,
    /// Wall seconds of the traced pass (set-up, simulations, model).
    pub wall_s: f64,
    /// Wall seconds of the untraced twin pass.
    pub untraced_wall_s: f64,
    /// Span self time per layer, seconds.
    pub self_s: BTreeMap<&'static str, f64>,
}

/// The per-layer metric values of a traced run.
///
/// `engine.self_ns_per_event` subtracts from the engine's host time per
/// event the replayed costs the engine pays per event (one scheduler
/// hold), per generated message (one generation draw and one warm route
/// lookup), per recorded message (one sink update) and per touched class
/// (one cold lookup); the rest is an estimate of event dispatch and
/// channel arbitration.
pub fn per_layer_values(l: &LayerSample) -> Vec<(&'static str, f64)> {
    let ns_per_event = l.engine_s * 1e9 / l.events;
    let replayed = l.hold_ns_heap
        + (l.gen_ns_per_msg + l.route_ref_warm_ns) * l.generated / l.events
        + l.sink_ns_per_msg * l.recorded / l.events
        + l.route_ref_cold_ns * l.classes_touched / l.events;
    let mut out = vec![
        ("topology.route_query_ns", l.route_query_ns),
        ("build.system_s", l.build_system_s),
        ("build.route_ref_cold_ns", l.route_ref_cold_ns),
        ("build.route_ref_warm_ns", l.route_ref_warm_ns),
        ("build.classes_touched", l.classes_touched),
        ("build.table_bytes", l.table_bytes),
        ("workloads.gen_ns_per_msg", l.gen_ns_per_msg),
        ("events.hold_ns_heap", l.hold_ns_heap),
        ("events.hold_ns_calendar", l.hold_ns_calendar),
        ("engine.events", l.events),
        ("engine.events_per_msg", l.events / l.generated),
        ("engine.peak_live_msgs", l.peak_live_msgs),
        ("engine.ns_per_event", ns_per_event),
        ("engine.self_ns_per_event", ns_per_event - replayed),
        ("shard.speedup_vs_serial", l.shard_speedup),
        ("shard.sys_frac", l.shard_sys_frac),
        ("stats.sink_ns_per_msg", l.sink_ns_per_msg),
        ("model.eval_us", l.model_eval_us),
        ("model.share", l.model_s / l.wall_s),
        ("trace.overhead_s", l.wall_s - l.untraced_wall_s),
    ];
    let self_names = [
        "runner.self_s",
        "topology.self_s",
        "build.self_s",
        "workloads.self_s",
        "events.self_s",
        "engine.self_s",
        "shard.self_s",
        "stats.self_s",
        "model.self_s",
    ];
    for (layer, name) in SPAN_LAYERS.iter().zip(self_names) {
        out.push((name, l.self_s.get(layer).copied().unwrap_or(0.0)));
    }
    out
}

/// What a run reports besides its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Points attempted.
    pub attempted: u64,
    /// Points that failed a check.
    pub failed: u64,
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. Errors unless `values` holds every metric of
/// `catalogue` exactly once, nothing else, and only finite numbers.
pub fn result_line(
    outcome: Outcome,
    catalogue: &[MetricDef],
    values: &[(&'static str, f64)],
) -> Result<String, String> {
    if outcome.attempted == 0 {
        return Err("no point was attempted".into());
    }
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for &(name, v) in values {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        if by_name.insert(name, v).is_some() {
            return Err(format!("metric {name} reported twice"));
        }
    }
    let mut fields = Vec::with_capacity(catalogue.len());
    for m in catalogue {
        let v = by_name
            .remove(m.name)
            .ok_or_else(|| format!("metric {} missing", m.name))?;
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    if let Some(extra) = by_name.keys().next() {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}
