//! Simulation run configuration, and the live fault mask a run derives
//! from its fault schedule.

use crate::build::BuiltSystem;
use crate::events::{EventQueue, Scheduler};
use serde::{Deserialize, Serialize};

/// How the concentrator/dispatcher buffers couple adjacent networks on an
/// inter-cluster path.
///
/// The paper's model is subtly split on this: Eq. (20) merges the three
/// networks into one wormhole pipeline, while Eqs. (36)–(37) give the
/// concentrator a full-message service time `M·t_cs^{ICN2}` — a buffer that
/// decouples the drain rates of adjacent networks. Rate decoupling is what
/// makes every stage's service in Eqs. (29)–(30) use the *local* network's
/// flit time, so the default mode preserves it; the alternatives trade it
/// against serialization delay and are kept as ablations (see the
/// `coupling_modes` entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Coupling {
    /// Virtual cut-through with rate conversion (default): the buffer
    /// forwards the header at the *latest* start time that keeps the output
    /// link streaming without flit starvation. Downstream channels are held
    /// only for their own network's full-message time (matching the model's
    /// per-network stage services and the concentrator's `M·t_cs^{ICN2}`
    /// M/G/1 service), while the serialization penalty of full buffering is
    /// mostly avoided.
    #[default]
    VirtualCutThrough,
    /// The buffer receives the whole message, then retransmits: adjacent
    /// networks are fully rate-decoupled, at the cost of one full-message
    /// serialization per boundary.
    StoreAndForward,
    /// The header forwards immediately and flits follow as they arrive:
    /// lowest zero-load latency, but a slow upstream network extends
    /// downstream channel holding times, moving saturation earlier than the
    /// model predicts.
    CutThrough,
}

/// Intra-run sharding of the worm engine's event loop.
///
/// `Off` (the default) runs the classic serial loop — the golden oracle.
/// `Auto` and `N(k)` partition the loop into per-cluster shards plus one
/// ICN2 hub shard, synchronized conservatively on the inter-cluster
/// channel crossing time (see the README's "Intra-run sharding" section).
/// Sharded runs are bit-identical to the serial engine; the mode only
/// changes wall-clock cost, like [`InternMode`]. Scenario files select
/// it with `"sim": {"shards": "Auto"}` or `{"shards": {"N": 4}}`; the CLI
/// with `--shards off|auto|<k>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShardMode {
    /// Serial event loop (default; the reference engine).
    #[default]
    Off,
    /// One shard per cluster. Machine-independent: the partition (and
    /// therefore the result bits) never depends on the core count; only
    /// the worker-thread pool running the shards does.
    Auto,
    /// Exactly this many cluster shards (clamped to the cluster count;
    /// the ICN2 hub shard is always added on top).
    N(u32),
}

impl std::str::FromStr for ShardMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(ShardMode::Off),
            "auto" => Ok(ShardMode::Auto),
            other => match other.parse::<u32>() {
                Ok(n) if n >= 1 => Ok(ShardMode::N(n)),
                _ => Err(format!(
                    "unknown shard mode {other:?} (use \"off\", \"auto\", or a count >= 1)"
                )),
            },
        }
    }
}

impl std::fmt::Display for ShardMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardMode::Off => f.write_str("off"),
            ShardMode::Auto => f.write_str("auto"),
            ShardMode::N(n) => write!(f, "{n}"),
        }
    }
}

/// How `BuiltSystem` interns deterministic routes into its `RouteTable`.
///
/// `Classed` (the default) interns one route *tail* per equivalence class —
/// `(src leaf switch, dst)` intra-cluster, `(src, dst)` across clusters —
/// and materializes each class lazily on first touch; the injection channel
/// (the only per-pair datum) is recovered arithmetically. Build cost and
/// resident bytes scale with the classes actually touched instead of all
/// `N²` pairs, which is what lifts the eager builder's 65 535-node cap and
/// makes 10⁶-endpoint orgs buildable. `Eager` keeps the historical
/// all-pairs CSR table as a golden oracle; both modes produce bit-identical
/// simulation results (pinned by the `intern_equivalence` property suite
/// and the golden regressions). Scenario files select it with
/// `"sim": {"interning": "Eager"}`; the CLI with `--interning eager`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum InternMode {
    /// Lazy class-keyed interning (default): O(touched classes) space.
    #[default]
    Classed,
    /// Eager all-pairs CSR interning (the golden oracle; ≤ 65 535 nodes).
    Eager,
}

impl std::str::FromStr for InternMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "classed" => Ok(InternMode::Classed),
            "eager" => Ok(InternMode::Eager),
            other => Err(format!(
                "unknown intern mode {other:?} (use \"classed\" or \"eager\")"
            )),
        }
    }
}

impl std::fmt::Display for InternMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            InternMode::Classed => "classed",
            InternMode::Eager => "eager",
        })
    }
}

/// What a timed fault event does to its link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// The link goes down: both directions refuse new acquisitions.
    Fail,
    /// The link comes back up.
    Repair,
}

/// One deterministic timed fault: at simulation time `time`, the physical
/// link carrying global channel `link` fails or repairs (both directions
/// in tandem). Scheduled through the engine's future-event list, so the
/// ordering relative to message events is exact and deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultEvent {
    /// Simulation time at which the event fires.
    pub time: f64,
    /// Global channel id of the affected link (either direction selects
    /// the physical link; see [`crate::BuiltSystem`]'s channel table).
    pub link: u32,
    /// Fail or repair.
    pub action: FaultAction,
}

/// Deterministic fault injection for one simulation run.
///
/// Static faults (`links`, `link_fraction`) are applied at build time and
/// also rewire the route tables (fault-aware Up*/Down* reroute); timed
/// `events` flip links mid-run through the event list without rerouting —
/// messages that hit a downed link are dropped and retransmitted from
/// their source after a timeout with capped exponential backoff
/// (`retry_timeout`, `backoff`, `max_timeout`) and a bounded attempt
/// budget (`max_attempts`). The default schedule is inert: no faults, and
/// zero-fault runs are bit-identical to a build without this subsystem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct FaultSchedule {
    /// Global channel ids failed from time 0. Either direction of a link
    /// selects the whole physical link: the reverse channel fails in
    /// tandem.
    pub links: Vec<u32>,
    /// Fraction of all physical links failed from time 0, in `[0, 1]`.
    /// The failed set is the first `⌊fraction · L⌋` links of one fixed
    /// pseudorandom permutation of all `L` links drawn from `fault_seed`,
    /// so sweeping the fraction produces *nested* fault sets — delivered
    /// throughput declines monotonically along the sweep.
    pub link_fraction: f64,
    /// Seed of the `link_fraction` permutation (independent of the
    /// traffic seed so fault placement is stable across replications).
    pub fault_seed: u64,
    /// Deterministic timed fail/repair events.
    pub events: Vec<FaultEvent>,
    /// Total transmission attempts per message (first try included);
    /// a message dropped on its last attempt counts as unreachable.
    pub max_attempts: u32,
    /// Timeout before the first retransmission, in simulation time units.
    pub retry_timeout: f64,
    /// Multiplier applied to the timeout after every failed attempt
    /// (capped exponential backoff); must be ≥ 1.
    pub backoff: f64,
    /// Upper bound on the per-attempt timeout.
    pub max_timeout: f64,
}

impl Default for FaultSchedule {
    fn default() -> Self {
        Self {
            links: Vec::new(),
            link_fraction: 0.0,
            fault_seed: 0xfa_17,
            events: Vec::new(),
            max_attempts: 8,
            retry_timeout: 1_000.0,
            backoff: 2.0,
            max_timeout: 16_000.0,
        }
    }
}

impl FaultSchedule {
    /// Whether the schedule injects no faults at all — the zero-overhead
    /// fast path where runs stay bit-identical to a fault-free build.
    pub fn is_inert(&self) -> bool {
        self.links.is_empty() && self.link_fraction == 0.0 && self.events.is_empty()
    }

    /// The retransmission delay after `attempt` failed attempts
    /// (0-based): `retry_timeout · backoff^attempt`, capped at
    /// `max_timeout`.
    pub fn retry_delay(&self, attempt: u32) -> f64 {
        (self.retry_timeout * self.backoff.powi(attempt.min(64) as i32)).min(self.max_timeout)
    }

    /// Field-level validation (ranges and finiteness). Link-id range
    /// checks against a concrete system live in
    /// [`crate::validate_faults`], which knows the channel count.
    pub fn validate(&self) -> Result<(), String> {
        if !self.link_fraction.is_finite() || !(0.0..=1.0).contains(&self.link_fraction) {
            return Err(format!(
                "faults.link_fraction must be in [0, 1], got {}",
                self.link_fraction
            ));
        }
        if self.max_attempts == 0 {
            return Err("faults.max_attempts must be >= 1 (the first try counts)".into());
        }
        if !(self.retry_timeout.is_finite() && self.retry_timeout > 0.0) {
            return Err(format!(
                "faults.retry_timeout must be finite and > 0, got {}",
                self.retry_timeout
            ));
        }
        if !(self.backoff.is_finite() && self.backoff >= 1.0) {
            return Err(format!(
                "faults.backoff must be finite and >= 1, got {}",
                self.backoff
            ));
        }
        if !(self.max_timeout.is_finite() && self.max_timeout >= self.retry_timeout) {
            return Err(format!(
                "faults.max_timeout must be finite and >= retry_timeout, got {}",
                self.max_timeout
            ));
        }
        for (i, e) in self.events.iter().enumerate() {
            if !(e.time.is_finite() && e.time >= 0.0) {
                return Err(format!(
                    "faults.events[{i}].time must be finite and >= 0, got {}",
                    e.time
                ));
            }
        }
        Ok(())
    }

    /// Puts every timed event whose link `owns` accepts on `queue`, as
    /// `event(link, fail)`, in schedule order. Engines call this before
    /// they seed any traffic, so a `t = 0` failure is in force before
    /// anything moves.
    pub(crate) fn schedule_timed<K>(
        &self,
        queue: &mut EventQueue<K>,
        owns: impl Fn(u32) -> bool,
        event: impl Fn(u32, bool) -> K,
    ) {
        for ev in self.events.iter().filter(|ev| owns(ev.link)) {
            queue.schedule(
                ev.time,
                event(ev.link, matches!(ev.action, FaultAction::Fail)),
            );
        }
    }
}

/// The live per-channel failure mask of one run: the built system's
/// static faults, flipped by the timed events as they fire. Empty means
/// "no faults anywhere": the zero-fault fast path adds a single
/// `is_empty` branch per check and leaves every run bit-identical to the
/// pre-fault engine.
#[derive(Debug, Clone)]
pub(crate) struct FaultMask(Vec<bool>);

impl FaultMask {
    /// The mask at `t = 0`. Static faults arrive pre-resolved in `built`;
    /// timed events need a full-size mask to flip even when no link is
    /// down at the start.
    pub(crate) fn new(built: &BuiltSystem, faults: &FaultSchedule) -> Self {
        let fixed = built.static_failed();
        if fixed.is_empty() && !faults.events.is_empty() {
            FaultMask(vec![false; built.num_channels()])
        } else {
            FaultMask(fixed.to_vec())
        }
    }

    /// Whether `chan` is failed now.
    #[inline]
    pub(crate) fn is_failed(&self, chan: u32) -> bool {
        !self.0.is_empty() && self.0[chan as usize]
    }

    /// Applies a timed event. The reverse channel (`link ^ 1`) fails and
    /// recovers in tandem: a dead cable kills both directions. Crossings
    /// already under way complete, since a fault affects acquisitions,
    /// not transfers.
    pub(crate) fn apply(&mut self, link: u32, fail: bool) {
        debug_assert!(!self.0.is_empty(), "fault events imply a full mask");
        self.0[link as usize] = fail;
        self.0[(link ^ 1) as usize] = fail;
    }
}

/// Configuration of one simulation run.
///
/// The defaults reproduce the paper's methodology (§4): 10 000 warm-up
/// messages, 100 000 measured messages, 10 000 drain messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct SimConfig {
    /// Messages generated before statistics gathering starts.
    pub warmup: u64,
    /// Messages whose latency is recorded.
    pub measured: u64,
    /// Extra messages generated after the measured ones so that the tail of
    /// the measured population is not biased by an emptying network.
    pub drain: u64,
    /// RNG seed; identical seeds give bit-identical results.
    pub seed: u64,
    /// Safety valve: abort (with `completed = false`) after this many
    /// processed events. A saturated network never delivers its measured
    /// population, so an un-capped run would never terminate.
    pub max_events: u64,
    /// Optional latency histogram: `(upper_bound, bins)`.
    pub histogram: Option<(f64, usize)>,
    /// Network-boundary coupling mode (see [`Coupling`]).
    pub coupling: Coupling,
    /// Flit-buffer depth per channel, used by the flit-level engine.
    /// The paper's assumption 6 is depth 1; deeper buffers are an
    /// extension experiment (`buffer_depth` bin). The worm engine ignores
    /// this (its message-level treatment has no per-flit buffering).
    pub flit_buffer_depth: u32,
    /// Record a full event trace for the first `trace_messages` generated
    /// messages (worm engine only). `0` disables tracing.
    pub trace_messages: u64,
    /// Use oblivious-adaptive routing (random ascent digits per message)
    /// instead of the deterministic Up*/Down* scheme (worm engine only).
    pub adaptive_routing: bool,
    /// Retain raw latency samples and report exact p50/p95/p99 (both
    /// engines; costs one `f64` per measured message).
    pub collect_percentiles: bool,
    /// Record the delivery-ordered latency stream of the warm-up +
    /// measured populations and run an MSER-5 warm-up audit over it
    /// ([`crate::WarmupAudit`]): the run is flagged when the detected
    /// truncation point exceeds the configured `warmup`. Costs one `f64`
    /// per audited message; never perturbs the simulation itself.
    pub audit_warmup: bool,
    /// Fault injection (see [`FaultSchedule`]); inert by default.
    pub faults: FaultSchedule,
    /// Intra-run sharding of the worm engine (see [`ShardMode`]). Never
    /// changes results — sharded runs are bit-identical to serial — only
    /// wall-clock cost. Off by default; the flit engine ignores it.
    pub shards: ShardMode,
    /// Route-table interning strategy (see [`InternMode`]). Never changes
    /// results — class-keyed tables are bit-identical to the eager oracle —
    /// only build time and resident bytes. Classed by default.
    pub interning: InternMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            warmup: 10_000,
            measured: 100_000,
            drain: 10_000,
            seed: 0x5eed_c0c0,
            max_events: 500_000_000,
            histogram: None,
            coupling: Coupling::default(),
            flit_buffer_depth: 1,
            trace_messages: 0,
            adaptive_routing: false,
            collect_percentiles: false,
            audit_warmup: false,
            faults: FaultSchedule::default(),
            shards: ShardMode::default(),
            interning: InternMode::default(),
        }
    }
}

impl SimConfig {
    /// A scaled-down configuration for unit tests and quick validation:
    /// 1 000 warm-up, 10 000 measured, 1 000 drain.
    pub fn quick(seed: u64) -> Self {
        Self {
            warmup: 1_000,
            measured: 10_000,
            drain: 1_000,
            seed,
            max_events: 100_000_000,
            histogram: None,
            coupling: Coupling::default(),
            flit_buffer_depth: 1,
            trace_messages: 0,
            adaptive_routing: false,
            collect_percentiles: false,
            audit_warmup: false,
            faults: FaultSchedule::default(),
            shards: ShardMode::default(),
            interning: InternMode::default(),
        }
    }

    /// Total messages generated over the run.
    pub fn total_messages(&self) -> u64 {
        self.warmup + self.measured + self.drain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_methodology() {
        let c = SimConfig::default();
        assert_eq!(c.warmup, 10_000);
        assert_eq!(c.measured, 100_000);
        assert_eq!(c.drain, 10_000);
        assert_eq!(c.total_messages(), 120_000);
    }

    #[test]
    fn shard_mode_parses_cli_names() {
        assert_eq!("off".parse::<ShardMode>(), Ok(ShardMode::Off));
        assert_eq!("auto".parse::<ShardMode>(), Ok(ShardMode::Auto));
        assert_eq!("4".parse::<ShardMode>(), Ok(ShardMode::N(4)));
        assert!("0".parse::<ShardMode>().is_err());
        assert!("Auto".parse::<ShardMode>().is_err());
        assert_eq!(ShardMode::N(3).to_string(), "3");
        assert_eq!(ShardMode::Auto.to_string(), "auto");
        assert_eq!(SimConfig::default().shards, ShardMode::Off);
    }

    #[test]
    fn intern_mode_parses_cli_names() {
        assert_eq!("classed".parse::<InternMode>(), Ok(InternMode::Classed));
        assert_eq!("eager".parse::<InternMode>(), Ok(InternMode::Eager));
        assert!("Classed".parse::<InternMode>().is_err());
        assert!("lazy".parse::<InternMode>().is_err());
        assert_eq!(InternMode::Eager.to_string(), "eager");
        assert_eq!(SimConfig::default().interning, InternMode::Classed);
    }

    #[test]
    fn fault_schedule_default_is_inert() {
        let f = FaultSchedule::default();
        assert!(f.is_inert());
        assert!(SimConfig::default().faults.is_inert());
        let failed = FaultSchedule {
            link_fraction: 0.25,
            ..FaultSchedule::default()
        };
        assert!(!failed.is_inert());
    }

    #[test]
    fn retry_delay_backs_off_and_caps() {
        let f = FaultSchedule {
            retry_timeout: 100.0,
            backoff: 2.0,
            max_timeout: 350.0,
            ..FaultSchedule::default()
        };
        assert_eq!(f.retry_delay(0), 100.0);
        assert_eq!(f.retry_delay(1), 200.0);
        assert_eq!(f.retry_delay(2), 350.0, "capped");
        assert_eq!(f.retry_delay(200), 350.0, "huge attempt counts stay finite");
    }

    #[test]
    fn quick_is_smaller() {
        let c = SimConfig::quick(1);
        assert!(c.total_messages() < SimConfig::default().total_messages());
        assert_eq!(c.seed, 1);
    }
}
