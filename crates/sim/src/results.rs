//! What a run reports, and the ledger every engine writes it from.
//!
//! The three engines (the worm engine, the flit-level reference and the
//! sharded engine) each decide *when* things happen. What they record
//! about it is written once, here:
//!
//! * `Counters` — the run's event and message counts, one `Copy` set;
//! * `Sinks` — the latency statistics (overall, intra, inter, per
//!   cluster, percentiles and the warm-up audit), fed one
//!   `Delivery` at a time and finished into [`SimResults`];
//! * `delivery_order` — the canonical order in which same-instant
//!   deliveries reach the sinks;
//! * `BusyTime` — per-channel busy time, including the end-of-run flush
//!   of intervals still open, kept only when a run asks for it
//!   ([`SimConfig::collect_channel_busy`]).
//!
//! [`SimConfig::collect_channel_busy`]: crate::SimConfig::collect_channel_busy
//!
//! The live fault mask, the other piece the engines share, sits beside
//! the fault schedule in [`crate::config`].

use crate::config::SimConfig;
use crate::trace::MessageTrace;
use cocnet_stats::{mser5, OnlineStats, Percentiles, Summary};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Post-hoc check that a run's configured warm-up was long enough.
///
/// The paper fixes the warm-up population; MSER-5 finds the truncation
/// point that the *data* asks for. When [`SimConfig::audit_warmup`] is
/// set, the engine records the delivery-ordered latency stream of the
/// warm-up + measured populations, scans it with
/// [`cocnet_stats::mser5`], and reports the comparison here — a run whose
/// detected truncation point lands beyond the configured warm-up was
/// still in its initial transient when measurement started, so its mean
/// is biased.
///
/// [`SimConfig::audit_warmup`]: crate::SimConfig::audit_warmup
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WarmupAudit {
    /// MSER-5 truncation point, in delivered messages since the start of
    /// the run (a multiple of 5).
    pub truncation: u64,
    /// The minimised MSER statistic at the truncation point.
    pub statistic: f64,
    /// The warm-up population the run was configured with.
    pub configured_warmup: u64,
    /// Number of delivered messages the audit scanned.
    pub samples: u64,
}

impl WarmupAudit {
    /// Whether the detected transient outlasts the configured warm-up —
    /// the "this run's warm-up was too short" flag.
    pub fn exceeds(&self) -> bool {
        self.truncation > self.configured_warmup
    }

    /// Scans a delivery-ordered latency stream; `None` when the stream is
    /// too short for MSER-5 (fewer than 40 samples).
    pub(crate) fn from_stream(stream: &[f64], configured_warmup: u64) -> Option<WarmupAudit> {
        let r = mser5(stream)?;
        Some(WarmupAudit {
            truncation: r.truncation as u64,
            statistic: r.statistic,
            configured_warmup,
            samples: stream.len() as u64,
        })
    }
}

/// Why a run's event loop stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The configured measured population was fully delivered.
    #[default]
    MeasuredComplete,
    /// The future-event list ran dry before the measured population
    /// completed — under fault injection this is the graceful-degradation
    /// exit: every message was delivered or written off as unreachable.
    Drained,
    /// The event cap was hit first — in practice, saturation.
    EventCap,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopReason::MeasuredComplete => "measured population complete",
            StopReason::Drained => "event queue drained (undelivered messages written off)",
            StopReason::EventCap => "event cap reached",
        })
    }
}

/// Everything a simulation run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResults {
    /// Latency summary over all recorded messages.
    pub latency: Summary,
    /// Latency summary of intra-cluster messages only.
    pub intra: Summary,
    /// Latency summary of inter-cluster messages only.
    pub inter: Summary,
    /// Latency summary per source cluster.
    pub per_cluster: Vec<Summary>,
    /// Total messages generated (including warm-up and drain).
    pub generated: u64,
    /// Recorded messages delivered (equals the configured `measured` count
    /// when `completed`).
    pub delivered_recorded: u64,
    /// Whether the run delivered its full measured population (`stop` is
    /// [`StopReason::MeasuredComplete`]). `false` when the run hit the
    /// event cap — in practice, saturation — or drained with part of its
    /// measured population cut off by faults; [`SimResults::has_latency`]
    /// tells the two apart.
    pub completed: bool,
    /// Simulation clock at termination.
    pub sim_time: f64,
    /// Cumulative busy time per global channel when
    /// [`SimConfig::collect_channel_busy`] was set (every engine; empty
    /// otherwise). Divide by `sim_time` for utilisation. Indexed like
    /// [`crate::BuiltSystem`]'s channel table; a channel still held at the
    /// stop counts as busy up to `sim_time`.
    ///
    /// [`SimConfig::collect_channel_busy`]: crate::SimConfig::collect_channel_busy
    pub channel_busy: Vec<f64>,
    /// Event traces of the first `trace_messages` generated messages
    /// (worm engine only; empty when tracing is off).
    pub traces: Vec<MessageTrace>,
    /// Exact latency percentiles `(p50, p95, p99)` when
    /// `collect_percentiles` was set (both engines).
    pub percentiles: Option<(f64, f64, f64)>,
    /// MSER-5 warm-up audit when `audit_warmup` was set and the run
    /// delivered enough messages to scan (see [`WarmupAudit`]).
    pub warmup_audit: Option<WarmupAudit>,
    /// Total events the engine processed — the numerator of the
    /// events/sec throughput metric, and what `max_events` caps. Every
    /// network and fault event counts once, and so does every node
    /// arrival, including those that fire after the whole population has
    /// been generated. Every channel release counts too, including one
    /// nobody waits for. The worm engine resolves those releases, and the
    /// arrivals after the last generation, beside its future-event list
    /// (see [`crate::engine`]) and counts each where popping it would
    /// have, so every engine reports the same count for the same run.
    pub events_processed: u64,
    /// High-water mark of the message slab: the peak number of
    /// concurrently live messages. Delivered slots are recycled, so this —
    /// not the generated population — bounds the engine's memory.
    pub peak_live_msgs: u64,
    /// Messages fully delivered, recorded or not (warm-up and drain
    /// included). With fault injection this is the numerator of the
    /// delivered fraction.
    #[serde(default)]
    pub delivered_total: u64,
    /// Transmissions aborted at a failed channel (each retry attempt that
    /// ran into a fault counts once).
    #[serde(default)]
    pub dropped: u64,
    /// Retransmissions performed after a retry timeout.
    #[serde(default)]
    pub retransmits: u64,
    /// Messages written off: destination statically partitioned away, or
    /// the retry budget was exhausted. Never silently lost — the
    /// accounting identity `generated == delivered_total + unreachable +
    /// live-in-flight-at-stop` holds at every exit.
    #[serde(default)]
    pub unreachable: u64,
    /// Why the event loop stopped (see [`StopReason`]).
    #[serde(default)]
    pub stop: StopReason,
}

impl SimResults {
    /// Observed share of inter-cluster messages among recorded ones.
    pub fn inter_fraction(&self) -> f64 {
        let total = self.intra.count + self.inter.count;
        if total == 0 {
            0.0
        } else {
            self.inter.count as f64 / total as f64
        }
    }

    /// Whether the run measured a latency: it recorded at least one
    /// message and did not stop at the event cap (saturation). A run that
    /// drained with part of its measured population cut off by faults has
    /// one: the mean over the measured messages it delivered.
    pub fn has_latency(&self) -> bool {
        self.stop != StopReason::EventCap && self.delivered_recorded > 0
    }

    /// Fraction of generated messages that were fully delivered — the
    /// degradation sweep's y-axis. `1.0` for an empty run.
    pub fn delivered_fraction(&self) -> f64 {
        if self.generated == 0 {
            1.0
        } else {
            self.delivered_total as f64 / self.generated as f64
        }
    }
}

/// The run's event and message counts: one `Copy` set for every engine.
/// The sharded engine keeps one per shard, copies it at each window start
/// (the rollback baseline) and sums the shards' sets at the end.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    /// Messages generated, warm-up and drain included.
    pub(crate) generated: u64,
    /// Events popped from the future-event list or the arrival band, or
    /// resolved beside them where they would have popped.
    pub(crate) events_processed: u64,
    /// Messages fully delivered, recorded or not.
    pub(crate) delivered_total: u64,
    /// Transmissions aborted at a failed channel.
    pub(crate) dropped: u64,
    /// Retransmissions performed after a retry timeout.
    pub(crate) retransmits: u64,
    /// Messages written off as unreachable.
    pub(crate) unreachable: u64,
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, o: Counters) {
        self.generated += o.generated;
        self.events_processed += o.events_processed;
        self.delivered_total += o.delivered_total;
        self.dropped += o.dropped;
        self.retransmits += o.retransmits;
        self.unreachable += o.unreachable;
    }
}

/// One delivered message, as the statistic sinks see it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Delivery {
    /// Pop time of the delivering event.
    pub(crate) t: f64,
    /// Generation time-stamp to tail delivery.
    pub(crate) latency: f64,
    /// Flat source node id: with `gen_time`, the message's identity, by
    /// which same-instant ties are ordered.
    pub(crate) src: u32,
    /// Generation time-stamp.
    pub(crate) gen_time: f64,
    /// Whether the latency counts toward the measured statistics.
    pub(crate) recorded: bool,
    /// Whether the latency feeds the warm-up audit stream.
    pub(crate) audited: bool,
    /// Whether source and destination share a cluster.
    pub(crate) intra: bool,
    /// Source cluster: the per-cluster sink it lands in.
    pub(crate) src_cluster: u32,
}

/// Canonical accumulation order for delivered statistics: pop time of
/// the delivering event, then the message's (source node, generation
/// time) identity for same-instant ties.
///
/// Cross-shard ties are real, not measure-zero: one multi-channel
/// release can unblock two messages on different shards at the same
/// instant, and a symmetric topology then finishes both remaining
/// paths in bit-equal time. The serial engine's natural tie order
/// (global schedule sequence) is unobservable from inside a shard, so
/// both worm engines defer their sink pushes and replay them in this
/// explicitly message-identified order instead, which makes the merged
/// `Summary` bits independent of the partition by construction.
pub(crate) fn delivery_order(a: &Delivery, b: &Delivery) -> Ordering {
    a.t.total_cmp(&b.t)
        .then_with(|| a.src.cmp(&b.src))
        .then_with(|| a.gen_time.total_cmp(&b.gen_time))
}

/// The latency statistic sinks of one run, fed one [`Delivery`] at a
/// time in the order the engine settles on, then finished into
/// [`SimResults`].
#[derive(Debug)]
pub(crate) struct Sinks {
    latency: OnlineStats,
    intra: OnlineStats,
    inter: OnlineStats,
    per_cluster: Vec<OnlineStats>,
    /// Raw samples for exact percentiles (when enabled).
    percentiles: Option<Percentiles>,
    /// Delivery-ordered latencies of the warm-up + measured populations,
    /// for the MSER-5 warm-up audit (when enabled).
    audit: Option<Vec<f64>>,
    /// The configured warm-up the audit is judged against.
    warmup: u64,
}

impl Sinks {
    /// Empty sinks for a run of `cfg` over `clusters` clusters; the
    /// percentile and audit sinks exist only when `cfg` asks for them.
    pub(crate) fn new(cfg: &SimConfig, clusters: usize) -> Self {
        Sinks {
            latency: OnlineStats::new(),
            intra: OnlineStats::new(),
            inter: OnlineStats::new(),
            per_cluster: vec![OnlineStats::new(); clusters],
            percentiles: cfg
                .collect_percentiles
                .then(|| Percentiles::with_capacity(cfg.measured as usize)),
            audit: cfg
                .audit_warmup
                .then(|| Vec::with_capacity((cfg.warmup + cfg.measured) as usize)),
            warmup: cfg.warmup,
        }
    }

    /// Recorded deliveries accumulated so far.
    pub(crate) fn recorded(&self) -> u64 {
        self.latency.count()
    }

    /// Accumulates one delivery: the audit stream first, then the
    /// recorded sinks.
    #[inline]
    pub(crate) fn record(&mut self, d: &Delivery) {
        if d.audited {
            if let Some(a) = &mut self.audit {
                a.push(d.latency);
            }
        }
        if d.recorded {
            self.latency.push(d.latency);
            if d.intra {
                self.intra.push(d.latency);
            } else {
                self.inter.push(d.latency);
            }
            self.per_cluster[d.src_cluster as usize].push(d.latency);
            if let Some(p) = &mut self.percentiles {
                p.record(d.latency);
            }
        }
    }

    /// The run's results. The run completed exactly when it stopped on
    /// its measured population; it reports no traces.
    pub(crate) fn finish(
        mut self,
        counters: Counters,
        stop: StopReason,
        sim_time: f64,
        channel_busy: Vec<f64>,
        peak_live_msgs: u64,
    ) -> SimResults {
        let percentiles = self
            .percentiles
            .as_mut()
            .and_then(|p| Some((p.quantile(0.5)?, p.quantile(0.95)?, p.quantile(0.99)?)));
        let warmup_audit = self
            .audit
            .as_deref()
            .and_then(|stream| WarmupAudit::from_stream(stream, self.warmup));
        SimResults {
            latency: Summary::from_stats(&self.latency),
            intra: Summary::from_stats(&self.intra),
            inter: Summary::from_stats(&self.inter),
            per_cluster: self.per_cluster.iter().map(Summary::from_stats).collect(),
            generated: counters.generated,
            delivered_recorded: self.recorded(),
            completed: stop == StopReason::MeasuredComplete,
            sim_time,
            channel_busy,
            traces: Vec::new(),
            percentiles,
            warmup_audit,
            events_processed: counters.events_processed,
            peak_live_msgs,
            delivered_total: counters.delivered_total,
            dropped: counters.dropped,
            retransmits: counters.retransmits,
            unreachable: counters.unreachable,
            stop,
        }
    }
}

/// Cumulative busy time per channel, indexed by global channel id: a
/// channel is busy from the grant that hands it to a message until the
/// release that frees it.
#[derive(Debug, Default)]
pub(crate) struct BusyTime {
    total: Vec<f64>,
    since: Vec<f64>,
}

impl BusyTime {
    /// A zeroed account over `channels` channels.
    pub(crate) fn new(channels: usize) -> Self {
        BusyTime {
            total: vec![0.0; channels],
            since: vec![0.0; channels],
        }
    }

    /// `chan` was granted to a message at `t`.
    #[inline]
    pub(crate) fn grant(&mut self, chan: u32, t: f64) {
        self.since[chan as usize] = t;
    }

    /// `chan` was released at `t`: its busy interval ends.
    #[inline]
    pub(crate) fn accrue(&mut self, chan: u32, t: f64) {
        self.total[chan as usize] += t - self.since[chan as usize];
    }

    /// One channel's `(total, since)`, saved for a later
    /// [`BusyTime::restore`].
    pub(crate) fn save(&self, chan: u32) -> (f64, f64) {
        (self.total[chan as usize], self.since[chan as usize])
    }

    /// Puts back a channel's state from [`BusyTime::save`].
    pub(crate) fn restore(&mut self, chan: u32, (total, since): (f64, f64)) {
        self.total[chan as usize] = total;
        self.since[chan as usize] = since;
    }

    /// The per-channel totals at the end of a run. The channels in `open`,
    /// each still held, have an open interval; it is closed here at
    /// `t_end`, so utilisation is not undercounted.
    pub(crate) fn finish(mut self, t_end: f64, open: impl IntoIterator<Item = u32>) -> Vec<f64> {
        for chan in open {
            let chan = chan as usize;
            self.total[chan] += t_end - self.since[chan];
        }
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorded delivery of `latency` from cluster 0.
    fn delivery(latency: f64, intra: bool) -> Delivery {
        Delivery {
            t: latency,
            latency,
            src: 0,
            gen_time: 0.0,
            recorded: true,
            audited: false,
            intra,
            src_cluster: 0,
        }
    }

    #[test]
    fn inter_fraction_handles_empty() {
        let r = Sinks::new(&SimConfig::default(), 0).finish(
            Counters::default(),
            StopReason::Drained,
            0.0,
            Vec::new(),
            0,
        );
        assert_eq!(r.inter_fraction(), 0.0);
    }

    #[test]
    fn inter_fraction_computes_share() {
        let mut sinks = Sinks::new(&SimConfig::default(), 1);
        for _ in 0..25 {
            sinks.record(&delivery(1.0, true));
        }
        for _ in 0..75 {
            sinks.record(&delivery(2.0, false));
        }
        let counters = Counters {
            generated: 100,
            events_processed: 100,
            ..Counters::default()
        };
        let r = sinks.finish(counters, StopReason::MeasuredComplete, 1.0, Vec::new(), 4);
        assert!((r.inter_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn warmup_audit_flags_long_transients_only() {
        // 100 transient samples then a stationary phase: MSER-5 detects a
        // truncation near 100, so a 50-message warm-up is flagged and a
        // 500-message warm-up is not.
        let mut stream = Vec::new();
        for i in 0..100 {
            stream.push(200.0 * (-(i as f64) / 25.0).exp() + 10.0);
        }
        for i in 0..900 {
            stream.push(10.0 + if i % 2 == 0 { 0.3 } else { -0.3 });
        }
        let audit = WarmupAudit::from_stream(&stream, 50).unwrap();
        assert_eq!(audit.samples, 1000);
        assert!(audit.truncation.is_multiple_of(5));
        assert!(
            (60..=150).contains(&audit.truncation),
            "truncation {}",
            audit.truncation
        );
        assert!(audit.exceeds());
        let ok = WarmupAudit {
            configured_warmup: 500,
            ..audit
        };
        assert!(!ok.exceeds());
        // Too short a stream yields no audit at all.
        assert!(WarmupAudit::from_stream(&stream[..39], 10).is_none());
    }
}
