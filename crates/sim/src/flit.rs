//! Flit-level reference engine.
//!
//! The default worm engine treats a message as one unit whose tail drains
//! at the segment's bottleneck rate — exact in steady state, approximate in
//! transients. This engine simulates **every flit individually** under the
//! strict buffered-channel semantics of assumption 6:
//!
//! * each channel has a wire (one flit in transit) and a receive buffer of
//!   `SimConfig::flit_buffer_depth` flits (assumption 6 is depth 1, the
//!   default; deeper buffers are the `buffer_depth` extension experiment);
//! * a flit may start crossing channel `j` only when `j` is allocated to
//!   its message (wormhole), the wire is free, and the receive buffer has
//!   room (the last channel's receiver is the always-accepting sink);
//! * a channel is released the moment the tail flit vacates its receive
//!   buffer.
//!
//! Segment boundaries (concentrator/dispatcher) are store-and-forward
//! here: the message is fully buffered before re-injection. That gives the
//! engine exact, assumption-free semantics — which is the point of a
//! reference implementation — at the cost of the boundary serialization
//! the worm engine's virtual cut-through avoids. Cross-validation against
//! the worm engine therefore uses `Coupling::StoreAndForward`
//! (see `tests/engine_agreement.rs` and the `engine_agreement` entry).
//!
//! Like the worm engine, the event loop is allocation-free in steady
//! state: messages are small `Copy` slab entries referencing the interned
//! [`RouteTable`](`crate::build::RouteTable`) (this engine is always
//! deterministic, so every route is interned), delivered slots are
//! recycled through a free list, and the heap/FIFOs retain capacity. It
//! records into the same run ledger as the worm engines, each delivery
//! at once.

use crate::build::{BuiltSystem, RouteRef, RouteTable, SegMeta};
use crate::config::{FaultMask, SimConfig};
use crate::events::{EventQueue, Scheduler};
use crate::results::{BusyTime, Counters, Delivery, SimResults, Sinks, StopReason};
use cocnet_model::Workload;
use cocnet_topology::SystemSpec;
use cocnet_workloads::{cluster_offsets, exponential_sample, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Generate {
        node: u32,
    },
    /// Flit `flit` of `msg` finished crossing the channel at `pos` of the
    /// message's current segment.
    CrossComplete {
        msg: u32,
        flit: u32,
        pos: u32,
    },
    /// Timed fault-schedule entry: the link (and its reverse) fails or is
    /// repaired at the event's time.
    Fault {
        link: u32,
        fail: bool,
    },
    /// A dropped message's retry timeout expired: re-enter from source.
    Retransmit {
        msg: u32,
    },
}

/// Per-channel flit-level state.
#[derive(Debug)]
struct ChanF {
    /// Per-flit crossing time.
    t: f64,
    /// Message currently holding the channel (wormhole allocation).
    owner: Option<u32>,
    /// Whether a flit is in transit on the wire.
    wire_busy: bool,
    /// The receive buffer, FIFO of `(msg, flit)`; capacity =
    /// `cfg.flit_buffer_depth` (assumption 6: depth 1).
    buf: VecDeque<(u32, u32)>,
    /// Headers waiting for allocation: `(msg, header_wait_pos)` where the
    /// header sits at `wait_pos` (−1 encoded as `i32`) of its own path.
    queue: VecDeque<(u32, i32)>,
}

/// One in-flight message (slab slot). The route lives in the interned
/// table; the current segment's channel range is cached inline.
#[derive(Debug, Clone, Copy)]
struct MsgF {
    gen_time: f64,
    /// Interned route (this engine has no adaptive mode).
    route: RouteRef,
    /// Cached metadata of the current segment (only `start`/`len` used).
    cur: SegMeta,
    /// Current segment index.
    seg: u8,
    /// Total segments on the route.
    nsegs: u8,
    /// Flits already injected into the current segment.
    injected: u32,
    recorded: bool,
    /// Whether this message feeds the warm-up audit stream.
    audited: bool,
    intra: bool,
    src_cluster: u32,
    /// Flat source node id.
    src: u32,
    /// Completed transmission attempts that hit a failed channel.
    attempt: u32,
}

impl MsgF {
    /// Placeholder for freshly grown slab slots (overwritten before use).
    const VACANT: MsgF = MsgF {
        gen_time: 0.0,
        route: RouteRef::adaptive(0),
        cur: SegMeta::EMPTY,
        seg: 0,
        nsegs: 0,
        injected: 0,
        recorded: false,
        audited: false,
        intra: false,
        src_cluster: 0,
        src: 0,
        attempt: 0,
    };
}

struct FlitSimulator<'a> {
    built: &'a BuiltSystem,
    routes: &'a RouteTable,
    cfg: SimConfig,
    depth: usize,
    m_flits: u32,
    lambda: f64,
    pattern: Pattern,
    /// The node layout destination draws read (see [`cluster_offsets`]).
    layout: Vec<usize>,
    rng: StdRng,
    /// The future-event list.
    queue: EventQueue<EventKind>,
    chans: Vec<ChanF>,
    msgs: Vec<MsgF>,
    free: Vec<u32>,
    now: f64,
    counters: Counters,
    faults: FaultMask,
    busy: BusyTime,
    sinks: Sinks,
}

impl<'a> FlitSimulator<'a> {
    fn new(built: &'a BuiltSystem, wl: &Workload, pattern: Pattern, cfg: SimConfig) -> Self {
        assert!(wl.lambda_g > 0.0, "simulation needs a positive rate");
        let chans = (0..built.num_channels())
            .map(|c| ChanF {
                t: built.chan_time(c as u32),
                owner: None,
                wire_busy: false,
                buf: VecDeque::new(),
                queue: VecDeque::new(),
            })
            .collect();
        assert!(cfg.flit_buffer_depth >= 1, "buffers need at least one slot");
        Self {
            built,
            routes: built.route_table(),
            depth: cfg.flit_buffer_depth as usize,
            m_flits: wl.msg_flits,
            lambda: wl.lambda_g,
            pattern,
            layout: cluster_offsets(built.spec()),
            rng: StdRng::seed_from_u64(cfg.seed),
            queue: EventQueue::new(),
            chans,
            msgs: Vec::new(),
            free: Vec::new(),
            now: 0.0,
            counters: Counters::default(),
            faults: FaultMask::new(built, &cfg.faults),
            busy: BusyTime::new(built.num_channels()),
            sinks: Sinks::new(&cfg, built.spec().num_clusters()),
            cfg,
        }
    }

    fn run(mut self) -> SimResults {
        // Faults first so a t = 0 failure is in force before any traffic.
        // They act at segment admission in this engine (`inject_segment`):
        // flits already streaming through a segment complete it.
        self.cfg.faults.schedule_timed(
            &mut self.queue,
            |_| true,
            |link, fail| EventKind::Fault { link, fail },
        );
        for node in 0..self.built.total_nodes() {
            let gap = exponential_sample(&mut self.rng, self.lambda);
            self.queue
                .schedule(gap, EventKind::Generate { node: node as u32 });
        }
        let mut stop = StopReason::Drained;
        while let Some(ev) = self.queue.pop() {
            self.counters.events_processed += 1;
            if self.counters.events_processed > self.cfg.max_events {
                stop = StopReason::EventCap;
                break;
            }
            self.now = ev.time;
            match ev.kind {
                EventKind::Generate { node } => self.on_generate(node, ev.time),
                EventKind::CrossComplete { msg, flit, pos } => {
                    self.on_cross_complete(msg, flit, pos, ev.time)
                }
                EventKind::Fault { link, fail } => self.faults.apply(link, fail),
                EventKind::Retransmit { msg } => self.on_retransmit(msg, ev.time),
            }
            if self.sinks.recorded() >= self.cfg.measured {
                stop = StopReason::MeasuredComplete;
                break;
            }
        }
        let busy = if self.cfg.collect_channel_busy {
            let chans = &self.chans;
            let open = (0..chans.len() as u32).filter(|&c| chans[c as usize].owner.is_some());
            self.busy.finish(self.now, open)
        } else {
            Vec::new()
        };
        self.sinks
            .finish(self.counters, stop, self.now, busy, self.msgs.len() as u64)
    }

    /// Whether any channel of the message's current segment is failed —
    /// the admission check. The flit engine's store-and-forward boundaries
    /// mean a message holds no channels at admission time, so a drop here
    /// never strands wormhole state.
    fn segment_blocked(&self, msg_id: u32) -> bool {
        let m = &self.msgs[msg_id as usize];
        (0..m.cur.len).any(|k| {
            self.faults
                .is_failed(self.routes.chan_at(m.cur.start + k as u64))
        })
    }

    /// Drops a message refused admission to a faulted segment: retransmit
    /// from source after the retry timeout, or write it off as unreachable
    /// once the attempt budget is exhausted.
    fn drop_msg(&mut self, msg_id: u32, t: f64) {
        self.counters.dropped += 1;
        let attempt = self.msgs[msg_id as usize].attempt;
        if attempt + 1 >= self.cfg.faults.max_attempts {
            self.counters.unreachable += 1;
            self.free.push(msg_id);
        } else {
            let delay = self.cfg.faults.retry_delay(attempt);
            self.queue
                .schedule(t + delay, EventKind::Retransmit { msg: msg_id });
        }
    }

    /// Retry timeout expired: re-enter from the source with the original
    /// generation time-stamp (latency includes every retry delay).
    fn on_retransmit(&mut self, msg_id: u32, t: f64) {
        self.counters.retransmits += 1;
        let route = self.msgs[msg_id as usize].route;
        let cur = self.routes.seg_meta(route, 0);
        let mm = &mut self.msgs[msg_id as usize];
        mm.attempt += 1;
        mm.seg = 0;
        mm.injected = 0;
        mm.cur = cur;
        self.inject_segment(msg_id, t);
    }

    fn on_generate(&mut self, node: u32, t: f64) {
        if self.counters.generated >= self.cfg.total_messages() {
            return;
        }
        let src = node as usize;
        let dst = self.pattern.sample_in(&self.layout, src, &mut self.rng);
        if self.routes.is_unreachable(src, dst) {
            // Statically partitioned destination: account the message
            // without allocating a slab slot, keep the arrival stream
            // going.
            self.counters.generated += 1;
            self.counters.unreachable += 1;
            if self.counters.generated < self.cfg.total_messages() {
                let gap = exponential_sample(&mut self.rng, self.lambda);
                self.queue.schedule(t + gap, EventKind::Generate { node });
            }
            return;
        }
        let generated = self.counters.generated;
        let recorded =
            generated >= self.cfg.warmup && generated < self.cfg.warmup + self.cfg.measured;
        let audited = self.cfg.audit_warmup && generated < self.cfg.warmup + self.cfg.measured;
        self.counters.generated += 1;
        let route = self.routes.route_ref(src, dst);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.msgs.len() as u32;
                self.msgs.push(MsgF::VACANT);
                s
            }
        };
        self.msgs[slot as usize] = MsgF {
            gen_time: t,
            route,
            cur: self.routes.seg_meta(route, 0),
            seg: 0,
            nsegs: self.routes.num_segments(route) as u8,
            injected: 0,
            recorded,
            audited,
            intra: self.built.cluster_of(src) == self.built.cluster_of(dst),
            src_cluster: self.built.cluster_of(src) as u32,
            src: src as u32,
            attempt: 0,
        };
        self.inject_segment(slot, t);
        if self.counters.generated < self.cfg.total_messages() {
            let gap = exponential_sample(&mut self.rng, self.lambda);
            self.queue.schedule(t + gap, EventKind::Generate { node });
        }
    }

    /// The message (fully buffered) requests its current segment's first
    /// channel; the header sits at source position −1.
    fn inject_segment(&mut self, msg_id: u32, t: f64) {
        if self.segment_blocked(msg_id) {
            self.drop_msg(msg_id, t);
            return;
        }
        let chan = self.chan_at(msg_id, 0);
        let c = &mut self.chans[chan as usize];
        if c.owner.is_none() {
            c.owner = Some(msg_id);
            self.busy.grant(chan, t);
            self.try_move(msg_id, -1, t);
        } else {
            c.queue.push_back((msg_id, -1));
        }
    }

    /// Channel id at `pos` of the message's current segment.
    #[inline]
    fn chan_at(&self, msg_id: u32, pos: u32) -> u32 {
        let m = &self.msgs[msg_id as usize];
        self.routes.chan_at(m.cur.start + pos as u64)
    }

    #[inline]
    fn seg_len(&self, msg_id: u32) -> u32 {
        self.msgs[msg_id as usize].cur.len
    }

    /// Attempts to move the flit at `from_pos` (−1 = source buffer) one
    /// channel forward. Returns whether a move started. On success,
    /// recursively lets the flit behind advance into the freed buffer.
    fn try_move(&mut self, msg_id: u32, from_pos: i32, t: f64) -> bool {
        let to = (from_pos + 1) as u32;
        if to >= self.seg_len(msg_id) {
            return false;
        }
        // Identify the flit at from_pos.
        let flit = if from_pos < 0 {
            let m = &self.msgs[msg_id as usize];
            if m.injected >= self.m_flits {
                return false; // nothing left to inject
            }
            m.injected
        } else {
            match self.chans[self.chan_at(msg_id, from_pos as u32) as usize]
                .buf
                .front()
            {
                Some(&(owner, f)) if owner == msg_id => f,
                _ => return false,
            }
        };
        let to_chan = self.chan_at(msg_id, to);
        let last = to == self.seg_len(msg_id) - 1;
        {
            let c = &self.chans[to_chan as usize];
            if c.owner != Some(msg_id) || c.wire_busy {
                return false;
            }
            // Receive buffer must have room, except at the last channel
            // whose receiver is the always-accepting sink / boundary buffer.
            if !last && c.buf.len() >= self.depth {
                return false;
            }
        }
        // Start the crossing.
        let crossing_time = self.chans[to_chan as usize].t;
        self.chans[to_chan as usize].wire_busy = true;
        if from_pos >= 0 {
            let from_chan = self.chan_at(msg_id, from_pos as u32);
            self.chans[from_chan as usize].buf.pop_front();
        } else {
            self.msgs[msg_id as usize].injected += 1;
        }
        // The tail vacating a receive buffer releases that channel.
        if flit == self.m_flits - 1 && from_pos >= 0 {
            let freed = self.chan_at(msg_id, from_pos as u32);
            self.release(freed, t);
        }
        self.queue.schedule(
            t + crossing_time,
            EventKind::CrossComplete {
                msg: msg_id,
                flit,
                pos: to,
            },
        );
        // The freed slot lets the flit behind advance immediately.
        self.try_move(msg_id, from_pos - 1, t);
        true
    }

    fn on_cross_complete(&mut self, msg_id: u32, flit: u32, pos: u32, t: f64) {
        let seg_len = self.seg_len(msg_id);
        let chan = self.chan_at(msg_id, pos);
        self.chans[chan as usize].wire_busy = false;
        let last = pos == seg_len - 1;
        if last {
            // Delivered into the sink (or the boundary buffer).
            if flit == self.m_flits - 1 {
                self.release(chan, t);
                self.segment_done(msg_id, t);
            } else {
                // The wire freed; the next flit can follow.
                self.try_move(msg_id, pos as i32 - 1, t);
            }
            return;
        }
        self.chans[chan as usize].buf.push_back((msg_id, flit));
        if flit == 0 {
            // Header allocates the next channel.
            let next_chan = self.chan_at(msg_id, pos + 1);
            let c = &mut self.chans[next_chan as usize];
            if c.owner.is_none() {
                c.owner = Some(msg_id);
                self.busy.grant(next_chan, t);
            } else if c.owner != Some(msg_id) {
                c.queue.push_back((msg_id, pos as i32));
            }
        }
        // This flit may continue; if it does, the one behind follows.
        if !self.try_move(msg_id, pos as i32, t) {
            // Buffer stays occupied; upstream cannot advance into it, but
            // the wire we just freed may admit the previous flit once our
            // buffer clears later. Nothing else to do now.
        }
    }

    /// Releases a channel: account busy time and grant to the next queued
    /// header (whose message may immediately start moving).
    fn release(&mut self, chan: u32, t: f64) {
        self.busy.accrue(chan, t);
        let next = self.chans[chan as usize].queue.pop_front();
        match next {
            Some((w, wait_pos)) => {
                self.chans[chan as usize].owner = Some(w);
                self.busy.grant(chan, t);
                self.try_move(w, wait_pos, t);
            }
            None => self.chans[chan as usize].owner = None,
        }
    }

    /// The tail of the current segment arrived: store-and-forward into the
    /// next segment, or deliver.
    fn segment_done(&mut self, msg_id: u32, t: f64) {
        let m = self.msgs[msg_id as usize];
        if m.seg + 1 < m.nsegs {
            let next = self.routes.seg_meta(m.route, m.seg as u32 + 1);
            let mm = &mut self.msgs[msg_id as usize];
            mm.seg += 1;
            mm.injected = 0;
            mm.cur = next;
            self.inject_segment(msg_id, t);
            return;
        }
        self.counters.delivered_total += 1;
        self.sinks.record(&Delivery {
            t,
            latency: t - m.gen_time,
            src: m.src,
            gen_time: m.gen_time,
            recorded: m.recorded,
            audited: m.audited,
            intra: m.intra,
            src_cluster: m.src_cluster,
        });
        self.free.push(msg_id);
    }
}

/// Runs one simulation with the flit-level reference engine, on the
/// system `cfg` describes ([`BuiltSystem::for_config`], which panics if it
/// does not build).
///
/// Boundaries are store-and-forward regardless of `cfg.coupling`; compare
/// against the worm engine with `Coupling::StoreAndForward`.
pub fn run_simulation_flit(
    spec: &SystemSpec,
    wl: &Workload,
    pattern: Pattern,
    cfg: &SimConfig,
) -> SimResults {
    let built = BuiltSystem::for_config(spec, wl.flit_bytes, cfg);
    run_simulation_flit_built(&built, wl, pattern, cfg)
}

/// Like [`run_simulation_flit`] with a pre-built system.
pub fn run_simulation_flit_built(
    built: &BuiltSystem,
    wl: &Workload,
    pattern: Pattern,
    cfg: &SimConfig,
) -> SimResults {
    FlitSimulator::new(built, wl, pattern, cfg.clone()).run()
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Coupling, FaultAction};
    use crate::engine::run_simulation;
    use cocnet_topology::{ClusterSpec, NetworkCharacteristics};

    fn spec() -> SystemSpec {
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

    fn cfg(seed: u64) -> SimConfig {
        SimConfig {
            warmup: 300,
            measured: 3_000,
            drain: 300,
            seed,
            coupling: Coupling::StoreAndForward,
            ..SimConfig::default()
        }
    }

    #[test]
    fn completes_and_is_deterministic() {
        let wl = Workload::new(1e-4, 8, 256.0).unwrap();
        let a = run_simulation_flit(&spec(), &wl, Pattern::Uniform, &cfg(1));
        let b = run_simulation_flit(&spec(), &wl, Pattern::Uniform, &cfg(1));
        assert!(a.completed);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.delivered_recorded, 3_000);
    }

    #[test]
    fn single_message_pipeline_time_is_exact() {
        // With a near-zero rate every message travels alone; an intra
        // message crossing 2h channels with times t_0..t_{2h−1} must take
        // Σt + (M−1)·max(t) exactly (single-flit-buffer pipeline of
        // deterministic stages).
        let s = spec();
        let wl = Workload::new(1e-7, 4, 256.0).unwrap();
        let c = SimConfig {
            warmup: 0,
            measured: 50,
            drain: 0,
            seed: 9,
            coupling: Coupling::StoreAndForward,
            ..SimConfig::default()
        };
        let local = Pattern::ClusterLocal { locality: 1.0 };
        let flit = run_simulation_flit(&s, &wl, local, &c);
        let worm = run_simulation(&s, &wl, local, &c);
        assert!(flit.completed && worm.completed);
        // Same traffic (same seed/pattern): the two engines must agree up
        // to float summation order at zero contention (the flit engine
        // accumulates per-flit crossings; the worm engine uses the closed
        // form Σt + (M−1)·max t).
        assert!(
            (flit.latency.mean - worm.latency.mean).abs() < 1e-6,
            "flit {} vs worm {}",
            flit.latency.mean,
            worm.latency.mean
        );
    }

    #[test]
    fn agrees_with_worm_engine_under_load() {
        // Moderate load, full system, store-and-forward boundaries on both
        // engines: the worm engine's drain approximation must stay within
        // a few percent of the flit-exact reference.
        let s = spec();
        let wl = Workload::new(3e-4, 16, 256.0).unwrap();
        let flit = run_simulation_flit(&s, &wl, Pattern::Uniform, &cfg(3));
        let worm = run_simulation(&s, &wl, Pattern::Uniform, &cfg(3));
        assert!(flit.completed && worm.completed);
        let rel = (flit.latency.mean - worm.latency.mean).abs() / flit.latency.mean;
        assert!(
            rel < 0.05,
            "flit {} vs worm {} ({:.1}%)",
            flit.latency.mean,
            worm.latency.mean,
            rel * 100.0
        );
    }

    #[test]
    fn conservation_of_messages() {
        let wl = Workload::new(2e-4, 8, 256.0).unwrap();
        let r = run_simulation_flit(&spec(), &wl, Pattern::Uniform, &cfg(4));
        assert!(r.completed);
        assert_eq!(r.delivered_recorded, 3_000);
        assert!(r.generated >= r.delivered_recorded);
        let split = r.intra.count + r.inter.count;
        assert_eq!(split, r.delivered_recorded);
    }

    #[test]
    fn deeper_buffers_never_hurt() {
        // Extension beyond assumption 6: more flit buffering can only
        // reduce blocking. Latency must be non-increasing in depth.
        let s = spec();
        let wl = Workload::new(8e-4, 16, 256.0).unwrap();
        let mut last = f64::INFINITY;
        for depth in [1u32, 2, 4, 16] {
            let c = SimConfig {
                flit_buffer_depth: depth,
                ..cfg(11)
            };
            let r = run_simulation_flit(&s, &wl, Pattern::Uniform, &c);
            assert!(r.completed);
            assert!(
                r.latency.mean <= last * 1.01,
                "depth {depth}: {} > previous {last}",
                r.latency.mean
            );
            last = r.latency.mean;
        }
    }

    #[test]
    fn percentiles_collected_like_worm_engine() {
        // Both engines honour `collect_percentiles`; the flit reference
        // must report coherent order statistics without perturbing the run.
        let s = spec();
        let wl = Workload::new(3e-4, 16, 256.0).unwrap();
        let base = run_simulation_flit(&s, &wl, Pattern::Uniform, &cfg(6));
        assert!(base.percentiles.is_none());
        let collected = run_simulation_flit(
            &s,
            &wl,
            Pattern::Uniform,
            &SimConfig {
                collect_percentiles: true,
                ..cfg(6)
            },
        );
        assert_eq!(base.latency, collected.latency);
        let (p50, p95, p99) = collected.percentiles.unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 >= collected.latency.min && p99 <= collected.latency.max);
    }

    #[test]
    fn latency_grows_with_load() {
        let s = spec();
        let lo = run_simulation_flit(
            &s,
            &Workload::new(5e-5, 8, 256.0).unwrap(),
            Pattern::Uniform,
            &cfg(5),
        );
        let hi = run_simulation_flit(
            &s,
            &Workload::new(1e-3, 8, 256.0).unwrap(),
            Pattern::Uniform,
            &cfg(5),
        );
        assert!(lo.completed && hi.completed);
        assert!(hi.latency.mean > lo.latency.mean);
    }

    #[test]
    fn timed_fault_retry_accounting_is_exact() {
        // Permanently fail node 0's injection link at t = 0: messages are
        // refused admission to their first segment, retry, and exhaust
        // the budget. The drained run accounts for every message.
        let s = spec();
        let wl = Workload::new(2e-4, 8, 256.0).unwrap();
        let built = BuiltSystem::build(&s, wl.flit_bytes);
        let routes = built.route_table();
        let seg = routes.seg_meta(routes.route_ref(0, 1), 0);
        let dead = routes.chan_at(seg.start);
        let mut c = cfg(11);
        c.faults.events = vec![crate::config::FaultEvent {
            time: 0.0,
            link: dead,
            action: FaultAction::Fail,
        }];
        c.faults.max_attempts = 3;
        c.faults.retry_timeout = 50.0;
        c.faults.max_timeout = 200.0;
        let r = run_simulation_flit_built(&built, &wl, Pattern::Uniform, &c);
        assert!(!r.completed);
        assert_eq!(r.stop, StopReason::Drained);
        assert!(r.dropped > 0 && r.retransmits > 0 && r.unreachable > 0);
        assert_eq!(r.generated, r.delivered_total + r.unreachable);
        assert_eq!(r.dropped, r.retransmits + r.unreachable);
        assert_eq!(r.dropped, r.unreachable * c.faults.max_attempts as u64);
    }

    #[test]
    fn full_partition_terminates_gracefully() {
        let mut c = cfg(12);
        c.faults.link_fraction = 1.0;
        let wl = Workload::new(1e-4, 8, 256.0).unwrap();
        let r = run_simulation_flit(&spec(), &wl, Pattern::Uniform, &c);
        assert!(!r.completed);
        assert_eq!(r.stop, StopReason::Drained);
        assert!(r.generated > 0);
        assert_eq!(r.unreachable, r.generated);
        assert_eq!(r.delivered_total, 0);
        assert!(r.events_processed < c.max_events);
    }

    #[test]
    fn faulted_runs_bit_identical_run_to_run() {
        // Static faults plus retries must stay deterministic.
        let wl = Workload::new(3e-4, 8, 256.0).unwrap();
        let mut base = cfg(13);
        base.faults.link_fraction = 0.1;
        base.faults.fault_seed = 7;
        let a = run_simulation_flit(&spec(), &wl, Pattern::Uniform, &base);
        let b = run_simulation_flit(&spec(), &wl, Pattern::Uniform, &base);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits());
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.unreachable, b.unreachable);
        assert_eq!(a.delivered_total, b.delivered_total);
    }
}
