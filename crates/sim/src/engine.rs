//! The discrete-event wormhole engine.
//!
//! Three event kinds drive the simulation:
//!
//! * a node's arrival — its Poisson process fires: build the message,
//!   inject it into its first channel's FIFO, and draw the next arrival;
//! * `Advance(msg)` — the message's header finished crossing a channel:
//!   request the next channel (possibly across a segment boundary), or
//!   complete delivery;
//! * `Release(chan)` — a message's tail fully crossed a channel: hand the
//!   channel to the next queued message, or mark it free.
//!
//! Each node's pending arrival waits in an *arrival band* beside the
//! future-event list, so the list holds only network events (those of
//! messages in flight, and timed faults): its size follows the traffic,
//! not the node count. Both number their events from the list's one
//! sequence counter, and the loop pops whichever head is earliest, so
//! events are processed in one `(time, sequence)` order and runs are
//! exactly reproducible for a given seed. The band streams the first
//! arrivals — drawn for every node at start-up and sorted once — from a
//! cursor, and keeps later draws in a heap of the nodes that have
//! generated, so a pending arrival costs a heap operation only once its
//! node has sent a message. What the engine records (counters, statistic
//! sinks, busy time, the live fault mask) is the run ledger it shares
//! with the other engines; the handlers here decide only when.
//!
//! The future-event list is a binary heap ([`EventQueue`]); see
//! [`crate::events`] for why no other list is offered.
//!
//! # No-allocation invariant
//!
//! The event loop is **allocation-free in steady state**, and every change
//! to it must keep it that way:
//!
//! * routes are never built per message — deterministic messages carry a
//!   [`RouteRef`] into the [`BuiltSystem`]'s interned [`RouteTable`]
//!   (channel ids in one flat array, per-segment `sum_t`/`bottleneck_t`
//!   precomputed at build time), and adaptive messages carry a
//!   [`RouteRef::adaptive`] index into the run's [`AdaptiveRouteCache`],
//!   which materialises each distinct route once;
//! * `Msg` is a small `Copy` record; delivered messages push their slab
//!   slot onto a free list, so the live-message footprint is bounded by
//!   the peak in-flight population (reported as
//!   [`SimResults::peak_live_msgs`]), not by the run length;
//! * the event lists retain their capacity, and each channel is an 8-byte
//!   record whose FIFO of waiting headers links through the message slab
//!   — no per-channel allocation at all — so a warmed-up loop performs no
//!   allocator calls;
//! * recorded deliveries wait in a buffer only until the clock next
//!   advances (same-instant ties are reordered canonically before the
//!   sinks see them), so the buffer holds one instant's ties, not the run;
//! * tracing is compiled out of the hot path via the `TRACE` const
//!   generic — with `trace_messages == 0` the per-event trace branches
//!   do not exist in the monomorphised engine.
//!
//! [`RouteRef`]: crate::build::RouteRef
//! [`RouteRef::adaptive`]: crate::build::RouteRef::adaptive
//! [`RouteTable`]: crate::build::RouteTable
//! [`AdaptiveRouteCache`]: crate::build::AdaptiveRouteCache
//! [`SimResults::peak_live_msgs`]: crate::results::SimResults::peak_live_msgs

use crate::build::{
    AdaptiveRouteCache, AdaptiveScratch, BuiltSystem, RouteRef, RouteTable, SegMeta,
};
use crate::config::{Coupling, FaultMask, SimConfig};
use crate::events::{ArrivalBand, EventQueue, Merged, Scheduler};
use crate::results::{delivery_order, BusyTime, Counters, Delivery, SimResults, Sinks, StopReason};
use crate::trace::{MessageTrace, TraceEvent, TraceEventKind};
use cocnet_model::Workload;
use cocnet_topology::SystemSpec;
use cocnet_workloads::{cluster_offsets, ArrivalProcess, ArrivalSpec, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What the future-event list holds: the events of messages in flight,
/// and timed faults. Arrivals wait in the arrival band instead.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Advance {
        msg: u32,
    },
    Release {
        chan: u32,
    },
    /// Deferred channel request: the message becomes ready at the event's
    /// time (store-and-forward buffering completes) and then contends for
    /// the channel under its header cursor.
    Request {
        msg: u32,
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

/// One channel's arbitration record: `[head, tail]` of its FIFO of
/// waiting headers. `head` is [`FREE`], [`HELD`] (held, nobody waiting) or
/// the first waiter's slab slot plus [`WAITER`]; `tail` is the last
/// waiter's, offset alike and meaningful only while someone waits.
/// Waiters link through [`Msg::next`] and leave only from the front
/// (granted, or dropped at the grant when the channel failed meanwhile).
/// The channel's transfer time is the built system's.
///
/// A plain integer array, so the per-run vector of records is allocated
/// zeroed (all [`FREE`]) and the channels no message touches never become
/// resident.
type Chan = [u32; 2];

/// `head` of a channel no message holds.
const FREE: u32 = 0;
/// `head` of a held channel nobody waits for; also the [`Msg::next`] of
/// the last waiter.
const HELD: u32 = 1;
/// Offset of a slab slot stored in a FIFO link.
const WAITER: u32 = 2;

/// One in-flight message: a slab slot's worth of `Copy` state. The route
/// itself lives in the interned table (or the adaptive route cache); the
/// current segment's metadata is cached inline so the per-event path needs
/// no route resolution at all.
#[derive(Debug, Clone, Copy)]
struct Msg {
    gen_time: f64,
    /// Tail availability at the current segment's entrance (generation time
    /// for segment 0, previous segment's finish afterwards).
    prev_finish: f64,
    /// Cached metadata of the segment under the header.
    cur: SegMeta,
    /// Interned route, or an adaptive route's cache index.
    route: RouteRef,
    /// Generation index for tracing (`u32::MAX` when untraced).
    trace_id: u32,
    /// Current segment index of the header.
    seg: u8,
    /// Total segments on the route (1 intra, 3 inter).
    nsegs: u8,
    /// Channel index of the header within the current segment.
    idx: u16,
    /// Whether this message's latency is recorded (not warm-up/drain).
    recorded: bool,
    /// Whether this message feeds the warm-up audit stream (warm-up +
    /// measured populations when `cfg.audit_warmup` is on).
    audited: bool,
    /// Whether source and destination share a cluster.
    intra: bool,
    src_cluster: u32,
    /// Flat source node id (retransmissions re-enter here).
    src: u32,
    /// Flat destination node id.
    dst: u32,
    /// Completed transmission attempts that hit a failed channel.
    attempt: u32,
    /// While the header waits for a channel: the next waiter's slot plus
    /// [`WAITER`], or [`HELD`] for the last one (see [`Chan`]).
    next: u32,
}

const UNTRACED: u32 = u32::MAX;

impl Msg {
    /// Placeholder for freshly grown slab slots (overwritten before use).
    const VACANT: Msg = Msg {
        gen_time: 0.0,
        prev_finish: 0.0,
        cur: SegMeta {
            start: 0,
            len: 0,
            sum_t: 0.0,
            bottleneck_t: 0.0,
        },
        route: RouteRef::adaptive(0),
        trace_id: UNTRACED,
        seg: 0,
        nsegs: 0,
        idx: 0,
        recorded: false,
        audited: false,
        intra: false,
        src_cluster: 0,
        src: 0,
        dst: 0,
        attempt: 0,
        next: HELD,
    };
}

struct Simulator<'a, const TRACE: bool> {
    built: &'a BuiltSystem,
    routes: &'a RouteTable,
    cfg: SimConfig,
    m_flits: f64,
    /// Per-flit transfer time of every channel.
    chan_time: &'a [f64],
    /// Per-node arrival streams (independent state per node).
    arrivals: Vec<ArrivalProcess>,
    /// Each node's pending arrival (the node id), numbered from `queue`'s
    /// sequence counter: the first arrivals in a sorted cursor, later
    /// draws in a heap.
    arrival_band: ArrivalBand<u32>,
    pattern: Pattern,
    /// The node layout destination draws read (see [`cluster_offsets`]).
    layout: Vec<usize>,
    rng: StdRng,
    /// The future-event list: events of messages in flight only.
    queue: EventQueue<EventKind>,
    chans: Vec<Chan>,
    /// Message slab; `free` holds the slots of delivered messages.
    msgs: Vec<Msg>,
    free: Vec<u32>,
    scratch: AdaptiveScratch,
    /// The adaptive routes of this run: repeated (pair, digits) draws
    /// reuse the materialised channel list instead of re-walking the
    /// graph maps, and messages hold an index into it.
    route_cache: AdaptiveRouteCache,
    now: f64,
    /// Recorded deliveries so far, counted at once (the stop rule reads
    /// it) while their sink accumulation waits in `deliveries`.
    recorded_done: u64,
    counters: Counters,
    faults: FaultMask,
    busy: BusyTime,
    sinks: Sinks,
    /// Traces of the first `cfg.trace_messages` messages.
    traces: Vec<MessageTrace>,
    /// Recorded/audited deliveries of the current instant, buffered so
    /// the statistic sinks see same-instant ties in the canonical
    /// (pop time, src, gen_time) order — see
    /// [`crate::results::delivery_order`]. Flushed whenever the clock
    /// strictly advances, so it holds only ties. Stop decisions still use
    /// the immediate counters; only the f64 accumulation order is
    /// deferred, so event execution is untouched and non-tied runs keep
    /// their exact bits.
    deliveries: Vec<Delivery>,
}

impl<'a, const TRACE: bool> Simulator<'a, TRACE> {
    fn new(
        built: &'a BuiltSystem,
        wl: &Workload,
        pattern: Pattern,
        cfg: SimConfig,
        arrival: ArrivalSpec,
    ) -> Self {
        assert!(
            arrival.mean_rate() > 0.0,
            "simulation needs a positive generation rate"
        );
        Self {
            built,
            routes: built.route_table(),
            m_flits: wl.msg_flits as f64,
            chan_time: built.chan_times(),
            arrivals: vec![arrival.build(); built.total_nodes()],
            arrival_band: ArrivalBand::default(),
            pattern,
            layout: cluster_offsets(built.spec()),
            rng: StdRng::seed_from_u64(cfg.seed),
            queue: EventQueue::new(),
            chans: vec![[FREE; 2]; built.num_channels()],
            msgs: Vec::new(),
            free: Vec::new(),
            scratch: AdaptiveScratch::default(),
            route_cache: AdaptiveRouteCache::default(),
            now: 0.0,
            recorded_done: 0,
            counters: Counters::default(),
            faults: FaultMask::new(built, &cfg.faults),
            busy: BusyTime::new(built.num_channels()),
            sinks: Sinks::new(&cfg, built.spec().num_clusters()),
            traces: Vec::new(),
            deliveries: Vec::new(),
            cfg,
        }
    }

    #[inline]
    fn trace(&mut self, trace_id: u32, time: f64, kind: TraceEventKind) {
        if !TRACE || trace_id == UNTRACED {
            return;
        }
        let idx = trace_id as usize;
        while self.traces.len() <= idx {
            self.traces.push(MessageTrace::default());
        }
        self.traces[idx].events.push(TraceEvent { time, kind });
    }

    /// Channel id at position `k` of the message's current segment.
    #[inline]
    fn seg_chan(&self, msg_id: u32, k: u32) -> u32 {
        let m = &self.msgs[msg_id as usize];
        let pos = m.cur.start + k as u64;
        match m.route.adaptive_idx() {
            Some(i) => self.route_cache.route(i).chans[pos as usize],
            None => self.routes.chan_at(pos),
        }
    }

    /// Metadata of segment `seg` of the message's route.
    #[inline]
    fn seg_meta(&self, msg_id: u32, seg: u8) -> SegMeta {
        let route = self.msgs[msg_id as usize].route;
        match route.adaptive_idx() {
            Some(i) => self.route_cache.route(i).segs[seg as usize],
            None => self.routes.seg_meta(route, seg as u32),
        }
    }

    /// Draws an adaptive route from `src` to `dst`: its reference, first
    /// segment and segment count.
    fn draw_adaptive(&mut self, src: usize, dst: usize) -> (RouteRef, SegMeta, u8) {
        let idx =
            self.route_cache
                .route_idx(self.built, src, dst, &mut self.rng, &mut self.scratch);
        let cr = self.route_cache.route(idx);
        (RouteRef::adaptive(idx), cr.segs[0], cr.nsegs)
    }

    /// Seeds the fault schedule and the first arrival of every node.
    /// Faults are scheduled first so a `t = 0` failure is in force before
    /// any traffic moves. The first arrivals are drawn in node order and
    /// sorted once into the band's cursor.
    fn prime(&mut self) {
        self.cfg.faults.schedule_timed(
            &mut self.queue,
            |_| true,
            |link, fail| EventKind::Fault { link, fail },
        );
        let rng = &mut self.rng;
        let first = self
            .arrivals
            .iter_mut()
            .zip(0u32..)
            .map(|(arrivals, node)| (arrivals.next_arrival(rng), node));
        self.arrival_band.prime(&mut self.queue, first);
    }

    /// Draws `node`'s next arrival into the arrival band.
    fn schedule_arrival(&mut self, node: u32) {
        let time = self.arrivals[node as usize].next_arrival(&mut self.rng);
        debug_assert!(time >= self.now, "arrival streams move forward");
        self.arrival_band.schedule(&mut self.queue, time, node);
    }

    fn run(mut self) -> SimResults {
        let stop = self.simulate();
        self.results(stop)
    }

    /// Runs the event loop to its stop condition and feeds every buffered
    /// delivery to the sinks; returns why the loop stopped.
    fn simulate(&mut self) -> StopReason {
        self.prime();
        // If the loop exits any other way, the queue ran dry: every
        // message was delivered or written off — graceful degradation,
        // not a hang.
        let mut stop = StopReason::Drained;
        while let Some(next) = self.arrival_band.pop_merged(&mut self.queue) {
            let t = next.time();
            self.counters.events_processed += 1;
            if self.counters.events_processed > self.cfg.max_events {
                stop = StopReason::EventCap;
                break;
            }
            debug_assert!(t >= self.now - 1e-9, "time must not run backwards");
            // Every buffered delivery popped before this instant: no later
            // delivery can tie with them, so their order is final.
            if self.deliveries.last().is_some_and(|d| t > d.t) {
                self.flush_deliveries();
            }
            self.now = t;
            match next {
                Merged::Band(ev) => self.on_generate(ev.kind, t),
                Merged::Queue(ev) => match ev.kind {
                    EventKind::Advance { msg } => self.on_advance(msg, t),
                    EventKind::Release { chan } => self.on_release(chan, t),
                    EventKind::Request { msg } => self.request_current(msg, t),
                    EventKind::Fault { link, fail } => self.faults.apply(link, fail),
                    EventKind::Retransmit { msg } => self.on_retransmit(msg, t),
                },
            }
            if self.recorded_done >= self.cfg.measured {
                stop = StopReason::MeasuredComplete;
                break;
            }
        }
        self.flush_deliveries();
        stop
    }

    /// The run's results, once [`Self::simulate`] has returned.
    fn results(self, stop: StopReason) -> SimResults {
        let chans = &self.chans;
        let busy = self.busy.finish(self.now, |c| chans[c][0] != FREE);
        let mut r = self
            .sinks
            .finish(self.counters, stop, self.now, busy, self.msgs.len() as u64);
        r.traces = self.traces;
        r
    }

    /// Replay the buffered deliveries into the statistic sinks in the
    /// canonical (pop time, src, gen_time) order, then empty the buffer
    /// (keeping its capacity).
    ///
    /// The buffer arrives in pop order — already nondecreasing in time —
    /// so the stable sort only rearranges bit-equal-time ties, and it
    /// rearranges them exactly the way the sharded coordinator's merge
    /// does. The order sorts on pop time first, so flushing every instant
    /// as the clock moves past it accumulates exactly what one sort at the
    /// end of the run would. Everything the simulation's control flow
    /// depends on (`recorded_done`, the measured stop, event execution)
    /// happened immediately; this pass only fixes the f64 accumulation
    /// order.
    ///
    /// Kept out of line: it runs at most once per clock advance, and
    /// inlined, its sort and sink code would sit inside the event loop.
    #[inline(never)]
    fn flush_deliveries(&mut self) {
        self.deliveries.sort_by(delivery_order);
        for d in &self.deliveries {
            self.sinks.record(d);
        }
        self.deliveries.clear();
    }

    /// Drops an in-flight message whose header ran into the failed channel
    /// `chan`: every channel it still holds in the current segment is
    /// released now (earlier segments released at their boundaries), and
    /// the message re-enters from its source after the retry timeout — or,
    /// with the attempt budget exhausted, is written off as unreachable.
    fn drop_msg(&mut self, msg_id: u32, chan: u32, t: f64) {
        let m = self.msgs[msg_id as usize];
        self.counters.dropped += 1;
        self.trace(m.trace_id, t, TraceEventKind::Dropped { chan });
        for k in 0..m.idx {
            let held = self.seg_chan(msg_id, k as u32);
            self.queue.schedule(t, EventKind::Release { chan: held });
        }
        if m.attempt + 1 >= self.cfg.faults.max_attempts {
            self.counters.unreachable += 1;
            self.free.push(msg_id);
        } else {
            let delay = self.cfg.faults.retry_delay(m.attempt);
            self.queue
                .schedule(t + delay, EventKind::Retransmit { msg: msg_id });
        }
    }

    /// A dropped message's retry timeout expired: re-enter from the source
    /// with the original generation time-stamp (latency includes every
    /// retry delay). Adaptive messages re-draw their ascent digits, so an
    /// oblivious retry may dodge the fault; interned routes are fixed.
    fn on_retransmit(&mut self, msg_id: u32, t: f64) {
        self.counters.retransmits += 1;
        let m = self.msgs[msg_id as usize];
        self.trace(
            m.trace_id,
            t,
            TraceEventKind::Retransmitted {
                attempt: m.attempt + 1,
            },
        );
        let (route, cur, nsegs) = if m.route.adaptive_idx().is_some() {
            self.draw_adaptive(m.src as usize, m.dst as usize)
        } else {
            (m.route, self.routes.seg_meta(m.route, 0), m.nsegs)
        };
        let mm = &mut self.msgs[msg_id as usize];
        mm.route = route;
        mm.nsegs = nsegs;
        mm.attempt += 1;
        mm.seg = 0;
        mm.idx = 0;
        mm.prev_finish = t;
        mm.cur = cur;
        self.request_current(msg_id, t);
    }

    fn on_generate(&mut self, node: u32, t: f64) {
        if self.counters.generated >= self.cfg.total_messages() {
            return;
        }
        let src = node as usize;
        let dst = self.pattern.sample_in(&self.layout, src, &mut self.rng);
        if self.routes.is_unreachable(src, dst) {
            // The destination is statically partitioned away: account the
            // message (generated + unreachable, never silently lost)
            // without allocating a slab slot, and keep the arrival stream
            // going so the node's later destinations still get traffic.
            self.counters.generated += 1;
            self.counters.unreachable += 1;
            if self.counters.generated < self.cfg.total_messages() {
                self.schedule_arrival(node);
            }
            return;
        }
        let generated = self.counters.generated;
        let recorded =
            generated >= self.cfg.warmup && generated < self.cfg.warmup + self.cfg.measured;
        let audited = self.cfg.audit_warmup && generated < self.cfg.warmup + self.cfg.measured;
        let trace_id = if TRACE && generated < self.cfg.trace_messages.min(UNTRACED as u64) {
            generated as u32
        } else {
            UNTRACED
        };
        self.counters.generated += 1;

        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.msgs.len() as u32;
                self.msgs.push(Msg::VACANT);
                s
            }
        };
        let (route, cur, nsegs) = if self.cfg.adaptive_routing {
            self.draw_adaptive(src, dst)
        } else {
            let r = self.routes.route_ref(src, dst);
            (
                r,
                self.routes.seg_meta(r, 0),
                self.routes.num_segments(r) as u8,
            )
        };
        let built = self.built;
        self.msgs[slot as usize] = Msg {
            gen_time: t,
            prev_finish: t,
            cur,
            route,
            trace_id,
            seg: 0,
            nsegs,
            idx: 0,
            recorded,
            audited,
            intra: built.cluster_of(src) == built.cluster_of(dst),
            src_cluster: built.cluster_of(src) as u32,
            src: src as u32,
            dst: dst as u32,
            attempt: 0,
            next: HELD,
        };
        self.trace(
            trace_id,
            t,
            TraceEventKind::Generated {
                src: src as u32,
                dst: dst as u32,
            },
        );
        self.request_current(slot, t);
        // Keep generating until the population is complete.
        if self.counters.generated < self.cfg.total_messages() {
            self.schedule_arrival(node);
        }
    }

    /// Requests the channel under the message's header cursor; either
    /// acquires it immediately or joins its FIFO.
    fn request_current(&mut self, msg_id: u32, t: f64) {
        let idx = self.msgs[msg_id as usize].idx;
        let chan = self.seg_chan(msg_id, idx as u32);
        if self.faults.is_failed(chan) {
            self.drop_msg(msg_id, chan, t);
            return;
        }
        let c = &mut self.chans[chan as usize];
        if c[0] != FREE {
            // Join the FIFO as its last waiter.
            let link = msg_id + WAITER;
            self.msgs[msg_id as usize].next = HELD;
            if c[0] == HELD {
                *c = [link, link];
            } else {
                self.msgs[(c[1] - WAITER) as usize].next = link;
                c[1] = link;
            }
            if TRACE {
                let trace_id = self.msgs[msg_id as usize].trace_id;
                self.trace(trace_id, t, TraceEventKind::Blocked { chan });
            }
        } else {
            c[0] = HELD;
            let cross = self.chan_time[chan as usize];
            self.busy.grant(chan, t);
            self.queue
                .schedule(t + cross, EventKind::Advance { msg: msg_id });
            if TRACE {
                let trace_id = self.msgs[msg_id as usize].trace_id;
                self.trace(trace_id, t, TraceEventKind::Acquired { chan });
            }
        }
    }

    fn on_advance(&mut self, msg_id: u32, t: f64) {
        let m = self.msgs[msg_id as usize];
        let at_seg_end = (m.idx as u32) + 1 == m.cur.len;
        if !at_seg_end {
            self.msgs[msg_id as usize].idx += 1;
            self.request_current(msg_id, t);
            return;
        }

        // Header finished its segment: compute the segment finish time from
        // the precomputed segment metrics and schedule channel releases.
        // Under store-and-forward the whole message is already buffered at
        // the segment entrance, so the worm streams at the segment's
        // bottleneck rate; under cut-through the tail may additionally be
        // limited by its arrival from the previous buffer.
        let header_limited = t + (self.m_flits - 1.0) * m.cur.bottleneck_t;
        let finish = match self.cfg.coupling {
            // Full buffering / no-starve start: the worm streams at this
            // segment's own bottleneck rate.
            Coupling::StoreAndForward | Coupling::VirtualCutThrough => header_limited,
            // Tightly coupled pipeline: the tail may still be limited by
            // its arrival from the previous buffer.
            Coupling::CutThrough => header_limited.max(m.prev_finish + m.cur.sum_t),
        };
        // Release channel k once the tail has crossed it: the tail still has
        // to cross the suffix after leaving k, so release_k = finish − Σ_{s>k} t_s.
        let mut suffix = 0.0;
        for k in (0..m.cur.len).rev() {
            let chan = self.seg_chan(msg_id, k);
            let release = (finish - suffix).max(t);
            self.queue.schedule(release, EventKind::Release { chan });
            suffix += self.chan_time[chan as usize];
        }

        self.trace(
            m.trace_id,
            t,
            TraceEventKind::SegmentDone {
                seg: m.seg as u16,
                finish,
            },
        );
        let last_segment = m.seg + 1 == m.nsegs;
        if last_segment {
            self.counters.delivered_total += 1;
            let latency = finish - m.gen_time;
            self.trace(m.trace_id, finish, TraceEventKind::Delivered { latency });
            if m.audited || m.recorded {
                // Sink accumulation is deferred to `flush_deliveries` (at
                // the next clock advance) so same-instant ties land in the
                // canonical order shared with the sharded engine; only the
                // stop-driving counter advances here.
                self.deliveries.push(Delivery {
                    t,
                    latency,
                    src: m.src,
                    gen_time: m.gen_time,
                    recorded: m.recorded,
                    audited: m.audited,
                    intra: m.intra,
                    src_cluster: m.src_cluster,
                });
            }
            if m.recorded {
                self.recorded_done += 1;
            }
            // Delivery releases the slab slot for the next generated
            // message.
            self.free.push(msg_id);
        } else {
            let next = self.seg_meta(msg_id, m.seg + 1);
            let mm = &mut self.msgs[msg_id as usize];
            mm.seg += 1;
            mm.idx = 0;
            mm.prev_finish = finish;
            mm.cur = next;
            // Store-and-forward: the next network sees the message only
            // once it is fully buffered; cut-through forwards the header
            // immediately.
            match self.cfg.coupling {
                // The channel must not be contended for before the message
                // is ready, so future requests go through the heap.
                Coupling::StoreAndForward => self
                    .queue
                    .schedule(finish, EventKind::Request { msg: msg_id }),
                Coupling::VirtualCutThrough => {
                    // Latest header start such that the next segment's
                    // output never starves: its (M−1) payload flits stream
                    // at its bottleneck pace only after the tail (arriving
                    // at `finish`) can feed them.
                    let start = (finish - (self.m_flits - 1.0) * next.bottleneck_t).max(t);
                    if start <= t {
                        self.request_current(msg_id, t);
                    } else {
                        self.queue
                            .schedule(start, EventKind::Request { msg: msg_id });
                    }
                }
                Coupling::CutThrough => self.request_current(msg_id, t),
            }
        }
    }

    fn on_release(&mut self, chan: u32, t: f64) {
        self.busy.accrue(chan, t);
        debug_assert_ne!(
            self.chans[chan as usize][0], FREE,
            "releasing a free channel"
        );
        loop {
            let head = &mut self.chans[chan as usize][0];
            if *head == HELD {
                *head = FREE;
                return;
            }
            // Pop the first waiter: its link is the new head.
            let next = *head - WAITER;
            *head = self.msgs[next as usize].next;
            if self.faults.is_failed(chan) {
                // The link died while this header was queued on it: the
                // grant would start a crossing on a failed channel, so the
                // waiter is dropped for retransmission instead.
                self.drop_msg(next, chan, t);
                continue;
            }
            // Grant to the next waiting header; channel stays busy.
            let cross = self.chan_time[chan as usize];
            self.busy.grant(chan, t);
            self.queue
                .schedule(t + cross, EventKind::Advance { msg: next });
            if TRACE {
                let trace_id = self.msgs[next as usize].trace_id;
                self.trace(trace_id, t, TraceEventKind::Acquired { chan });
            }
            return;
        }
    }
}

/// Runs one simulation of `spec` under workload `wl` and traffic `pattern`.
///
/// Latency is measured from generation time-stamp to complete delivery of
/// the tail flit at the destination sink, exactly as in the paper's §4.
///
/// ```
/// use cocnet_model::Workload;
/// use cocnet_sim::{run_simulation, SimConfig};
/// use cocnet_topology::{ClusterSpec, NetworkCharacteristics, SystemSpec};
/// use cocnet_workloads::Pattern;
///
/// let net = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
/// let cluster = |n| ClusterSpec { n, icn1: net, ecn1: net, topology: Default::default() };
/// let spec = SystemSpec::new(4, vec![cluster(1); 4], net).unwrap();
/// let wl = Workload::new(1e-4, 8, 256.0).unwrap();
/// let mut cfg = SimConfig::quick(7);
/// cfg.measured = 500;
/// let out = run_simulation(&spec, &wl, Pattern::Uniform, &cfg);
/// assert!(out.completed);
/// assert_eq!(out.latency.count, 500);
/// ```
pub fn run_simulation(
    spec: &SystemSpec,
    wl: &Workload,
    pattern: Pattern,
    cfg: &SimConfig,
) -> SimResults {
    let built = BuiltSystem::try_build_with(
        spec,
        wl.flit_bytes,
        cocnet_topology::AscentPolicy::default(),
        &cfg.faults,
    )
    .unwrap_or_else(|e| panic!("invalid fault schedule (validate it first): {e}"));
    run_simulation_built(&built, wl, pattern, cfg)
}

/// Dispatches over the `TRACE` monomorphisations: tracing code is
/// compiled in only when the configuration asks for traces.
fn dispatch(
    built: &BuiltSystem,
    wl: &Workload,
    pattern: Pattern,
    cfg: SimConfig,
    arrival: ArrivalSpec,
) -> SimResults {
    if crate::shard::sharding_eligible(built, &cfg) {
        return crate::shard::run_sharded(built, wl, pattern, &cfg, &arrival);
    }
    if cfg.trace_messages > 0 {
        Simulator::<true>::new(built, wl, pattern, cfg, arrival).run()
    } else {
        Simulator::<false>::new(built, wl, pattern, cfg, arrival).run()
    }
}

/// Like [`run_simulation`], but reuses a pre-built system (sweeps over λ
/// share the same topology; only channel times depend on the flit size, so
/// the caller must have built with the same `flit_bytes`).
pub fn run_simulation_built(
    built: &BuiltSystem,
    wl: &Workload,
    pattern: Pattern,
    cfg: &SimConfig,
) -> SimResults {
    dispatch(
        built,
        wl,
        pattern,
        cfg.clone(),
        ArrivalSpec::Poisson { rate: wl.lambda_g },
    )
}

/// Like [`run_simulation_built`], but with an explicit per-node arrival
/// process instead of the workload's Poisson rate — the bursty-traffic
/// extension (`bursty` experiment bin). The workload's `lambda_g` is
/// ignored for generation; message geometry (`M`, `d_m`) still applies.
pub fn run_simulation_arrivals(
    built: &BuiltSystem,
    wl: &Workload,
    pattern: Pattern,
    cfg: &SimConfig,
    arrival: ArrivalSpec,
) -> SimResults {
    dispatch(built, wl, pattern, cfg.clone(), arrival)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultAction;
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

    fn wl(rate: f64) -> Workload {
        Workload::new(rate, 32, 256.0).unwrap()
    }

    fn tiny_cfg(seed: u64) -> SimConfig {
        SimConfig {
            warmup: 200,
            measured: 2_000,
            drain: 200,
            seed,
            max_events: 20_000_000,
            histogram: None,
            coupling: Coupling::default(),
            flit_buffer_depth: 1,
            trace_messages: 0,
            adaptive_routing: false,
            collect_percentiles: false,
            audit_warmup: false,
            faults: crate::config::FaultSchedule::default(),
            shards: crate::config::ShardMode::Off,
            interning: crate::config::InternMode::default(),
        }
    }

    #[test]
    fn light_load_run_completes() {
        let r = run_simulation(&spec(), &wl(1e-4), Pattern::Uniform, &tiny_cfg(1));
        assert!(r.completed);
        assert_eq!(r.delivered_recorded, 2_000);
        assert_eq!(r.latency.count, 2_000);
        assert!(r.latency.mean > 0.0);
        assert!(r.sim_time > 0.0);
    }

    #[test]
    fn latency_close_to_zero_load_floor_at_light_load() {
        // At a trivial load, mean latency must sit near the uncontended
        // pipeline time: bounded below by M·(fastest flit time) and above
        // by a small multiple of the zero-load estimate.
        let r = run_simulation(&spec(), &wl(1e-6), Pattern::Uniform, &tiny_cfg(2));
        assert!(r.completed);
        let m = 32.0;
        let t_fast = NetworkCharacteristics::new(500.0, 0.01, 0.02)
            .unwrap()
            .t_cn(256.0);
        assert!(r.latency.mean > (m - 1.0) * t_fast);
        assert!(r.latency.mean < 150.0, "mean {} too high", r.latency.mean);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = run_simulation(&spec(), &wl(2e-4), Pattern::Uniform, &tiny_cfg(7));
        let b = run_simulation(&spec(), &wl(2e-4), Pattern::Uniform, &tiny_cfg(7));
        assert_eq!(a.latency.mean, b.latency.mean);
        assert_eq!(a.latency.count, b.latency.count);
        assert_eq!(a.generated, b.generated);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_simulation(&spec(), &wl(2e-4), Pattern::Uniform, &tiny_cfg(1));
        let b = run_simulation(&spec(), &wl(2e-4), Pattern::Uniform, &tiny_cfg(2));
        assert_ne!(a.latency.mean, b.latency.mean);
    }

    #[test]
    fn latency_grows_with_load() {
        let lo = run_simulation(&spec(), &wl(5e-5), Pattern::Uniform, &tiny_cfg(3));
        let hi = run_simulation(&spec(), &wl(8e-4), Pattern::Uniform, &tiny_cfg(3));
        assert!(lo.completed && hi.completed);
        assert!(
            hi.latency.mean > lo.latency.mean,
            "hi {} vs lo {}",
            hi.latency.mean,
            lo.latency.mean
        );
    }

    #[test]
    fn inter_slower_than_intra() {
        let r = run_simulation(&spec(), &wl(1e-4), Pattern::Uniform, &tiny_cfg(4));
        assert!(r.intra.count > 0 && r.inter.count > 0);
        assert!(r.inter.mean > r.intra.mean);
    }

    #[test]
    fn event_cap_reports_incomplete() {
        let cfg = SimConfig {
            max_events: 5_000,
            ..tiny_cfg(5)
        };
        // The cap fires long before the measured population delivers.
        let r = run_simulation(&spec(), &wl(0.5), Pattern::Uniform, &cfg);
        assert!(!r.completed);
        assert!(r.delivered_recorded < 2_000);
    }

    #[test]
    fn overload_completes_with_exploded_latency() {
        // The generated population is finite, so even far past saturation
        // the run drains eventually — with latencies orders of magnitude
        // above the light-load floor (how saturation shows up in Figs. 3–6).
        let light = run_simulation(&spec(), &wl(5e-5), Pattern::Uniform, &tiny_cfg(5));
        let heavy = run_simulation(&spec(), &wl(5e-2), Pattern::Uniform, &tiny_cfg(5));
        assert!(light.completed && heavy.completed);
        assert!(heavy.latency.mean > 10.0 * light.latency.mean);
    }

    #[test]
    fn histogram_collects_all_recorded() {
        let cfg = SimConfig {
            histogram: Some((10_000.0, 100)),
            ..tiny_cfg(6)
        };
        let r = run_simulation(&spec(), &wl(1e-4), Pattern::Uniform, &cfg);
        let h = r.histogram.unwrap();
        assert_eq!(h.total(), r.delivered_recorded);
        assert_eq!(h.underflow(), 0);
    }

    #[test]
    fn cluster_local_pattern_reduces_latency() {
        let uni = run_simulation(&spec(), &wl(1e-4), Pattern::Uniform, &tiny_cfg(8));
        let local = run_simulation(
            &spec(),
            &wl(1e-4),
            Pattern::ClusterLocal { locality: 0.95 },
            &tiny_cfg(8),
        );
        assert!(local.latency.mean < uni.latency.mean);
    }

    #[test]
    fn golden_trace_of_an_isolated_message() {
        use crate::trace::TraceEventKind;
        // At a near-zero rate the first message travels alone; its trace
        // must show the exact wormhole timing semantics.
        let s = spec();
        let m_flits = 4u32;
        let wl = Workload::new(1e-9, m_flits, 256.0).unwrap();
        let cfg = SimConfig {
            warmup: 0,
            measured: 1,
            drain: 0,
            seed: 3,
            trace_messages: 1,
            ..SimConfig::default()
        };
        let built = BuiltSystem::build(&s, wl.flit_bytes);
        let r = run_simulation_built(&built, &wl, Pattern::Uniform, &cfg);
        assert!(r.completed);
        assert_eq!(r.traces.len(), 1);
        let trace = &r.traces[0];

        // Structure: Generated, then per channel an Acquired (no blocking
        // in an empty network), SegmentDone per segment, final Delivered.
        let TraceEventKind::Generated { src, dst } = trace.events[0].kind else {
            panic!("first event must be Generated");
        };
        let segments = built.segments_for(src as usize, dst as usize);
        let expected_chans: Vec<u32> = segments
            .iter()
            .flat_map(|seg| seg.chans.iter().copied())
            .collect();
        assert_eq!(trace.acquired_channels(), expected_chans);
        assert!(!trace
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::Blocked { .. })));
        let seg_dones = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::SegmentDone { .. }))
            .count();
        assert_eq!(seg_dones, segments.len());

        // Timing: each acquisition happens exactly one crossing after the
        // previous one within a segment (uncontended header pipeline).
        let gen_time = trace.events[0].time;
        let mut expect = gen_time;
        let mut idx = 0;
        for seg in &segments {
            for (k, &chan) in seg.chans.iter().enumerate() {
                let ev = trace
                    .events
                    .iter()
                    .find(|e| matches!(e.kind, TraceEventKind::Acquired { chan: c } if c == chan))
                    .unwrap();
                if !(k == 0 && idx > 0) {
                    // Within a segment: exact pipeline timing.
                    assert!(
                        (ev.time - expect).abs() < 1e-9,
                        "chan {chan}: acquired {} expected {expect}",
                        ev.time
                    );
                }
                expect = ev.time + built.chan_time(chan);
                idx += 1;
            }
            // Segment finish = header end + (M−1)·bottleneck.
            let bot = seg
                .chans
                .iter()
                .map(|&c| built.chan_time(c))
                .fold(0.0f64, f64::max);
            expect += (m_flits as f64 - 1.0) * bot;
            // Next segment's header starts no earlier than the VCT start;
            // just track real acquisition time (checked above for k==0 via
            // the running expectation reset).
            let _ = expect;
        }
        // Delivered latency equals the recorded latency sink value.
        assert!((trace.latency().unwrap() - r.latency.mean).abs() < 1e-9);
    }

    #[test]
    fn tracing_off_keeps_results_empty_and_identical() {
        let s = spec();
        let wl = wl(2e-4);
        let base = run_simulation(&s, &wl, Pattern::Uniform, &tiny_cfg(6));
        let traced = run_simulation(
            &s,
            &wl,
            Pattern::Uniform,
            &SimConfig {
                trace_messages: 50,
                ..tiny_cfg(6)
            },
        );
        assert!(base.traces.is_empty());
        assert_eq!(traced.traces.len(), 50);
        // Tracing must not perturb the simulation.
        assert_eq!(base.latency, traced.latency);
        assert_eq!(base.sim_time, traced.sim_time);
    }

    #[test]
    fn percentiles_are_ordered_and_bracket_the_mean() {
        let r = run_simulation(
            &spec(),
            &wl(3e-4),
            Pattern::Uniform,
            &SimConfig {
                collect_percentiles: true,
                ..tiny_cfg(13)
            },
        );
        assert!(r.completed);
        let (p50, p95, p99) = r.percentiles.unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 <= r.latency.max && p99 <= r.latency.max);
        assert!(p50 >= r.latency.min);
        // The distribution is bimodal (fast intra vs slow inter messages),
        // so no mean/median ordering is asserted — only coherence bounds.
        // Disabled by default.
        let r2 = run_simulation(&spec(), &wl(3e-4), Pattern::Uniform, &tiny_cfg(13));
        assert!(r2.percentiles.is_none());
        // Collection must not perturb results.
        assert_eq!(r.latency, r2.latency);
    }

    #[test]
    fn warmup_audit_reports_without_perturbing() {
        let base = run_simulation(&spec(), &wl(3e-4), Pattern::Uniform, &tiny_cfg(17));
        assert!(base.warmup_audit.is_none());
        let audited = run_simulation(
            &spec(),
            &wl(3e-4),
            Pattern::Uniform,
            &SimConfig {
                audit_warmup: true,
                ..tiny_cfg(17)
            },
        );
        // Auditing is a pure side-channel.
        assert_eq!(base.latency, audited.latency);
        assert_eq!(base.sim_time, audited.sim_time);
        let audit = audited.warmup_audit.unwrap();
        assert_eq!(audit.configured_warmup, 200);
        assert!(audit.samples <= 2_200);
        assert!(audit.samples >= 2_000);
        assert!(audit.statistic.is_finite());
        // A 200-message warm-up at this light-to-moderate load is ample:
        // the detected transient must not outlast it.
        assert!(!audit.exceeds(), "truncation {}", audit.truncation);
    }

    #[test]
    fn zero_warmup_under_load_is_flagged() {
        // With no warm-up at a heavy load the measured stream starts in
        // the transient; MSER-5 must ask for a positive truncation.
        let cfg = SimConfig {
            warmup: 0,
            audit_warmup: true,
            ..tiny_cfg(18)
        };
        let r = run_simulation(&spec(), &wl(8e-4), Pattern::Uniform, &cfg);
        assert!(r.completed);
        let audit = r.warmup_audit.unwrap();
        assert!(
            audit.truncation > 0 && audit.exceeds(),
            "truncation {}",
            audit.truncation
        );
    }

    #[test]
    fn adaptive_routing_completes_and_stays_close_to_deterministic() {
        let det = run_simulation(&spec(), &wl(2e-4), Pattern::Uniform, &tiny_cfg(14));
        let ada = run_simulation(
            &spec(),
            &wl(2e-4),
            Pattern::Uniform,
            &SimConfig {
                adaptive_routing: true,
                ..tiny_cfg(14)
            },
        );
        assert!(det.completed && ada.completed);
        let rel = (det.latency.mean - ada.latency.mean).abs() / det.latency.mean;
        assert!(
            rel < 0.10,
            "det {} vs adaptive {}",
            det.latency.mean,
            ada.latency.mean
        );
    }

    #[test]
    fn channel_grants_are_fifo_among_traced_messages() {
        use crate::trace::TraceEventKind;
        // Heavy enough load that blocking occurs; FIFO arbitration means
        // that for any channel, messages that blocked on it are granted in
        // the order they blocked.
        let r = run_simulation(
            &spec(),
            &wl(1.5e-3),
            Pattern::Uniform,
            &SimConfig {
                trace_messages: 400,
                ..tiny_cfg(15)
            },
        );
        assert!(r.completed);
        // Collect (block_time, acquire_time) per (channel, message).
        let mut per_chan: std::collections::HashMap<u32, Vec<(f64, f64)>> =
            std::collections::HashMap::new();
        let mut any_blocked = false;
        for trace in &r.traces {
            let mut pending: std::collections::HashMap<u32, f64> = Default::default();
            for e in &trace.events {
                match e.kind {
                    TraceEventKind::Blocked { chan } => {
                        pending.insert(chan, e.time);
                    }
                    TraceEventKind::Acquired { chan } => {
                        if let Some(block_t) = pending.remove(&chan) {
                            any_blocked = true;
                            per_chan.entry(chan).or_default().push((block_t, e.time));
                        }
                    }
                    _ => {}
                }
            }
        }
        assert!(any_blocked, "load too light to exercise blocking");
        for (chan, mut grants) in per_chan {
            // Sort by block time; acquire times must then be sorted too.
            grants.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in grants.windows(2) {
                assert!(
                    w[1].1 >= w[0].1,
                    "channel {chan}: FIFO violated ({:?} then {:?})",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn per_cluster_stats_cover_all_clusters() {
        let r = run_simulation(&spec(), &wl(2e-4), Pattern::Uniform, &tiny_cfg(9));
        assert_eq!(r.per_cluster.len(), 4);
        let total: u64 = r.per_cluster.iter().map(|s| s.count).sum();
        assert_eq!(total, r.delivered_recorded);
        for s in &r.per_cluster {
            assert!(s.count > 0, "every cluster generates traffic");
        }
    }

    #[test]
    fn slab_keeps_live_messages_bounded() {
        // The message slab recycles delivered slots: at light load the
        // high-water mark must sit far below the generated population, and
        // the engine must report its event count.
        let r = run_simulation(&spec(), &wl(1e-4), Pattern::Uniform, &tiny_cfg(21));
        assert!(r.completed);
        assert!(r.events_processed > 0);
        assert!(r.peak_live_msgs >= 1);
        assert!(
            r.peak_live_msgs < r.generated / 4,
            "peak {} should be far below generated {}",
            r.peak_live_msgs,
            r.generated
        );
    }

    #[test]
    fn delivery_buffer_holds_only_same_instant_ties() {
        // Recorded deliveries reach the sinks as soon as the clock moves
        // past their instant, so the buffer's high-water mark is the
        // largest same-instant tie, not the recorded count. `clear()` keeps
        // the capacity, which therefore bounds the high-water mark from
        // above (growth only rounds it up).
        let built = BuiltSystem::build(&spec(), 256.0);
        let cfg = SimConfig {
            measured: 20_000,
            ..tiny_cfg(23)
        };
        let rate = 2e-4;
        let mut sim = Simulator::<false>::new(
            &built,
            &wl(rate),
            Pattern::Uniform,
            cfg,
            ArrivalSpec::Poisson { rate },
        );
        assert_eq!(sim.simulate(), StopReason::MeasuredComplete);
        assert_eq!(sim.recorded_done, 20_000);
        assert!(sim.deliveries.is_empty(), "the final flush empties it");
        assert!(
            sim.deliveries.capacity() <= 8,
            "buffer grew to {} for {} recorded deliveries",
            sim.deliveries.capacity(),
            sim.recorded_done
        );
    }

    #[test]
    fn channel_record_is_eight_bytes_and_msg_stays_small() {
        // The per-channel state is two FIFO links, and the link each
        // waiter carries must not grow the message record.
        assert_eq!(std::mem::size_of::<Chan>(), 8);
        let msg = std::mem::size_of::<Msg>();
        assert!(msg <= 88, "Msg grew to {msg} bytes");
    }

    #[test]
    fn busy_time_flushed_for_channels_still_busy_at_end() {
        // A run that stops at its measured count (or event cap) leaves
        // channels mid-crossing; their open busy interval must be counted.
        // With drain = 0 the run breaks exactly at the measured count while
        // traffic is still flowing, so some channel is busy at the break.
        let cfg = SimConfig {
            warmup: 0,
            drain: 0,
            ..tiny_cfg(22)
        };
        let r = run_simulation(&spec(), &wl(8e-4), Pattern::Uniform, &cfg);
        assert!(r.completed);
        for &b in &r.channel_busy {
            assert!(b >= 0.0);
            assert!(b <= r.sim_time * (1.0 + 1e-9));
        }
        let total: f64 = r.channel_busy.iter().sum();
        assert!(total > 0.0);
    }

    /// The injection channel of node 0's interned routes: failing it cuts
    /// node 0 off without rebuilding (timed faults bypass rerouting).
    fn node0_injection_channel(built: &BuiltSystem) -> u32 {
        let routes = built.route_table();
        let r = routes.route_ref(0, 1);
        let seg = routes.seg_meta(r, 0);
        routes.chan_at(seg.start)
    }

    #[test]
    fn timed_fault_retry_accounting_is_exact() {
        // Permanently fail node 0's injection link at t = 0 via the timed
        // schedule (routes stay fault-free, so traffic keeps running into
        // it). The run cannot complete its measured population — it must
        // drain gracefully with every message accounted for.
        let spec = spec();
        let wl = wl(2e-4);
        let built = BuiltSystem::build(&spec, wl.flit_bytes);
        let dead = node0_injection_channel(&built);
        let mut cfg = tiny_cfg(3);
        cfg.faults.events = vec![crate::config::FaultEvent {
            time: 0.0,
            link: dead,
            action: FaultAction::Fail,
        }];
        cfg.faults.max_attempts = 3;
        cfg.faults.retry_timeout = 50.0;
        cfg.faults.max_timeout = 200.0;
        let r = dispatch(
            &built,
            &wl,
            Pattern::Uniform,
            cfg.clone(),
            ArrivalSpec::Poisson { rate: wl.lambda_g },
        );
        assert!(!r.completed);
        assert_eq!(r.stop, crate::results::StopReason::Drained);
        assert!(r.dropped > 0);
        assert!(r.retransmits > 0);
        assert!(r.unreachable > 0);
        // Drained run: every generated message was delivered or written
        // off, and every drop became a retransmission or a write-off.
        assert_eq!(r.generated, r.delivered_total + r.unreachable);
        assert_eq!(r.dropped, r.retransmits + r.unreachable);
        // Each unreachable message burned exactly max_attempts drops.
        assert_eq!(r.dropped, r.unreachable * cfg.faults.max_attempts as u64);
    }

    #[test]
    fn repair_event_restores_delivery() {
        // Fail the same link but repair it early: with a generous retry
        // budget every dropped message eventually gets through, so the
        // run completes with retransmissions and zero write-offs.
        let spec = spec();
        let wl = wl(2e-4);
        let built = BuiltSystem::build(&spec, wl.flit_bytes);
        let dead = node0_injection_channel(&built);
        let mut cfg = tiny_cfg(4);
        cfg.faults.events = vec![
            crate::config::FaultEvent {
                time: 0.0,
                link: dead,
                action: FaultAction::Fail,
            },
            crate::config::FaultEvent {
                time: 50_000.0,
                link: dead,
                action: crate::config::FaultAction::Repair,
            },
        ];
        cfg.faults.max_attempts = 64;
        cfg.faults.retry_timeout = 100.0;
        cfg.faults.max_timeout = 800.0;
        let r = dispatch(
            &built,
            &wl,
            Pattern::Uniform,
            cfg,
            ArrivalSpec::Poisson { rate: wl.lambda_g },
        );
        assert!(r.completed, "repaired link must let the run complete");
        assert!(r.retransmits > 0, "pre-repair traffic must have retried");
        assert_eq!(r.unreachable, 0);
        assert_eq!(r.dropped, r.retransmits);
    }

    #[test]
    fn full_partition_terminates_gracefully() {
        // 100% static link failures: every destination is unreachable.
        // The run must drain (no spinning to the event cap) with all
        // messages written off at generation time.
        let mut cfg = tiny_cfg(5);
        cfg.faults.link_fraction = 1.0;
        let r = run_simulation(&spec(), &wl(1e-4), Pattern::Uniform, &cfg);
        assert!(!r.completed);
        assert_eq!(r.stop, crate::results::StopReason::Drained);
        assert!(r.generated > 0);
        assert_eq!(r.unreachable, r.generated);
        assert_eq!(r.delivered_total, 0);
        assert_eq!(r.dropped, 0, "statically dead pairs never enter the net");
        assert!(r.events_processed < cfg.max_events);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        // A mixed static + timed fault schedule must give bit-identical
        // results run after run.
        let spec = spec();
        let wl = wl(3e-4);
        let mut base = tiny_cfg(6);
        base.faults.link_fraction = 0.15;
        base.faults.fault_seed = 99;
        base.faults.max_attempts = 4;
        base.faults.retry_timeout = 50.0;
        let built = BuiltSystem::try_build_with(
            &spec,
            wl.flit_bytes,
            cocnet_topology::AscentPolicy::default(),
            &base.faults,
        )
        .unwrap();
        // Fail the injection link of the first still-reachable pair at
        // t = 2000 (the static mask may already have killed (0, 1)).
        let routes = built.route_table();
        let live = (0..24)
            .flat_map(|s| (0..24).map(move |d| (s, d)))
            .find(|&(s, d)| s != d && !routes.is_unreachable(s, d))
            .expect("15% faults leave live pairs");
        let seg = routes.seg_meta(routes.route_ref(live.0, live.1), 0);
        let dead = routes.chan_at(seg.start);
        base.faults.events = vec![crate::config::FaultEvent {
            time: 2_000.0,
            link: dead,
            action: FaultAction::Fail,
        }];
        let a = run_simulation_built(&built, &wl, Pattern::Uniform, &base);
        let b = run_simulation_built(&built, &wl, Pattern::Uniform, &base);
        assert_eq!(a.latency.mean.to_bits(), b.latency.mean.to_bits());
        assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits());
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.retransmits, b.retransmits);
        assert_eq!(a.unreachable, b.unreachable);
        assert_eq!(a.delivered_total, b.delivered_total);
    }

    #[test]
    fn adaptive_retransmissions_reroute_around_timed_faults() {
        // Adaptive messages re-draw their ascent on retransmit, so even a
        // permanently failed fabric link only costs retries, not messages,
        // as long as an alternate ascent exists.
        let spec = spec();
        let wl = wl(2e-4);
        let built = BuiltSystem::build(&spec, wl.flit_bytes);
        // Fail a switch-to-switch link inside cluster 2's ICN1 (n = 2):
        // the second hop of an intra-cluster route with an alternate up.
        let routes = built.route_table();
        let r02 = routes.route_ref(8, 15);
        let seg = routes.seg_meta(r02, 0);
        let fabric = routes.chan_at(seg.start + 1);
        let mut cfg = tiny_cfg(7);
        cfg.adaptive_routing = true;
        cfg.faults.events = vec![crate::config::FaultEvent {
            time: 0.0,
            link: fabric,
            action: FaultAction::Fail,
        }];
        cfg.faults.max_attempts = 64;
        cfg.faults.retry_timeout = 20.0;
        let r = dispatch(
            &built,
            &wl,
            Pattern::Uniform,
            cfg,
            ArrivalSpec::Poisson { rate: wl.lambda_g },
        );
        assert!(r.completed, "alternate ascents must rescue adaptive runs");
        assert_eq!(r.unreachable, 0);
    }
}
