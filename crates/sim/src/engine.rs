//! The discrete-event wormhole engine.
//!
//! These event kinds drive the simulation:
//!
//! * a node's arrival — its Poisson process fires: build the message,
//!   inject it into its first channel's FIFO, and draw the next arrival
//!   one step after this one;
//! * `Advance(msg)` — the message's header finished crossing a channel:
//!   request the next channel (possibly across a segment boundary), or
//!   complete delivery;
//! * `Release(chan)` — a message's tail fully crossed a channel: hand the
//!   channel to the next queued message, or mark it free;
//! * `Request(msg)` — a header that had to wait at a network boundary
//!   (store-and-forward buffering, or the virtual cut-through start)
//!   requests its next channel;
//! * `Fault(link)` — a timed fault-schedule entry fails or repairs a link;
//! * `Retransmit(msg)` — a dropped message's retry timeout expired.
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
//! # Deferred no-op events
//!
//! Two kinds of event change nothing when they fire but a count, and the
//! engine keeps them off the list:
//!
//! * a **release nobody waits for** — at a segment's end, and when a
//!   dropped message gives back its channels, each release takes its
//!   sequence number where scheduling it would, but if nobody waits for
//!   the channel, its `(time, seq)` key is kept with the channel's held
//!   record (`held.rs`) instead of pushed. A later request for the channel
//!   compares that key with the key of the event it handles: a release
//!   keyed before it has happened, so it is resolved (counted, busy time
//!   accrued at its own time) and the channel granted; a later one goes
//!   onto the list under its own key, and the requester waits for it, so
//!   the hand-off happens exactly where popping every release would make
//!   it. Before the held table would double, the releases keyed before
//!   the current event are purged;
//! * an **arrival after the last generation** — once the whole population
//!   is generated, every arrival left in the band would return at once,
//!   so the loop stops popping the band.
//!
//! Everything [`SimResults`] reports stays what popping every event would
//! give, bit for bit: [`SimResults::events_processed`] counts each
//! deferred event once, where the eager loop would have popped it. When
//! the run stops, the deferred events keyed before the stopping event are
//! counted and resolved; a drained run resolves all of them and ends at
//! the latest, as the eager loop's last pop would. Once the event cap
//! could fall among the deferred events, the engine stops deferring, so
//! the loop stops at the cap exactly where the eager loop does.
//!
//! # No-allocation invariant
//!
//! The event loop is **allocation-free in steady state**, and every change
//! to it must keep it that way:
//!
//! * deterministic routes are never built per message — messages carry a
//!   [`RouteRef`] into the [`BuiltSystem`]'s interned [`RouteTable`]
//!   (channel ids in one flat array, per-segment `sum_t`/`bottleneck_t`
//!   precomputed at build time); an adaptive message's route is built
//!   into the [`AdaptiveRouteCache`] entry of its slab slot (a
//!   [`RouteRef::adaptive`] reference), reusing that entry's buffers, so
//!   the store holds no more routes than the slab has slots;
//! * `Msg` is a small `Copy` record; delivered messages push their slab
//!   slot onto a free list, so the live-message footprint is bounded by
//!   the peak in-flight population (reported as
//!   [`SimResults::peak_live_msgs`]), not by the run length;
//! * the event lists retain their capacity, and only a *held* channel has
//!   an arbitration record: a 12-byte entry in the held-channel table
//!   (`held.rs`), whose FIFO of waiting headers links through the message
//!   slab. The table grows only while it fills up to the run's held-set
//!   peak, then keeps its capacity, so a warmed-up loop performs no
//!   allocator calls, and nothing in the engine is sized by the channel
//!   count (the live fault mask aside, which timed faults need);
//! * per-channel busy time ([`SimResults::channel_busy`]) is kept only
//!   when the run asks for it ([`SimConfig::collect_channel_busy`]);
//! * a channel's transfer time is read from its network's two times
//!   (`t_cn`, `t_cs`), through the network its message's current segment
//!   records ([`SegMeta::net`]): O(1), and no per-channel table of times
//!   exists at all;
//! * a node's next arrival is drawn one step after the band time it pops
//!   at ([`ArrivalStreams`]), so a Poisson run holds no per-node arrival
//!   state, and an on/off run only each node's ON/OFF phase;
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
//! [`SimResults::events_processed`]: crate::results::SimResults::events_processed
//! [`SegMeta::net`]: crate::build::SegMeta::net
//! [`SimResults::channel_busy`]: crate::results::SimResults::channel_busy

use crate::build::{AdaptiveRouteCache, BuiltSystem, NetTimes, RouteRef, RouteTable, SegMeta};
use crate::config::{Coupling, FaultMask, SimConfig};
use crate::events::{key_lt, ArrivalBand, EventQueue, Merged, Scheduler};
use crate::held::{HeldChans, FREE, HELD, PENDING, WAITER};
use crate::results::{delivery_order, BusyTime, Counters, Delivery, SimResults, Sinks, StopReason};
use crate::trace::{MessageTrace, TraceEvent, TraceEventKind};
use cocnet_model::Workload;
use cocnet_topology::SystemSpec;
use cocnet_workloads::{cluster_offsets, ArrivalSpec, ArrivalStreams, Pattern};
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

/// One in-flight message: a slab slot's worth of `Copy` state. The route
/// itself lives in the interned table (or the adaptive route store); the
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
    /// Interned route, or the adaptive route in this slot's store entry.
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
    /// [`WAITER`], or [`HELD`] for the last one (see [`Held`]).
    ///
    /// [`Held`]: crate::held::Held
    next: u32,
}

const UNTRACED: u32 = u32::MAX;

impl Msg {
    /// Placeholder for freshly grown slab slots (overwritten before use).
    const VACANT: Msg = Msg {
        gen_time: 0.0,
        prev_finish: 0.0,
        cur: SegMeta::EMPTY,
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
    /// Per-flit channel times of every network, indexed by
    /// [`SegMeta::net`].
    nets: &'a [NetTimes],
    /// The nodes' arrival streams: each steps from the band time it popped
    /// at, so they hold nothing per node under Poisson traffic.
    arrivals: ArrivalStreams,
    /// Each node's pending arrival (the node id), numbered from `queue`'s
    /// sequence counter: the first arrivals in a sorted cursor, later
    /// draws in a heap.
    arrival_band: ArrivalBand<u32>,
    /// The arrivals left in the band once the population is generated
    /// while deferring: each is a no-op, so the loop no longer pops them,
    /// and they are counted where they would have popped.
    spent_arrivals: ArrivalBand<u32>,
    pattern: Pattern,
    /// The node layout destination draws read (see [`cluster_offsets`]).
    layout: Vec<usize>,
    rng: StdRng,
    /// The future-event list: events of messages in flight only.
    queue: EventQueue<EventKind>,
    /// Arbitration records of the held channels, with the releases
    /// deferred beside the list; a channel without a record is free.
    held: HeldChans,
    /// Whether no-op events are kept off the list (see the module doc);
    /// false once the event cap could fall among them.
    deferring: bool,
    /// `(time, seq)` of the event being handled.
    key: (f64, u64),
    /// Message slab; `free` holds the slots of delivered messages.
    msgs: Vec<Msg>,
    free: Vec<u32>,
    /// The adaptive routes of this run, one per slab slot: a message's
    /// route lives in its slot's entry.
    route_cache: AdaptiveRouteCache,
    now: f64,
    /// Recorded deliveries so far, counted at once (the stop rule reads
    /// it) while their sink accumulation waits in `deliveries`.
    recorded_done: u64,
    counters: Counters,
    faults: FaultMask,
    /// Per-channel busy time, when the run asks for it.
    busy: Option<BusyTime>,
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
            nets: built.net_times(),
            arrivals: ArrivalStreams::new(arrival, built.total_nodes()),
            arrival_band: ArrivalBand::default(),
            spent_arrivals: ArrivalBand::default(),
            pattern,
            layout: cluster_offsets(built.spec()),
            rng: StdRng::seed_from_u64(cfg.seed),
            queue: EventQueue::new(),
            held: HeldChans::default(),
            deferring: true,
            key: (f64::NEG_INFINITY, 0),
            msgs: Vec::new(),
            free: Vec::new(),
            route_cache: AdaptiveRouteCache::default(),
            now: 0.0,
            recorded_done: 0,
            counters: Counters::default(),
            faults: FaultMask::new(built, &cfg.faults),
            busy: cfg
                .collect_channel_busy
                .then(|| BusyTime::new(built.num_channels())),
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

    /// Draws an adaptive route from `src` to `dst` into the route-store
    /// entry of slab slot `slot`: its reference, first segment and segment
    /// count.
    fn draw_adaptive(&mut self, slot: u32, src: usize, dst: usize) -> (RouteRef, SegMeta, u8) {
        let store = &mut self.route_cache;
        store.draw(self.built, slot, src, dst, &mut self.rng);
        let route = store.route(slot);
        (RouteRef::adaptive(slot), route.segs[0], route.nsegs)
    }

    /// Seeds the fault schedule and the first arrival of every node.
    /// Faults are scheduled first so a `t = 0` failure is in force before
    /// any traffic moves. The first arrivals are drawn in node order, one
    /// step after `t = 0`, and sorted once into the band's cursor.
    fn prime(&mut self) {
        self.cfg.faults.schedule_timed(
            &mut self.queue,
            |_| true,
            |link, fail| EventKind::Fault { link, fail },
        );
        let (arrivals, rng) = (&mut self.arrivals, &mut self.rng);
        let first = (0..self.built.total_nodes() as u32)
            .map(|node| (arrivals.next_after(node as usize, 0.0, rng), node));
        self.arrival_band.prime(&mut self.queue, first);
    }

    /// Draws `node`'s next arrival, one step after its arrival at `t`,
    /// into the arrival band.
    fn schedule_arrival(&mut self, node: u32, t: f64) {
        let time = self.arrivals.next_after(node as usize, t, &mut self.rng);
        debug_assert!(time >= t, "arrival streams move forward");
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
        let stop = loop {
            // Counting every deferred event before the next one could pass
            // the cap: from here on every event goes through the list.
            if self.deferring
                && self.counters.events_processed + self.deferred() >= self.cfg.max_events
            {
                self.stop_deferring();
            }
            let Some(next) = self.arrival_band.pop_merged(&mut self.queue) else {
                // The list ran dry: every message was delivered or written
                // off — graceful degradation, not a hang. The deferred
                // events would pop last, so the run ends at the latest.
                let last_spent = self.spent_arrivals.max_time().unwrap_or(f64::NEG_INFINITY);
                let last_release = self.resolve_deferred_before((f64::INFINITY, u64::MAX));
                self.now = self.now.max(last_spent).max(last_release);
                break StopReason::Drained;
            };
            let (t, seq) = next.key();
            self.counters.events_processed += 1;
            if self.counters.events_processed > self.cfg.max_events {
                break StopReason::EventCap;
            }
            debug_assert!(t >= self.now - 1e-9, "time must not run backwards");
            // Every buffered delivery popped before this instant: no later
            // delivery can tie with them, so their order is final.
            if self.deliveries.last().is_some_and(|d| t > d.t) {
                self.flush_deliveries();
            }
            self.now = t;
            self.key = (t, seq);
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
                self.resolve_deferred_before(self.key);
                break StopReason::MeasuredComplete;
            }
        };
        self.flush_deliveries();
        stop
    }

    /// Number of deferred events: pending releases and spent arrivals.
    #[inline]
    fn deferred(&self) -> u64 {
        (self.held.pending_len() + self.spent_arrivals.len()) as u64
    }

    /// Counts and resolves the deferred events keyed before `key`, which
    /// popping every event would have popped by now: a pending release
    /// accrues its channel's busy time at its own time and frees the
    /// channel, and a spent arrival is taken from its band. Returns the
    /// latest release time among them (−∞ if none).
    ///
    /// No cap check is needed: the loop stops deferring before the count
    /// of every event popped or deferred could reach the cap.
    fn resolve_deferred_before(&mut self, key: (f64, u64)) -> f64 {
        let (counters, busy) = (&mut self.counters, &mut self.busy);
        let mut latest = f64::NEG_INFINITY;
        self.held.purge_before(key, |r| {
            resolve_release(counters, busy, r.chan, r.free_at);
            latest = latest.max(r.free_at);
        });
        self.counters.events_processed += self.spent_arrivals.take_before(key) as u64;
        latest
    }

    /// Stops deferring, once the event cap could fall among the deferred
    /// events: those keyed before the last handled event are resolved, the
    /// later releases go onto the list under their own keys, the spent
    /// arrivals back into the band the loop pops, and later releases are
    /// scheduled at once. The loop then pops every event, so it stops at
    /// the cap exactly where the eager loop stops.
    fn stop_deferring(&mut self) {
        self.resolve_deferred_before(self.key);
        let queue = &mut self.queue;
        self.held.take_all_pending(|r| {
            queue.schedule_reserved(r.free_at, r.seq, EventKind::Release { chan: r.chan });
        });
        if !self.spent_arrivals.is_empty() {
            // Nothing is drawn once the population is generated, so the
            // band the loop pops is empty.
            self.arrival_band = std::mem::take(&mut self.spent_arrivals);
        }
        self.deferring = false;
    }

    /// The run's results, once [`Self::simulate`] has returned.
    fn results(self, stop: StopReason) -> SimResults {
        let held = self.held.iter().map(|&[chan, ..]| chan);
        let busy = self
            .busy
            .map_or_else(Vec::new, |busy| busy.finish(self.now, held));
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
            self.schedule_release(held, t);
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
            self.draw_adaptive(msg_id, m.src as usize, m.dst as usize)
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
            self.next_arrival(node, t);
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
            self.draw_adaptive(slot, src, dst)
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
        self.next_arrival(node, t);
    }

    /// Keeps `node` generating until the population is complete. From
    /// then on every arrival left in the band is a no-op, so while
    /// deferring they are set aside as spent.
    fn next_arrival(&mut self, node: u32, t: f64) {
        if self.counters.generated < self.cfg.total_messages() {
            self.schedule_arrival(node, t);
        } else if self.deferring {
            self.spent_arrivals = std::mem::take(&mut self.arrival_band);
        }
    }

    /// Per-flit time of channel `chan` under the header of message
    /// `msg_id`: its current segment's network's.
    #[inline]
    fn cross_time(&self, msg_id: u32, chan: u32) -> f64 {
        self.nets[self.msgs[msg_id as usize].cur.net as usize].time(chan)
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
        let slot = self.held.find(chan);
        let waits = match self.held.head(slot) {
            FREE => {
                self.hold(slot, chan);
                false
            }
            PENDING => self.settle_pending(slot, chan),
            _ => true,
        };
        if waits {
            // Join the FIFO as its last waiter.
            let link = msg_id + WAITER;
            self.msgs[msg_id as usize].next = HELD;
            let [_, head, tail] = self.held.get_mut(slot);
            if *head == HELD {
                *head = link;
            } else {
                self.msgs[(*tail - WAITER) as usize].next = link;
            }
            *tail = link;
            if TRACE {
                let trace_id = self.msgs[msg_id as usize].trace_id;
                self.trace(trace_id, t, TraceEventKind::Blocked { chan });
            }
        } else {
            let cross = self.cross_time(msg_id, chan);
            if let Some(busy) = &mut self.busy {
                busy.grant(chan, t);
            }
            self.queue
                .schedule(t + cross, EventKind::Advance { msg: msg_id });
            if TRACE {
                let trace_id = self.msgs[msg_id as usize].trace_id;
                self.trace(trace_id, t, TraceEventKind::Acquired { chan });
            }
        }
    }

    /// Gives the free channel `chan` a record in `slot`, the empty slot
    /// [`HeldChans::find`] returned for it. Before the table would double,
    /// the releases keyed before the event being handled are resolved,
    /// which frees their channels' records.
    #[inline]
    fn hold(&mut self, mut slot: usize, chan: u32) {
        if self.held.is_full() {
            let (key, counters, busy) = (self.key, &mut self.counters, &mut self.busy);
            self.held.make_room(key, |r| {
                resolve_release(counters, busy, r.chan, r.free_at);
            });
            slot = self.held.find(chan);
        }
        self.held.insert(slot, [chan, HELD, 0]);
    }

    /// A request meets the pending release of `chan` (in `slot`). If the
    /// release is keyed before the event being handled, it has happened:
    /// it is resolved, and the channel is free, its record now the
    /// requester's. Otherwise the release goes onto the list under its own
    /// key. Returns whether the requester must wait for it.
    fn settle_pending(&mut self, slot: usize, chan: u32) -> bool {
        let (free_at, seq) = self.held.take_pending(slot);
        if key_lt((free_at, seq), self.key) {
            resolve_release(&mut self.counters, &mut self.busy, chan, free_at);
            false
        } else {
            self.queue
                .schedule_reserved(free_at, seq, EventKind::Release { chan });
            true
        }
    }

    /// Schedules `chan`'s release at `free_at`, numbered where `schedule`
    /// would number it. While deferring, a release nobody waits for is
    /// kept with the channel's record instead of on the list.
    #[inline]
    fn schedule_release(&mut self, chan: u32, free_at: f64) {
        let seq = self.queue.reserve_seq();
        if self.deferring {
            let slot = self.held.find(chan);
            if self.held.head(slot) == HELD {
                self.held.defer(slot, free_at, seq);
                return;
            }
        }
        self.queue
            .schedule_reserved(free_at, seq, EventKind::Release { chan });
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
        let times = self.nets[m.cur.net as usize];
        let mut suffix = 0.0;
        for k in (0..m.cur.len).rev() {
            let chan = self.seg_chan(msg_id, k);
            let release = (finish - suffix).max(t);
            self.schedule_release(chan, release);
            suffix += times.time(chan);
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
        if let Some(busy) = &mut self.busy {
            busy.accrue(chan, t);
        }
        let slot = self.held.find(chan);
        debug_assert!(self.held.is_held(slot), "releasing a free channel");
        debug_assert_ne!(self.held.head(slot), PENDING, "a deferred release popped");
        loop {
            let head = &mut self.held.get_mut(slot)[1];
            if *head == HELD {
                self.held.remove(slot);
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
            // Grant to the next waiting header, which waits in its current
            // segment; the channel stays busy.
            let cross = self.cross_time(next, chan);
            if let Some(busy) = &mut self.busy {
                busy.grant(chan, t);
            }
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

/// Counts a deferred release where popping it would have counted it, and
/// ends its channel's busy interval at the release's own time.
#[inline]
fn resolve_release(counters: &mut Counters, busy: &mut Option<BusyTime>, chan: u32, free_at: f64) {
    counters.events_processed += 1;
    if let Some(busy) = busy {
        busy.accrue(chan, free_at);
    }
}

/// Runs one simulation of `spec` under workload `wl` and traffic `pattern`,
/// on the system `cfg` describes: its static faults and its route-interning
/// mode.
///
/// Latency is measured from generation time-stamp to complete delivery of
/// the tail flit at the destination sink, exactly as in the paper's §4.
///
/// # Panics
/// If the system does not build under `cfg`, as
/// [`BuiltSystem::for_config`] says.
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
    let built = BuiltSystem::for_config(spec, wl.flit_bytes, cfg);
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
            coupling: Coupling::default(),
            flit_buffer_depth: 1,
            trace_messages: 0,
            adaptive_routing: false,
            collect_percentiles: false,
            collect_channel_busy: false,
            audit_warmup: false,
            faults: crate::config::FaultSchedule::default(),
            shards: crate::config::ShardMode::Off,
            interning: crate::config::InternMode::default(),
        }
    }

    #[test]
    #[should_panic(expected = "sim.interning")]
    fn run_simulation_builds_the_interning_mode_its_config_names() {
        // 32 clusters of 2048 nodes (m = 8, n = 5): 65 536 nodes, one past
        // the eager table's budget. A run that asks for the eager table
        // must get it, so it fails on the budget, naming the field,
        // before anything is built.
        let net = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
        let cluster = ClusterSpec {
            n: 5,
            icn1: net,
            ecn1: net,
            topology: Default::default(),
        };
        let big = SystemSpec::new(8, vec![cluster; 32], net).unwrap();
        assert!(big.total_nodes() > crate::build::EAGER_MAX_NODES);
        let cfg = SimConfig {
            interning: crate::config::InternMode::Eager,
            ..tiny_cfg(1)
        };
        run_simulation(&big, &wl(1e-4), Pattern::Uniform, &cfg);
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
    fn adaptive_route_store_is_bounded_by_the_slab() {
        // An adaptive message's route lives in its slab slot's entry, so
        // the store follows the live population, not the generated one.
        let built = BuiltSystem::build(&cocnet_workloads::presets::org_544(), 256.0);
        let rate = 2e-4;
        let cfg = SimConfig {
            adaptive_routing: true,
            ..tiny_cfg(14)
        };
        let mut sim = Simulator::<false>::new(
            &built,
            &wl(rate),
            Pattern::Uniform,
            cfg,
            ArrivalSpec::Poisson { rate },
        );
        assert_eq!(sim.simulate(), StopReason::MeasuredComplete);
        let (routes, slots) = (sim.route_cache.len(), sim.msgs.len());
        assert!(routes <= slots, "{routes} routes for {slots} slab slots");
        assert!(sim.counters.generated > 10 * slots as u64);
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
    fn held_table_and_pending_releases_follow_the_live_traffic() {
        // Deferred releases keep their channels' records until a request
        // or a purge resolves them, and a purge runs before the table
        // would double; so on org_544 up to past its knee the table and
        // the slab of pending releases stay a small fraction of the
        // system's 9 568 channels, however many of them a run touches.
        let built = BuiltSystem::build(&cocnet_workloads::presets::org_544(), 256.0);
        for rate in [2e-4, 5e-4, 8e-4] {
            let cfg = SimConfig {
                measured: 20_000,
                ..tiny_cfg(24)
            };
            let mut sim = Simulator::<false>::new(
                &built,
                &wl(rate),
                Pattern::Uniform,
                cfg,
                ArrivalSpec::Poisson { rate },
            );
            assert_eq!(sim.simulate(), StopReason::MeasuredComplete);
            let (capacity, slab) = (sim.held.capacity(), sim.held.slab_len());
            assert!(
                capacity <= 1_024,
                "λ = {rate}: {capacity} slots for {} channels",
                built.num_channels()
            );
            assert!(slab <= capacity / 2, "λ = {rate}: slab of {slab}");
        }
    }

    #[test]
    fn held_channel_record_is_twelve_bytes_and_msg_stays_small() {
        // A held channel's state is its id and two FIFO links, and the
        // link each waiter carries must not grow the message record; the
        // network a segment records sits in what was `SegMeta`'s padding.
        assert_eq!(std::mem::size_of::<crate::held::Held>(), 12);
        assert_eq!(std::mem::size_of::<SegMeta>(), 32);
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
            collect_channel_busy: true,
            ..tiny_cfg(22)
        };
        let built = BuiltSystem::build(&spec(), 256.0);
        let r = run_simulation_built(&built, &wl(8e-4), Pattern::Uniform, &cfg);
        assert!(r.completed);
        assert_eq!(r.channel_busy.len(), built.num_channels());
        for &b in &r.channel_busy {
            assert!(b >= 0.0);
            assert!(b <= r.sim_time * (1.0 + 1e-9));
        }
        let total: f64 = r.channel_busy.iter().sum();
        assert!(total > 0.0);
        // A run that does not ask gets an empty vector, and the same
        // results otherwise.
        let plain = SimConfig {
            collect_channel_busy: false,
            ..cfg
        };
        let plain = run_simulation_built(&built, &wl(8e-4), Pattern::Uniform, &plain);
        assert!(plain.channel_busy.is_empty());
        assert_eq!(
            SimResults {
                channel_busy: Vec::new(),
                ..r
            },
            plain
        );
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
    fn static_faults_drop_nothing_on_either_route_kind() {
        // Every route avoids the static mask at build time — an adaptive
        // one from its drawn up-ports — so a static-only schedule drops
        // and retransmits nothing: messages are delivered or written off
        // as unreachable at generation.
        let net = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
        let c = ClusterSpec {
            n: 3,
            icn1: net,
            ecn1: net,
            topology: Default::default(),
        };
        let spec = SystemSpec::new(4, vec![c; 8], net).unwrap();
        let wl = wl(2e-4);
        for adaptive_routing in [false, true] {
            let mut cfg = tiny_cfg(5);
            cfg.adaptive_routing = adaptive_routing;
            cfg.faults.link_fraction = 0.1;
            let r = run_simulation(&spec, &wl, Pattern::Uniform, &cfg);
            assert_eq!(
                (r.dropped, r.retransmits),
                (0, 0),
                "adaptive {adaptive_routing}"
            );
            assert!(r.unreachable > 0, "10% of the links cut some pairs");
            assert_eq!(r.generated, r.delivered_total + r.unreachable);
        }
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
