//! Intra-run parallel simulation: the worm event loop sharded by cluster
//! with conservative lookahead synchronization, bit-identical to the
//! serial oracle.
//!
//! # Partition
//!
//! The paper's two-level structure gives a natural cut: every ICN1 and
//! ECN1 channel belongs to exactly one cluster, and the ICN2 fabric joins
//! them. Clusters are grouped into contiguous *shards* (plus one *hub*
//! shard owning ICN2), each running its own future-event list over its
//! own channels and nodes. Intra-cluster messages never leave their
//! shard; an inter-cluster message hops shard → hub → shard at its
//! segment boundaries.
//!
//! # Conservative synchronization
//!
//! The minimum crossing time Δ of the inter-cluster fabric (every ECN1
//! and ICN2 channel — [`BuiltSystem::min_intercluster_channel_time`]) is
//! a guaranteed lower bound on cross-shard latency, i.e. a classic
//! Chandy–Misra/YAWNS lookahead. Shards advance in lockstep windows
//! `[t, t + Δ)` where `t` jumps to the global minimum next-event time
//! (so sparse phases cost one barrier per event, not per Δ). The key
//! invariant making Δ usable despite zero-latency segment handoffs:
//! a segment-boundary continuation is *pre-announced* when the final
//! channel of the segment is **granted** — a grant is irrevocable
//! (faults affect acquisitions, never in-flight crossings), the
//! boundary's outcome is a pure function of state known at grant time,
//! and the final crossing itself takes ≥ Δ, so the announcement always
//! reaches the receiving shard a full window before it is due. Under
//! timed fault schedules the retry timeout also bounds cross-shard
//! retransmission latency, so Δ additionally shrinks to it.
//!
//! # Bit-identical determinism
//!
//! Sharded results are a deterministic function of the configuration —
//! independent of shard count and thread interleaving — and f64-bit-equal
//! to the serial engine:
//!
//! * **RNG**: all randomness (arrival times, destinations, adaptive
//!   ascent digits) is consumed in `(time, seq)` order of Generate
//!   events only, so a cheap serial pre-pass (the *generation oracle*)
//!   replays the exact serial draw order and hands each shard its nodes'
//!   arrival streams, routes included.
//! * **Transfers** are merged in a fixed order — `(time, src shard,
//!   src sequence)` — so barrier exchange is schedule-independent.
//! * **Statistics** are not accumulated shard-locally: recorded
//!   deliveries are logged with their delivery times and pushed through
//!   the run's one set of sinks at the coordinator, in the canonical
//!   `(time, src, gen_time)` delivery order the serial engine also
//!   follows, reproducing its accumulation order exactly.
//! * **Stopping** is reconstructed, not approximated: shards overrun the
//!   stop inside the final window, and a per-window journal (an undo map
//!   for busy state plus a redo log of counter events) rolls every shard
//!   back to the exact serial stop — the event that delivered the
//!   `measured`-th recorded message, or the event-cap pop.
//!
//! The only field excluded from bit-identity is
//! [`SimResults::peak_live_msgs`], which becomes the max over shard-local
//! slabs (each shard only sees its resident messages).
//!
//! Exact f64 time ties between events of *unrelated* messages on
//! different shards are assumed absent (arrival times are continuous, so
//! such ties have measure zero); all systematic same-time cascades stay
//! within one shard or are independent across channels, as pinned by the
//! cross-engine property tests.
//!
//! Runs that cannot shard losslessly fall back to the serial engine:
//! traced runs (trace ids are global), adaptive routing under fault
//! schedules (retransmissions re-draw ascent digits mid-run in a
//! state-dependent order no oracle can pre-play), and degenerate
//! configurations (a single cluster, an empty measured population).

use crate::build::{
    AdaptiveRouteCache, AdaptiveScratch, BuiltSystem, RouteRef, RouteTable, SegMeta,
};
use crate::config::{Coupling, FaultMask, ShardMode, SimConfig};
use crate::events::{EventQueue, Scheduler};
use crate::results::{delivery_order, BusyTime, Counters, Delivery, SimResults, Sinks, StopReason};
use cocnet_model::Workload;
use cocnet_workloads::{cluster_offsets, ArrivalProcess, ArrivalSpec, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Whether this configuration can run sharded and bit-identical; callers
/// fall back to the serial engine otherwise.
pub(crate) fn sharding_eligible(built: &BuiltSystem, cfg: &SimConfig) -> bool {
    let faulted = !cfg.faults.events.is_empty()
        || !cfg.faults.links.is_empty()
        || cfg.faults.link_fraction > 0.0;
    !matches!(cfg.shards, ShardMode::Off)
        && cfg.trace_messages == 0
        && cfg.measured > 0
        && built.spec().num_clusters() >= 2
        && !(cfg.adaptive_routing && faulted)
}

// ---------------------------------------------------------------------------
// Generation oracle
// ---------------------------------------------------------------------------

/// One Generate-event pop of the serial run, pre-played: everything the
/// event would have drawn from the global RNG, in the exact serial order.
#[derive(Debug, Clone, Copy)]
struct ArrivalRec {
    time: f64,
    /// Destination node; `u32::MAX` marks a no-op pop (population
    /// already complete when this arrival fired).
    dst: u32,
    /// Destination statically partitioned away (write-off at generation).
    unreachable: bool,
    recorded: bool,
    audited: bool,
    /// Interned route, or an index into the oracle's shared adaptive
    /// route cache.
    route: RouteRef,
}

const NOOP: u32 = u32::MAX;

/// The serial generation pre-pass: per-node arrival streams plus the
/// shared read-only adaptive route arena.
struct Oracle {
    streams: Vec<Vec<ArrivalRec>>,
    cache: AdaptiveRouteCache,
}

/// Replays the serial engine's RNG consumption. Randomness is drawn only
/// while processing arrivals, which the serial engine pops in
/// `(time, seq)` order among themselves regardless of interleaved
/// traffic events (a scheduler seq restriction preserves relative
/// order), so a plain `(time, seq)` queue over arrivals reproduces the
/// serial stream exactly — including the draw-free no-op pops after the
/// population completes.
fn build_oracle(
    built: &BuiltSystem,
    pattern: &Pattern,
    cfg: &SimConfig,
    arrival: &ArrivalSpec,
) -> Oracle {
    let n = built.total_nodes();
    let layout = cluster_offsets(built.spec());
    let routes = built.route_table();
    let total = cfg.total_messages();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut arrivals: Vec<ArrivalProcess> = vec![arrival.build(); n];
    let mut streams: Vec<Vec<ArrivalRec>> = vec![Vec::new(); n];
    let mut cache = AdaptiveRouteCache::default();
    let mut scratch = AdaptiveScratch::default();
    let mut q = EventQueue::<u32>::new();
    // Initial arrivals draw in node order, exactly as `prime` does.
    for (node, a) in arrivals.iter_mut().enumerate() {
        let t = a.next_arrival(&mut rng);
        q.schedule(t, node as u32);
    }
    let mut generated = 0u64;
    while let Some(ev) = q.pop() {
        let node = ev.kind as usize;
        let t = ev.time;
        if generated >= total {
            streams[node].push(ArrivalRec {
                time: t,
                dst: NOOP,
                unreachable: false,
                recorded: false,
                audited: false,
                route: RouteRef::adaptive(0),
            });
            continue;
        }
        let dst = pattern.sample_in(&layout, node, &mut rng);
        let gidx = generated;
        if routes.is_unreachable(node, dst) {
            generated += 1;
            streams[node].push(ArrivalRec {
                time: t,
                dst: dst as u32,
                unreachable: true,
                recorded: false,
                audited: false,
                route: RouteRef::adaptive(0),
            });
            if generated < total {
                let next = arrivals[node].next_arrival(&mut rng);
                q.schedule(next, node as u32);
            }
            continue;
        }
        let recorded = gidx >= cfg.warmup && gidx < cfg.warmup + cfg.measured;
        let audited = cfg.audit_warmup && gidx < cfg.warmup + cfg.measured;
        let route = if cfg.adaptive_routing {
            RouteRef::adaptive(cache.route_idx(built, node, dst, &mut rng, &mut scratch))
        } else {
            routes.route_ref(node, dst)
        };
        generated += 1;
        streams[node].push(ArrivalRec {
            time: t,
            dst: dst as u32,
            unreachable: false,
            recorded,
            audited,
            route,
        });
        if generated < total {
            let next = arrivals[node].next_arrival(&mut rng);
            q.schedule(next, node as u32);
        }
    }
    Oracle { streams, cache }
}

// ---------------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------------

/// The cluster-group / hub partition: who owns which node and channel.
struct Partition {
    /// Number of cluster groups; the hub shard's id equals `groups`.
    groups: u32,
    node_shard: Vec<u32>,
    chan_shard: Vec<u32>,
    /// Contiguous global node range per shard (empty for the hub).
    shard_nodes: Vec<std::ops::Range<u32>>,
}

impl Partition {
    fn new(built: &BuiltSystem, mode: ShardMode) -> Partition {
        let c = built.spec().num_clusters();
        let groups = match mode {
            ShardMode::Off => unreachable!("caller checked eligibility"),
            ShardMode::Auto => c as u32,
            ShardMode::N(k) => k.clamp(1, c as u32),
        };
        // Balanced contiguous cluster → group map.
        let group_of = |ci: usize| -> u32 { (ci as u64 * groups as u64 / c as u64) as u32 };
        let node_shard: Vec<u32> = (0..built.total_nodes())
            .map(|f| group_of(built.cluster_of(f)))
            .collect();
        let chan_shard: Vec<u32> = (0..built.num_channels() as u32)
            .map(|ch| match built.channel_cluster(ch) {
                Some(ci) => group_of(ci),
                None => groups,
            })
            .collect();
        let n_shards = groups as usize + 1;
        let mut shard_nodes = vec![0u32..0u32; n_shards];
        for s in 0..groups {
            let lo = node_shard.partition_point(|&g| g < s) as u32;
            let hi = node_shard.partition_point(|&g| g <= s) as u32;
            shard_nodes[s as usize] = lo..hi;
        }
        Partition {
            groups,
            node_shard,
            chan_shard,
            shard_nodes,
        }
    }

    fn n_shards(&self) -> usize {
        self.groups as usize + 1
    }
}

// ---------------------------------------------------------------------------
// Cross-shard transfers
// ---------------------------------------------------------------------------

/// The message state that crosses a shard boundary.
#[derive(Debug, Clone, Copy)]
struct XferMsg {
    gen_time: f64,
    prev_finish: f64,
    route: RouteRef,
    seg: u8,
    nsegs: u8,
    recorded: bool,
    audited: bool,
    src_cluster: u32,
    src: u32,
    dst: u32,
    attempt: u32,
}

/// A pre-announced cross-shard continuation: a segment-boundary channel
/// request (direct call or scheduled event, mirroring the serial
/// coupling semantics) or a retransmission re-entry at the source.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    /// Execution time on the receiver.
    time: f64,
    /// Serial executed this as a direct `request_current` call inside
    /// another event (uncounted); event-form transfers become counted
    /// scheduled events.
    direct: bool,
    /// Re-entry after a retry timeout instead of a boundary request.
    retransmit: bool,
    dst_shard: u32,
    src_shard: u32,
    src_seq: u64,
    msg: XferMsg,
}

/// The deterministic barrier merge order.
fn transfer_key(x: &Transfer) -> (f64, u32, u64) {
    (x.time, x.src_shard, x.src_seq)
}

// ---------------------------------------------------------------------------
// Per-shard journal (exact stop reconstruction)
// ---------------------------------------------------------------------------

/// One countable happening inside the current window; replayed up to the
/// reconstructed stop cut.
#[derive(Debug, Clone, Copy)]
enum JOp {
    /// A counted event pop (the walk's unit; carries no counter delta —
    /// `events_processed` is reconstructed globally).
    Pop,
    /// `generated += 1`.
    Gen,
    /// `delivered_total += 1`.
    Delivered,
    Dropped,
    Retrans,
    Unreach,
    /// Channel granted: `busy = true`, and its busy interval opens at `t`.
    Grant {
        chan: u32,
    },
    /// Release accrual: the busy interval closes at `t`.
    Accrue {
        chan: u32,
    },
    /// Channel freed after its queue drained.
    Free {
        chan: u32,
    },
}

#[derive(Debug, Clone, Copy)]
struct JRec {
    t: f64,
    op: JOp,
}

/// A recorded and/or audited delivery, logged for merged-order stat
/// accumulation at the coordinator.
#[derive(Debug, Clone, Copy)]
struct DeliveryEntry {
    d: Delivery,
    shard: u32,
    /// Journal length right after this delivery's ops — locates the
    /// delivering pop for exact-stop cuts.
    jcut: u32,
}

// ---------------------------------------------------------------------------
// Shard simulator
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum SEvent {
    Generate { node: u32 },
    Advance { msg: u32 },
    Release { chan: u32 },
    Request { msg: u32 },
    Fault { link: u32, fail: bool },
    Retransmit { msg: u32 },
}

#[derive(Debug)]
struct Chan {
    t: f64,
    busy: bool,
    queue: VecDeque<u32>,
}

/// Shard-resident message state — the serial `Msg` minus its trace id.
#[derive(Debug, Clone, Copy)]
struct SMsg {
    gen_time: f64,
    prev_finish: f64,
    cur: SegMeta,
    route: RouteRef,
    seg: u8,
    nsegs: u8,
    idx: u16,
    recorded: bool,
    audited: bool,
    intra: bool,
    src_cluster: u32,
    src: u32,
    dst: u32,
    attempt: u32,
}

impl SMsg {
    const VACANT: SMsg = SMsg {
        gen_time: 0.0,
        prev_finish: 0.0,
        cur: SegMeta {
            start: 0,
            len: 0,
            sum_t: 0.0,
            bottleneck_t: 0.0,
        },
        route: RouteRef::adaptive(0),
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
    };
}

/// Saved pre-window busy state of one touched channel.
#[derive(Debug, Clone, Copy)]
struct BusyUndo {
    /// The channel's busy-time account, from [`BusyTime::save`].
    account: (f64, f64),
    busy: bool,
}

struct ShardSim<'a> {
    id: u32,
    built: &'a BuiltSystem,
    routes: &'a RouteTable,
    cache: &'a AdaptiveRouteCache,
    part: &'a Partition,
    streams: &'a [Vec<ArrivalRec>],
    cfg: &'a SimConfig,
    m_flits: f64,
    queue: EventQueue<SEvent>,
    chans: Vec<Chan>,
    msgs: Vec<SMsg>,
    free: Vec<u32>,
    /// Per-owned-node cursor into its oracle stream.
    cursors: Vec<u32>,
    now: f64,
    last_pop: f64,
    counters: Counters,
    faults: FaultMask,
    busy: BusyTime,
    // Window machinery.
    /// Pending direct-form transfers, sorted by [`transfer_key`];
    /// `inc_head` marks the executed prefix.
    incoming: Vec<Transfer>,
    inc_head: usize,
    outgoing: Vec<Transfer>,
    xfer_seq: u64,
    entries: Vec<DeliveryEntry>,
    journal: Vec<JRec>,
    undo: std::collections::HashMap<u32, BusyUndo>,
    /// The counters at window start: the rollback baseline.
    snap: Counters,
}

impl<'a> ShardSim<'a> {
    fn new(
        id: u32,
        built: &'a BuiltSystem,
        oracle: &'a Oracle,
        part: &'a Partition,
        cfg: &'a SimConfig,
        wl: &Workload,
    ) -> Self {
        let chans = (0..built.num_channels())
            .map(|c| Chan {
                t: built.chan_time(c as u32),
                busy: false,
                queue: VecDeque::new(),
            })
            .collect();
        let nodes = part.shard_nodes[id as usize].clone();
        ShardSim {
            id,
            built,
            routes: built.route_table(),
            cache: &oracle.cache,
            part,
            streams: &oracle.streams,
            cfg,
            m_flits: wl.msg_flits as f64,
            queue: EventQueue::new(),
            chans,
            msgs: Vec::new(),
            free: Vec::new(),
            cursors: vec![0; nodes.len()],
            now: 0.0,
            last_pop: f64::NEG_INFINITY,
            counters: Counters::default(),
            faults: FaultMask::new(built, &cfg.faults),
            busy: BusyTime::new(built.num_channels()),
            incoming: Vec::new(),
            inc_head: 0,
            outgoing: Vec::new(),
            xfer_seq: 0,
            entries: Vec::new(),
            journal: Vec::new(),
            undo: std::collections::HashMap::new(),
            snap: Counters::default(),
        }
    }

    /// Seeds owned fault events (first, like the serial prime) and the
    /// initial Generate of every owned node.
    fn prime(&mut self) {
        let (part, id) = (self.part, self.id);
        self.cfg.faults.schedule_timed(
            &mut self.queue,
            |link| part.chan_shard[link as usize] == id,
            |link, fail| SEvent::Fault { link, fail },
        );
        for node in self.part.shard_nodes[self.id as usize].clone() {
            if let Some(rec) = self.streams[node as usize].first() {
                self.queue.schedule(rec.time, SEvent::Generate { node });
            }
        }
    }

    fn jot(&mut self, t: f64, op: JOp) {
        self.journal.push(JRec { t, op });
    }

    /// Saves a channel's busy state on first touch within the window.
    fn touch(&mut self, chan: u32) {
        self.undo.entry(chan).or_insert(BusyUndo {
            account: self.busy.save(chan),
            busy: self.chans[chan as usize].busy,
        });
    }

    /// Channel id at flat position `pos` of `route`.
    #[inline]
    fn route_chan(&self, route: RouteRef, pos: u64) -> u32 {
        match route.adaptive_idx() {
            Some(i) => self.cache.route(i).chans[pos as usize],
            None => self.routes.chan_at(pos),
        }
    }

    #[inline]
    fn seg_chan(&self, msg_id: u32, k: u32) -> u32 {
        let m = &self.msgs[msg_id as usize];
        self.route_chan(m.route, m.cur.start + k as u64)
    }

    #[inline]
    fn seg_meta(&self, msg_id: u32, seg: u8) -> SegMeta {
        let route = self.msgs[msg_id as usize].route;
        match route.adaptive_idx() {
            Some(i) => self.cache.route(i).segs[seg as usize],
            None => self.routes.seg_meta(route, seg as u32),
        }
    }

    fn alloc(&mut self) -> u32 {
        match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.msgs.len() as u32;
                self.msgs.push(SMsg::VACANT);
                s
            }
        }
    }

    /// Next local activity time: the queue head or the earliest pending
    /// direct transfer.
    fn next_time(&mut self) -> Option<f64> {
        let tq = self.queue.peek_key().map(|k| k.0);
        let tx = self.incoming.get(self.inc_head).map(|x| x.time);
        match (tq, tx) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Opens a window: snapshot counters, clear the journal/undo state.
    fn begin_window(&mut self) {
        self.snap = self.counters;
        self.journal.clear();
        self.undo.clear();
        self.entries.clear();
        self.outgoing.clear();
    }

    /// Processes every local event and pending direct transfer strictly
    /// before `w1`.
    fn run_window(&mut self, w1: f64) {
        loop {
            let tq = self.queue.peek_key().map(|k| k.0);
            let tx = self.incoming.get(self.inc_head).map(|x| x.time);
            let take_x = match (tq, tx) {
                (None, None) => break,
                (Some(q), None) => {
                    if q >= w1 {
                        break;
                    }
                    false
                }
                (None, Some(x)) => {
                    if x >= w1 {
                        break;
                    }
                    true
                }
                (Some(q), Some(x)) => {
                    if q.min(x) >= w1 {
                        break;
                    }
                    // A direct transfer executed inside the sender's
                    // event; on a time tie it goes first (deterministic;
                    // cross-message ties have measure zero).
                    x <= q
                }
            };
            if take_x {
                let x = self.incoming[self.inc_head];
                self.inc_head += 1;
                debug_assert!(x.time >= self.now - 1e-9, "transfer in the past");
                self.now = x.time;
                let slot = self.materialize(&x.msg);
                self.request_current(slot, x.time);
            } else {
                let ev = self.queue.pop().expect("peeked non-empty");
                self.counters.events_processed += 1;
                self.jot(ev.time, JOp::Pop);
                debug_assert!(ev.time >= self.now - 1e-9, "time must not run backwards");
                self.now = ev.time;
                self.last_pop = ev.time;
                match ev.kind {
                    SEvent::Generate { node } => self.on_generate(node, ev.time),
                    SEvent::Advance { msg } => self.on_advance(msg, ev.time),
                    SEvent::Release { chan } => self.on_release(chan, ev.time),
                    SEvent::Request { msg } => self.request_current(msg, ev.time),
                    SEvent::Fault { link, fail } => self.faults.apply(link, fail),
                    SEvent::Retransmit { msg } => self.on_retransmit(msg, ev.time),
                }
            }
        }
    }

    /// Materializes a transferred message into a local slab slot.
    fn materialize(&mut self, xm: &XferMsg) -> u32 {
        let slot = self.alloc();
        self.msgs[slot as usize] = SMsg {
            gen_time: xm.gen_time,
            prev_finish: xm.prev_finish,
            cur: SegMeta {
                start: 0,
                len: 0,
                sum_t: 0.0,
                bottleneck_t: 0.0,
            },
            route: xm.route,
            seg: xm.seg,
            nsegs: xm.nsegs,
            idx: 0,
            recorded: xm.recorded,
            audited: xm.audited,
            intra: false,
            src_cluster: xm.src_cluster,
            src: xm.src,
            dst: xm.dst,
            attempt: xm.attempt,
        };
        let cur = self.seg_meta(slot, xm.seg);
        self.msgs[slot as usize].cur = cur;
        slot
    }

    /// Accepts one barrier-delivered transfer: direct forms join the
    /// sorted pending list, event forms become counted scheduled events.
    fn deliver(&mut self, x: Transfer) {
        if x.direct {
            self.incoming.push(x);
        } else {
            let slot = self.materialize(&x.msg);
            let kind = if x.retransmit {
                SEvent::Retransmit { msg: slot }
            } else {
                SEvent::Request { msg: slot }
            };
            self.queue.schedule(x.time, kind);
        }
    }

    /// Re-sorts the pending direct transfers after barrier delivery.
    fn settle_incoming(&mut self) {
        self.incoming.drain(..self.inc_head);
        self.inc_head = 0;
        self.incoming.sort_unstable_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then(a.src_shard.cmp(&b.src_shard))
                .then(a.src_seq.cmp(&b.src_seq))
        });
    }

    fn to_xfer(m: &SMsg, seg: u8, prev_finish: f64) -> XferMsg {
        XferMsg {
            gen_time: m.gen_time,
            prev_finish,
            route: m.route,
            seg,
            nsegs: m.nsegs,
            recorded: m.recorded,
            audited: m.audited,
            src_cluster: m.src_cluster,
            src: m.src,
            dst: m.dst,
            attempt: m.attempt,
        }
    }

    /// Pre-announces the cross-shard continuation of a message whose
    /// final segment channel was just granted at `t`: the boundary
    /// outcome is a pure function of state known now, the crossing takes
    /// ≥ Δ, so the receiving shard learns of it a full window early.
    fn announce(&mut self, msg_id: u32, t: f64, cross: f64) {
        let m = self.msgs[msg_id as usize];
        let t_fire = t + cross;
        let header_limited = t_fire + (self.m_flits - 1.0) * m.cur.bottleneck_t;
        let finish = match self.cfg.coupling {
            Coupling::StoreAndForward | Coupling::VirtualCutThrough => header_limited,
            Coupling::CutThrough => header_limited.max(m.prev_finish + m.cur.sum_t),
        };
        let next = self.seg_meta(msg_id, m.seg + 1);
        let (time, direct) = match self.cfg.coupling {
            Coupling::StoreAndForward => (finish, false),
            Coupling::VirtualCutThrough => {
                let start = (finish - (self.m_flits - 1.0) * next.bottleneck_t).max(t_fire);
                if start <= t_fire {
                    (t_fire, true)
                } else {
                    (start, false)
                }
            }
            Coupling::CutThrough => (t_fire, true),
        };
        let first_chan = self.route_chan(m.route, next.start);
        let dst_shard = self.part.chan_shard[first_chan as usize];
        debug_assert_ne!(dst_shard, self.id, "segment boundaries always cross shards");
        let seq = self.xfer_seq;
        self.xfer_seq += 1;
        self.outgoing.push(Transfer {
            time,
            direct,
            retransmit: false,
            dst_shard,
            src_shard: self.id,
            src_seq: seq,
            msg: Self::to_xfer(&m, m.seg + 1, finish),
        });
    }

    fn drop_msg(&mut self, msg_id: u32, t: f64) {
        let m = self.msgs[msg_id as usize];
        self.counters.dropped += 1;
        self.jot(t, JOp::Dropped);
        for k in 0..m.idx {
            let held = self.seg_chan(msg_id, k as u32);
            self.queue.schedule(t, SEvent::Release { chan: held });
        }
        if m.attempt + 1 >= self.cfg.faults.max_attempts {
            self.counters.unreachable += 1;
            self.jot(t, JOp::Unreach);
            self.free.push(msg_id);
        } else {
            let delay = self.cfg.faults.retry_delay(m.attempt);
            let src_shard = self.part.node_shard[m.src as usize];
            if src_shard == self.id {
                self.queue
                    .schedule(t + delay, SEvent::Retransmit { msg: msg_id });
            } else {
                // Re-entry happens at the source's shard; the retry
                // timeout bounds the delay from below, so the window Δ
                // (shrunk to it under fault schedules) covers this hop.
                let seq = self.xfer_seq;
                self.xfer_seq += 1;
                self.outgoing.push(Transfer {
                    time: t + delay,
                    direct: false,
                    retransmit: true,
                    dst_shard: src_shard,
                    src_shard: self.id,
                    src_seq: seq,
                    msg: Self::to_xfer(&m, m.seg, m.prev_finish),
                });
                self.free.push(msg_id);
            }
        }
    }

    fn on_retransmit(&mut self, msg_id: u32, t: f64) {
        self.counters.retransmits += 1;
        self.jot(t, JOp::Retrans);
        debug_assert!(
            self.msgs[msg_id as usize].route.adaptive_idx().is_none(),
            "adaptive + faults falls back to the serial engine"
        );
        let cur = self.seg_meta(msg_id, 0);
        let mm = &mut self.msgs[msg_id as usize];
        mm.attempt += 1;
        mm.seg = 0;
        mm.idx = 0;
        mm.prev_finish = t;
        mm.cur = cur;
        self.request_current(msg_id, t);
    }

    fn on_generate(&mut self, node: u32, t: f64) {
        let local = (node - self.part.shard_nodes[self.id as usize].start) as usize;
        let k = self.cursors[local] as usize;
        self.cursors[local] += 1;
        let stream = &self.streams[node as usize];
        let rec = stream[k];
        debug_assert_eq!(rec.time.to_bits(), t.to_bits(), "oracle replay out of sync");
        if rec.dst == NOOP {
            return;
        }
        self.counters.generated += 1;
        self.jot(t, JOp::Gen);
        if rec.unreachable {
            self.counters.unreachable += 1;
            self.jot(t, JOp::Unreach);
            if let Some(next) = stream.get(k + 1) {
                let nt = next.time;
                self.queue.schedule(nt, SEvent::Generate { node });
            }
            return;
        }
        let slot = self.alloc();
        let nsegs = match rec.route.adaptive_idx() {
            Some(i) => self.cache.route(i).nsegs,
            None => self.routes.num_segments(rec.route) as u8,
        };
        let dst = rec.dst as usize;
        self.msgs[slot as usize] = SMsg {
            gen_time: t,
            prev_finish: t,
            cur: SegMeta {
                start: 0,
                len: 0,
                sum_t: 0.0,
                bottleneck_t: 0.0,
            },
            route: rec.route,
            seg: 0,
            nsegs,
            idx: 0,
            recorded: rec.recorded,
            audited: rec.audited,
            intra: self.built.cluster_of(node as usize) == self.built.cluster_of(dst),
            src_cluster: self.built.cluster_of(node as usize) as u32,
            src: node,
            dst: dst as u32,
            attempt: 0,
        };
        let cur = self.seg_meta(slot, 0);
        self.msgs[slot as usize].cur = cur;
        self.request_current(slot, t);
        if let Some(next) = stream.get(k + 1) {
            let nt = next.time;
            self.queue.schedule(nt, SEvent::Generate { node });
        }
    }

    fn request_current(&mut self, msg_id: u32, t: f64) {
        let idx = self.msgs[msg_id as usize].idx;
        let chan = self.seg_chan(msg_id, idx as u32);
        debug_assert_eq!(
            self.part.chan_shard[chan as usize], self.id,
            "requested a channel outside this shard"
        );
        if self.faults.is_failed(chan) {
            self.drop_msg(msg_id, t);
            return;
        }
        if self.chans[chan as usize].busy {
            self.chans[chan as usize].queue.push_back(msg_id);
        } else {
            // Save the pre-window busy state before mutating it.
            self.touch(chan);
            let cross = self.chans[chan as usize].t;
            self.chans[chan as usize].busy = true;
            self.busy.grant(chan, t);
            self.jot(t, JOp::Grant { chan });
            self.queue
                .schedule(t + cross, SEvent::Advance { msg: msg_id });
            let m = &self.msgs[msg_id as usize];
            if (m.idx as u32) + 1 == m.cur.len && m.seg + 1 < m.nsegs {
                self.announce(msg_id, t, cross);
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
        let header_limited = t + (self.m_flits - 1.0) * m.cur.bottleneck_t;
        let finish = match self.cfg.coupling {
            Coupling::StoreAndForward | Coupling::VirtualCutThrough => header_limited,
            Coupling::CutThrough => header_limited.max(m.prev_finish + m.cur.sum_t),
        };
        let mut suffix = 0.0;
        for k in (0..m.cur.len).rev() {
            let chan = self.seg_chan(msg_id, k);
            let release = (finish - suffix).max(t);
            self.queue.schedule(release, SEvent::Release { chan });
            suffix += self.chans[chan as usize].t;
        }
        let last_segment = m.seg + 1 == m.nsegs;
        if last_segment {
            self.counters.delivered_total += 1;
            self.jot(t, JOp::Delivered);
            if m.recorded || m.audited {
                self.entries.push(DeliveryEntry {
                    d: Delivery {
                        t,
                        latency: finish - m.gen_time,
                        src: m.src,
                        gen_time: m.gen_time,
                        recorded: m.recorded,
                        audited: m.audited,
                        intra: m.intra,
                        src_cluster: m.src_cluster,
                    },
                    shard: self.id,
                    jcut: self.journal.len() as u32,
                });
            }
            self.free.push(msg_id);
        } else {
            // The continuation lives on another shard and was announced
            // at the final grant; locally the message is done.
            self.free.push(msg_id);
        }
    }

    fn on_release(&mut self, chan: u32, t: f64) {
        self.touch(chan);
        self.busy.accrue(chan, t);
        self.jot(t, JOp::Accrue { chan });
        debug_assert!(self.chans[chan as usize].busy, "releasing a free channel");
        loop {
            let Some(next) = self.chans[chan as usize].queue.pop_front() else {
                self.chans[chan as usize].busy = false;
                self.jot(t, JOp::Free { chan });
                return;
            };
            if self.faults.is_failed(chan) {
                self.drop_msg(next, t);
                continue;
            }
            let cross = self.chans[chan as usize].t;
            self.busy.grant(chan, t);
            self.jot(t, JOp::Grant { chan });
            self.queue
                .schedule(t + cross, SEvent::Advance { msg: next });
            let m = &self.msgs[next as usize];
            if (m.idx as u32) + 1 == m.cur.len && m.seg + 1 < m.nsegs {
                self.announce(next, t, cross);
            }
            return;
        }
    }

    // -- stop reconstruction ------------------------------------------------

    /// Rolls this shard back to the exact serial stop: restore pre-window
    /// busy state and counters, then replay the journal up to `jcut`
    /// (filtered to `t ≤ t_sim`). `events_processed` is left at its
    /// window-start value: the coordinator reconstructs it globally.
    fn truncate_to(&mut self, jcut: usize, t_sim: f64) {
        for (&chan, u) in &self.undo {
            self.busy.restore(chan, u.account);
            self.chans[chan as usize].busy = u.busy;
        }
        self.counters = self.snap;
        for i in 0..jcut {
            let r = self.journal[i];
            if r.t > t_sim {
                continue;
            }
            match r.op {
                JOp::Pop => {}
                JOp::Gen => self.counters.generated += 1,
                JOp::Delivered => self.counters.delivered_total += 1,
                JOp::Dropped => self.counters.dropped += 1,
                JOp::Retrans => self.counters.retransmits += 1,
                JOp::Unreach => self.counters.unreachable += 1,
                JOp::Grant { chan } => {
                    self.chans[chan as usize].busy = true;
                    self.busy.grant(chan, r.t);
                }
                JOp::Accrue { chan } => self.busy.accrue(chan, r.t),
                JOp::Free { chan } => self.chans[chan as usize].busy = false,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Window protocol
// ---------------------------------------------------------------------------

/// Everything the coordinator needs from one shard after one window.
struct WindowRep {
    shard: u32,
    /// Earliest remaining local activity (queue head or pending direct
    /// transfer) — all `≥ w1`.
    next_time: Option<f64>,
    outgoing: Vec<Transfer>,
    entries: Vec<DeliveryEntry>,
    window_pops: u64,
    last_pop: f64,
}

/// Per-shard journal geometry, shipped only when a window contains a
/// stop candidate.
struct JournalRep {
    /// Journal indices of the window's Pop records, in order.
    pop_positions: Vec<u32>,
    /// The matching pop times.
    pop_times: Vec<f64>,
}

/// How the final window is cut.
#[derive(Clone)]
enum FinalizeMode {
    /// Roll back to `jcuts[shard]` journal ops filtered to `t ≤ t_sim`
    /// (`usize::MAX` = the whole journal), then flush open busy time.
    Exact { jcuts: Vec<usize>, t_sim: f64 },
    /// The run drained: no truncation, just flush open busy intervals.
    Drain { t_sim: f64 },
}

/// A shard's final contribution to the merged results.
struct ShardFinal {
    counters: Counters,
    /// Busy time per global channel; only the shard's own channels count.
    busy_total: Vec<f64>,
    slab_len: u64,
}

fn shard_window(s: &mut ShardSim<'_>, w1: f64, inbox: Vec<Transfer>) -> WindowRep {
    s.begin_window();
    for x in inbox {
        s.deliver(x);
    }
    s.settle_incoming();
    s.run_window(w1);
    WindowRep {
        shard: s.id,
        next_time: s.next_time(),
        outgoing: std::mem::take(&mut s.outgoing),
        entries: std::mem::take(&mut s.entries),
        window_pops: s.counters.events_processed - s.snap.events_processed,
        last_pop: s.last_pop,
    }
}

fn shard_journal(s: &ShardSim<'_>) -> JournalRep {
    let mut pop_positions = Vec::new();
    let mut pop_times = Vec::new();
    for (i, r) in s.journal.iter().enumerate() {
        if matches!(r.op, JOp::Pop) {
            pop_positions.push(i as u32);
            pop_times.push(r.t);
        }
    }
    JournalRep {
        pop_positions,
        pop_times,
    }
}

fn shard_finalize(s: &mut ShardSim<'_>, mode: &FinalizeMode) -> ShardFinal {
    let t_sim = match *mode {
        FinalizeMode::Exact { ref jcuts, t_sim } => {
            let jc = jcuts[s.id as usize].min(s.journal.len());
            s.truncate_to(jc, t_sim);
            t_sim
        }
        FinalizeMode::Drain { t_sim } => t_sim,
    };
    // Close the open busy interval of every still-busy owned channel at
    // the run's final clock, exactly like the serial epilogue.
    let (part, id, chans) = (s.part, s.id, &s.chans);
    let busy_total =
        std::mem::take(&mut s.busy).finish(t_sim, |c| part.chan_shard[c] == id && chans[c].busy);
    ShardFinal {
        counters: s.counters,
        busy_total,
        slab_len: s.msgs.len() as u64,
    }
}

enum Cmd {
    Window {
        w1: f64,
        inboxes: Vec<Vec<Transfer>>,
    },
    ShipJournal,
    Finalize(FinalizeMode),
}

enum Rep {
    Window(Vec<WindowRep>),
    Journal(Vec<(u32, JournalRep)>),
    Final(Vec<(u32, ShardFinal)>),
}

fn worker_loop(
    shards: &mut [ShardSim<'_>],
    rx: std::sync::mpsc::Receiver<Cmd>,
    tx: std::sync::mpsc::Sender<Rep>,
) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Window { w1, inboxes } => {
                let reps = shards
                    .iter_mut()
                    .zip(inboxes)
                    .map(|(s, inbox)| shard_window(s, w1, inbox))
                    .collect();
                if tx.send(Rep::Window(reps)).is_err() {
                    return;
                }
            }
            Cmd::ShipJournal => {
                let js = shards.iter().map(|s| (s.id, shard_journal(s))).collect();
                if tx.send(Rep::Journal(js)).is_err() {
                    return;
                }
            }
            Cmd::Finalize(mode) => {
                let fs = shards
                    .iter_mut()
                    .map(|s| (s.id, shard_finalize(s, &mode)))
                    .collect();
                let _ = tx.send(Rep::Final(fs));
                return;
            }
        }
    }
}

/// The shard pool: the same window protocol served inline (one worker)
/// or over channels to scoped worker threads. Results are identical by
/// construction — every merge the coordinator performs is ordered by
/// shard id, never by arrival.
enum Pool<'p, 'a> {
    Inline(&'p mut Vec<ShardSim<'a>>),
    Threads {
        txs: Vec<std::sync::mpsc::Sender<Cmd>>,
        rxs: Vec<std::sync::mpsc::Receiver<Rep>>,
        /// Shard ids per worker, aligned with `txs`.
        owners: Vec<Vec<u32>>,
    },
}

impl Pool<'_, '_> {
    /// Runs one window on every shard; `pending[shard]` is consumed as
    /// each shard's transfer inbox. Replies come back in shard-id order.
    fn window(&mut self, w1: f64, pending: &mut [Vec<Transfer>]) -> Vec<WindowRep> {
        match self {
            Pool::Inline(shards) => shards
                .iter_mut()
                .map(|s| {
                    let inbox = std::mem::take(&mut pending[s.id as usize]);
                    shard_window(s, w1, inbox)
                })
                .collect(),
            Pool::Threads { txs, rxs, owners } => {
                for (w, tx) in txs.iter().enumerate() {
                    let inboxes = owners[w]
                        .iter()
                        .map(|&id| std::mem::take(&mut pending[id as usize]))
                        .collect();
                    tx.send(Cmd::Window { w1, inboxes }).expect("worker alive");
                }
                let mut reps: Vec<WindowRep> = Vec::new();
                for rx in rxs.iter() {
                    match rx.recv().expect("worker reply") {
                        Rep::Window(mut v) => reps.append(&mut v),
                        _ => unreachable!("protocol: expected window reply"),
                    }
                }
                reps.sort_by_key(|r| r.shard);
                reps
            }
        }
    }

    /// Ships the current window's journal geometry, indexed by shard id.
    fn journals(&mut self) -> Vec<JournalRep> {
        match self {
            Pool::Inline(shards) => shards.iter().map(|s| shard_journal(s)).collect(),
            Pool::Threads { txs, rxs, .. } => {
                for tx in txs.iter() {
                    tx.send(Cmd::ShipJournal).expect("worker alive");
                }
                let mut js: Vec<(u32, JournalRep)> = Vec::new();
                for rx in rxs.iter() {
                    match rx.recv().expect("worker reply") {
                        Rep::Journal(mut v) => js.append(&mut v),
                        _ => unreachable!("protocol: expected journal reply"),
                    }
                }
                js.sort_by_key(|(id, _)| *id);
                js.into_iter().map(|(_, j)| j).collect()
            }
        }
    }

    /// Cuts the final window and collects per-shard results, indexed by
    /// shard id. Workers terminate after replying.
    fn finalize(&mut self, mode: FinalizeMode) -> Vec<ShardFinal> {
        match self {
            Pool::Inline(shards) => shards
                .iter_mut()
                .map(|s| shard_finalize(s, &mode))
                .collect(),
            Pool::Threads { txs, rxs, .. } => {
                for tx in txs.iter() {
                    tx.send(Cmd::Finalize(mode.clone())).expect("worker alive");
                }
                let mut fs: Vec<(u32, ShardFinal)> = Vec::new();
                for rx in rxs.iter() {
                    match rx.recv().expect("worker reply") {
                        Rep::Final(mut v) => fs.append(&mut v),
                        _ => unreachable!("protocol: expected final reply"),
                    }
                }
                fs.sort_by_key(|(id, _)| *id);
                fs.into_iter().map(|(_, f)| f).collect()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// The conservative lookahead Δ: the minimum inter-cluster (ECN1 + ICN2)
/// crossing time — every cross-shard continuation is announced at the
/// grant of a crossing taking at least this long. A timed fault schedule
/// adds cross-shard retransmissions delayed by at least the retry
/// timeout, so Δ shrinks to it. Static-only faults never drop messages
/// (interned routes avoid failed links), so they leave Δ alone.
fn lookahead(built: &BuiltSystem, cfg: &SimConfig) -> f64 {
    let mut d = built.min_intercluster_channel_time();
    if !cfg.faults.events.is_empty() {
        d = d.min(cfg.faults.retry_timeout);
    }
    d
}

/// Merges the shards' final contributions into the run's results.
fn assemble(
    part: &Partition,
    sinks: Sinks,
    finals: Vec<ShardFinal>,
    events_processed: u64,
    t_sim: f64,
    stop: StopReason,
) -> SimResults {
    let busy = (0..part.chan_shard.len())
        .map(|c| finals[part.chan_shard[c] as usize].busy_total[c])
        .collect();
    let mut counters = Counters::default();
    for f in &finals {
        counters += f.counters;
    }
    counters.events_processed = events_processed;
    let peak_live_msgs = finals.iter().map(|f| f.slab_len).max().unwrap_or(0);
    sinks.finish(counters, stop, t_sim, busy, peak_live_msgs)
}

fn run_loop(
    pool: &mut Pool<'_, '_>,
    n_shards: usize,
    delta: f64,
    built: &BuiltSystem,
    cfg: &SimConfig,
    part: &Partition,
    mut tmin: Option<f64>,
) -> SimResults {
    let mut sinks = Sinks::new(cfg, built.spec().num_clusters());
    let mut events_before: u64 = 0;
    // The serial clock starts at 0 and only moves on executed pops.
    let mut last_pop: f64 = 0.0;
    let mut pending: Vec<Vec<Transfer>> = vec![Vec::new(); n_shards];
    loop {
        let Some(t0) = tmin else {
            // Every queue, pending transfer and inbox is empty: drained.
            let finals = pool.finalize(FinalizeMode::Drain { t_sim: last_pop });
            return assemble(
                part,
                sinks,
                finals,
                events_before,
                last_pop,
                StopReason::Drained,
            );
        };
        // GVT jump: the window starts at the global minimum next-event
        // time. Guard against float absorption (t0 + Δ == t0) so the
        // window always admits the t0 event and the loop progresses.
        let mut w1 = t0 + delta;
        if w1 <= t0 {
            w1 = t0.next_up();
        }
        let reps = pool.window(w1, &mut pending);
        let window_pops: u64 = reps.iter().map(|r| r.window_pops).sum();
        // Merged delivery order: the canonical (time, src, gen_time)
        // order shared with the serial engine's deferred sink replay —
        // see `delivery_order`.
        let mut entries: Vec<DeliveryEntry> = reps
            .iter()
            .flat_map(|r| r.entries.iter().copied())
            .collect();
        entries.sort_by(|a, b| delivery_order(&a.d, &b.d));
        let recorded_in_window = entries.iter().filter(|e| e.d.recorded).count() as u64;
        let measured_hit = sinks.recorded() + recorded_in_window >= cfg.measured;
        let cap_hit = events_before + window_pops > cfg.max_events;
        if measured_hit || cap_hit {
            let js = pool.journals();
            if measured_hit {
                // The serial engine breaks on the pop that delivers the
                // `measured`-th recorded message — locate it.
                let need = (cfg.measured - sinks.recorded()) as usize;
                let stop_entry = entries
                    .iter()
                    .filter(|e| e.d.recorded)
                    .nth(need - 1)
                    .copied()
                    .expect("measured_hit guarantees the entry exists");
                let s_star = stop_entry.shard as usize;
                let jp = &js[s_star];
                // The delivering pop: last Pop record before the entry.
                let k_stop = jp.pop_positions.partition_point(|&p| p < stop_entry.jcut) - 1;
                let t_stop = stop_entry.d.t;
                debug_assert_eq!(jp.pop_times[k_stop].to_bits(), t_stop.to_bits());
                // Global event number of the stop pop: everything before
                // it in merged time order, plus itself.
                let mut events_at_stop = events_before + (k_stop as u64 + 1);
                for (sid, j) in js.iter().enumerate() {
                    if sid != s_star {
                        events_at_stop +=
                            j.pop_times.iter().filter(|&&t| t <= t_stop).count() as u64;
                    }
                }
                if events_at_stop <= cfg.max_events {
                    let mut jcuts = vec![usize::MAX; n_shards];
                    jcuts[s_star] = jp
                        .pop_positions
                        .get(k_stop + 1)
                        .map(|&p| p as usize)
                        .unwrap_or(usize::MAX);
                    for e in &entries {
                        if e.d.t <= t_stop && (e.jcut as usize) <= jcuts[e.shard as usize] {
                            sinks.record(&e.d);
                        }
                    }
                    debug_assert_eq!(sinks.recorded(), cfg.measured);
                    let finals = pool.finalize(FinalizeMode::Exact {
                        jcuts,
                        t_sim: t_stop,
                    });
                    return assemble(
                        part,
                        sinks,
                        finals,
                        events_at_stop,
                        t_stop,
                        StopReason::MeasuredComplete,
                    );
                }
                // The measured milestone lies past the event cap: the cap
                // fired first. Fall through.
            }
            // Event cap: the serial engine counts the breaching pop but
            // does not execute it, and the clock stays on the last
            // executed event.
            let n_exec = (cfg.max_events - events_before) as usize;
            let mut pops: Vec<(f64, u32, u32)> = js
                .iter()
                .enumerate()
                .flat_map(|(sid, j)| {
                    j.pop_times
                        .iter()
                        .enumerate()
                        .map(move |(k, &t)| (t, sid as u32, k as u32))
                })
                .collect();
            pops.sort_by(|a, b| a.0.total_cmp(&b.0));
            debug_assert!(pops.len() > n_exec, "cap implies an unexecuted pop");
            let t_sim = if n_exec == 0 {
                last_pop
            } else {
                pops[n_exec - 1].0
            };
            let mut n_exec_s = vec![0usize; n_shards];
            for &(_, sid, _) in &pops[..n_exec] {
                n_exec_s[sid as usize] += 1;
            }
            let jcuts: Vec<usize> = (0..n_shards)
                .map(|sid| {
                    js[sid]
                        .pop_positions
                        .get(n_exec_s[sid])
                        .map(|&p| p as usize)
                        .unwrap_or(usize::MAX)
                })
                .collect();
            for e in &entries {
                if e.d.t <= t_sim && (e.jcut as usize) <= jcuts[e.shard as usize] {
                    sinks.record(&e.d);
                }
            }
            let finals = pool.finalize(FinalizeMode::Exact { jcuts, t_sim });
            return assemble(
                part,
                sinks,
                finals,
                cfg.max_events + 1,
                t_sim,
                StopReason::EventCap,
            );
        }
        // No stop in this window: fold its deliveries into the sinks and
        // route its transfers for the next barrier.
        for e in &entries {
            sinks.record(&e.d);
        }
        events_before += window_pops;
        let mut next: Option<f64> = reps
            .iter()
            .filter_map(|r| r.next_time)
            .fold(None, |m, t| Some(m.map_or(t, |m: f64| m.min(t))));
        for r in &reps {
            if r.last_pop > last_pop {
                last_pop = r.last_pop;
            }
        }
        let mut all: Vec<Transfer> = reps.into_iter().flat_map(|r| r.outgoing).collect();
        all.sort_by(|a, b| {
            transfer_key(a)
                .0
                .total_cmp(&transfer_key(b).0)
                .then(a.src_shard.cmp(&b.src_shard))
                .then(a.src_seq.cmp(&b.src_seq))
        });
        for x in all {
            next = Some(next.map_or(x.time, |m: f64| m.min(x.time)));
            pending[x.dst_shard as usize].push(x);
        }
        tmin = next;
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Runs the sharded engine; the caller must have checked
/// [`sharding_eligible`].
pub(crate) fn run_sharded(
    built: &BuiltSystem,
    wl: &Workload,
    pattern: Pattern,
    cfg: &SimConfig,
    arrival: &ArrivalSpec,
) -> SimResults {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    run_sharded_workers(built, wl, pattern, cfg, arrival, workers)
}

/// Test seam: like the internal sharded runner but with an explicit
/// worker-thread count, so the parallel window protocol is exercised
/// even on a single-core machine. Not part of the public API.
#[doc(hidden)]
pub fn run_sharded_workers(
    built: &BuiltSystem,
    wl: &Workload,
    pattern: Pattern,
    cfg: &SimConfig,
    arrival: &ArrivalSpec,
    workers: usize,
) -> SimResults {
    assert!(
        sharding_eligible(built, cfg),
        "configuration cannot run sharded (shards off, traced, adaptive + faults, \
         single cluster, or empty measured population)"
    );
    assert!(
        arrival.mean_rate() > 0.0,
        "simulation needs a positive generation rate"
    );
    let oracle = build_oracle(built, &pattern, cfg, arrival);
    let part = Partition::new(built, cfg.shards);
    let n = part.n_shards();
    let delta = lookahead(built, cfg);
    let mut shards: Vec<ShardSim<'_>> = (0..n)
        .map(|i| ShardSim::new(i as u32, built, &oracle, &part, cfg, wl))
        .collect();
    let mut tmin: Option<f64> = None;
    for s in shards.iter_mut() {
        s.prime();
        if let Some(t) = s.next_time() {
            tmin = Some(tmin.map_or(t, |m: f64| m.min(t)));
        }
    }
    let workers = workers.clamp(1, n);
    if workers <= 1 {
        run_loop(
            &mut Pool::Inline(&mut shards),
            n,
            delta,
            built,
            cfg,
            &part,
            tmin,
        )
    } else {
        std::thread::scope(|scope| {
            let mut txs = Vec::new();
            let mut rxs = Vec::new();
            let mut owners = Vec::new();
            let per = n.div_ceil(workers);
            for chunk in shards.chunks_mut(per) {
                let (ctx, crx) = std::sync::mpsc::channel::<Cmd>();
                let (wtx, wrx) = std::sync::mpsc::channel::<Rep>();
                owners.push(chunk.iter().map(|s| s.id).collect::<Vec<u32>>());
                scope.spawn(move || worker_loop(chunk, crx, wtx));
                txs.push(ctx);
                rxs.push(wrx);
            }
            run_loop(
                &mut Pool::Threads { txs, rxs, owners },
                n,
                delta,
                built,
                cfg,
                &part,
                tmin,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultAction;
    use crate::engine::run_simulation_built;
    use cocnet_topology::{ClusterSpec, NetworkCharacteristics, SystemSpec};

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

    fn cfg(seed: u64) -> SimConfig {
        SimConfig {
            warmup: 200,
            measured: 2_000,
            drain: 200,
            seed,
            ..SimConfig::default()
        }
    }

    /// Field-by-field bit-equality, `peak_live_msgs` excluded (documented
    /// as shard-local).
    fn assert_bit_identical(serial: &SimResults, sharded: &SimResults, label: &str) {
        assert_eq!(serial.latency, sharded.latency, "{label}: latency");
        assert_eq!(serial.intra, sharded.intra, "{label}: intra");
        assert_eq!(serial.inter, sharded.inter, "{label}: inter");
        assert_eq!(
            serial.per_cluster, sharded.per_cluster,
            "{label}: per_cluster"
        );
        assert_eq!(serial.generated, sharded.generated, "{label}: generated");
        assert_eq!(
            serial.delivered_recorded, sharded.delivered_recorded,
            "{label}: delivered_recorded"
        );
        assert_eq!(serial.completed, sharded.completed, "{label}: completed");
        assert_eq!(
            serial.sim_time.to_bits(),
            sharded.sim_time.to_bits(),
            "{label}: sim_time {} vs {}",
            serial.sim_time,
            sharded.sim_time
        );
        assert_eq!(serial.histogram, sharded.histogram, "{label}: histogram");
        assert_eq!(
            serial.channel_busy.len(),
            sharded.channel_busy.len(),
            "{label}: channel count"
        );
        for (c, (a, b)) in serial
            .channel_busy
            .iter()
            .zip(&sharded.channel_busy)
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: channel_busy[{c}] {a} vs {b}"
            );
        }
        assert_eq!(
            serial.percentiles, sharded.percentiles,
            "{label}: percentiles"
        );
        assert_eq!(
            serial.events_processed, sharded.events_processed,
            "{label}: events_processed"
        );
        assert_eq!(
            serial.delivered_total, sharded.delivered_total,
            "{label}: delivered_total"
        );
        assert_eq!(serial.dropped, sharded.dropped, "{label}: dropped");
        assert_eq!(
            serial.retransmits, sharded.retransmits,
            "{label}: retransmits"
        );
        assert_eq!(
            serial.unreachable, sharded.unreachable,
            "{label}: unreachable"
        );
        assert_eq!(serial.stop, sharded.stop, "{label}: stop");
    }

    #[test]
    fn sharded_bit_identical_to_serial_uniform() {
        let spec = spec();
        let wl = wl(3e-4);
        let built = BuiltSystem::build(&spec, wl.flit_bytes);
        let serial = run_simulation_built(&built, &wl, Pattern::Uniform, &cfg(11));
        let sharded = run_simulation_built(
            &built,
            &wl,
            Pattern::Uniform,
            &SimConfig {
                shards: ShardMode::Auto,
                ..cfg(11)
            },
        );
        assert!(serial.completed);
        assert_bit_identical(&serial, &sharded, "uniform/auto");
    }

    #[test]
    fn sharded_bit_identical_across_couplings_and_shard_counts() {
        let spec = spec();
        let wl = wl(6e-4);
        let built = BuiltSystem::build(&spec, wl.flit_bytes);
        for coupling in [
            Coupling::VirtualCutThrough,
            Coupling::StoreAndForward,
            Coupling::CutThrough,
        ] {
            let base = SimConfig {
                coupling,
                ..cfg(23)
            };
            let serial = run_simulation_built(&built, &wl, Pattern::Uniform, &base);
            for shards in [ShardMode::N(1), ShardMode::N(2), ShardMode::Auto] {
                let sharded = run_simulation_built(
                    &built,
                    &wl,
                    Pattern::Uniform,
                    &SimConfig {
                        shards,
                        ..base.clone()
                    },
                );
                assert_bit_identical(&serial, &sharded, &format!("{coupling:?}/{shards:?}"));
            }
        }
    }

    #[test]
    fn sharded_bit_identical_with_adaptive_routing() {
        // Adaptive routing without faults shards fine: the oracle
        // pre-draws the ascent digits in generation order.
        let spec = spec();
        let wl = wl(4e-4);
        let built = BuiltSystem::build(&spec, wl.flit_bytes);
        let base = SimConfig {
            adaptive_routing: true,
            ..cfg(31)
        };
        let serial = run_simulation_built(&built, &wl, Pattern::Uniform, &base);
        let sharded = run_simulation_built(
            &built,
            &wl,
            Pattern::Uniform,
            &SimConfig {
                shards: ShardMode::Auto,
                ..base
            },
        );
        assert!(serial.completed);
        assert_bit_identical(&serial, &sharded, "adaptive");
    }

    #[test]
    fn sharded_bit_identical_with_side_channels() {
        // Histogram, exact percentiles and the warm-up audit must all
        // come out of the merged replay bit-equal to the serial sinks.
        let spec = spec();
        let wl = wl(5e-4);
        let built = BuiltSystem::build(&spec, wl.flit_bytes);
        let base = SimConfig {
            histogram: Some((50_000.0, 64)),
            collect_percentiles: true,
            audit_warmup: true,
            ..cfg(37)
        };
        let serial = run_simulation_built(&built, &wl, Pattern::Uniform, &base);
        let sharded = run_simulation_built(
            &built,
            &wl,
            Pattern::Uniform,
            &SimConfig {
                shards: ShardMode::Auto,
                ..base
            },
        );
        assert_bit_identical(&serial, &sharded, "side-channels");
        assert_eq!(serial.warmup_audit, sharded.warmup_audit);
    }

    #[test]
    fn sharded_bit_identical_with_static_faults() {
        // Static faults reroute at build time; drops never happen, so
        // sharding stays lossless (write-offs occur at generation).
        let spec = spec();
        let wl = wl(3e-4);
        let mut base = cfg(41);
        base.faults.link_fraction = 0.15;
        base.faults.fault_seed = 99;
        let built = BuiltSystem::try_build_with(
            &spec,
            wl.flit_bytes,
            cocnet_topology::AscentPolicy::default(),
            &base.faults,
        )
        .unwrap();
        let serial = run_simulation_built(&built, &wl, Pattern::Uniform, &base);
        let sharded = run_simulation_built(
            &built,
            &wl,
            Pattern::Uniform,
            &SimConfig {
                shards: ShardMode::Auto,
                ..base.clone()
            },
        );
        assert!(serial.unreachable > 0, "15% faults partition some pairs");
        assert_bit_identical(&serial, &sharded, "static-faults");
    }

    /// The injection channel of node 0's interned routes.
    fn node0_injection_channel(built: &BuiltSystem) -> u32 {
        let routes = built.route_table();
        let r = routes.route_ref(0, 1);
        let seg = routes.seg_meta(r, 0);
        routes.chan_at(seg.start)
    }

    #[test]
    fn sharded_bit_identical_with_timed_fail_and_repair() {
        // Timed Fail/Repair exercises drops, cross-shard retransmission
        // timers and the fault-shrunk lookahead. The repair lands late
        // enough that this spec's traffic has already run into the dead
        // link and retried across the outage.
        let spec = spec();
        let wl = wl(2e-4);
        let built = BuiltSystem::build(&spec, wl.flit_bytes);
        let dead = node0_injection_channel(&built);
        let mut base = cfg(43);
        base.faults.events = vec![
            crate::config::FaultEvent {
                time: 0.0,
                link: dead,
                action: FaultAction::Fail,
            },
            crate::config::FaultEvent {
                time: 100_000.0,
                link: dead,
                action: crate::config::FaultAction::Repair,
            },
        ];
        base.faults.max_attempts = 64;
        base.faults.retry_timeout = 100.0;
        base.faults.max_timeout = 800.0;
        let serial = run_simulation_built(&built, &wl, Pattern::Uniform, &base);
        assert!(serial.completed && serial.retransmits > 0);
        for shards in [ShardMode::N(2), ShardMode::Auto] {
            let sharded = run_simulation_built(
                &built,
                &wl,
                Pattern::Uniform,
                &SimConfig {
                    shards,
                    ..base.clone()
                },
            );
            assert_bit_identical(&serial, &sharded, &format!("fail-repair/{shards:?}"));
        }
    }

    #[test]
    fn sharded_bit_identical_on_drained_stop() {
        // A permanent unrepaired fault drains the run: retry budgets
        // exhaust and the queues run dry with write-offs.
        let spec = spec();
        let wl = wl(2e-4);
        let built = BuiltSystem::build(&spec, wl.flit_bytes);
        let dead = node0_injection_channel(&built);
        let mut base = cfg(47);
        base.faults.events = vec![crate::config::FaultEvent {
            time: 0.0,
            link: dead,
            action: FaultAction::Fail,
        }];
        base.faults.max_attempts = 3;
        base.faults.retry_timeout = 50.0;
        base.faults.max_timeout = 200.0;
        let serial = run_simulation_built(&built, &wl, Pattern::Uniform, &base);
        assert_eq!(serial.stop, StopReason::Drained);
        assert!(serial.unreachable > 0);
        let sharded = run_simulation_built(
            &built,
            &wl,
            Pattern::Uniform,
            &SimConfig {
                shards: ShardMode::Auto,
                ..base.clone()
            },
        );
        assert_bit_identical(&serial, &sharded, "drained");
    }

    #[test]
    fn sharded_bit_identical_on_event_cap_stop() {
        // The cap-breaching pop is counted but never executed; the
        // sharded engine must reconstruct that exact cut.
        let spec = spec();
        let wl = wl(8e-4);
        let built = BuiltSystem::build(&spec, wl.flit_bytes);
        for max_events in [5_000u64, 5_001, 20_000] {
            let base = SimConfig {
                max_events,
                ..cfg(53)
            };
            let serial = run_simulation_built(&built, &wl, Pattern::Uniform, &base);
            assert_eq!(serial.stop, StopReason::EventCap, "cap {max_events}");
            let sharded = run_simulation_built(
                &built,
                &wl,
                Pattern::Uniform,
                &SimConfig {
                    shards: ShardMode::Auto,
                    ..base
                },
            );
            assert_bit_identical(&serial, &sharded, &format!("cap/{max_events}"));
        }
    }

    #[test]
    fn threaded_workers_match_inline_protocol() {
        // Forcing two worker threads on any machine exercises the mpsc
        // window protocol; results must not depend on the worker count.
        let spec = spec();
        let wl = wl(5e-4);
        let built = BuiltSystem::build(&spec, wl.flit_bytes);
        let base = SimConfig {
            shards: ShardMode::Auto,
            ..cfg(59)
        };
        let arrival = ArrivalSpec::Poisson { rate: wl.lambda_g };
        let inline = run_sharded_workers(&built, &wl, Pattern::Uniform, &base, &arrival, 1);
        for workers in [2, 3, 5] {
            let threaded =
                run_sharded_workers(&built, &wl, Pattern::Uniform, &base, &arrival, workers);
            assert_bit_identical(&inline, &threaded, &format!("workers={workers}"));
            assert_eq!(
                inline.peak_live_msgs, threaded.peak_live_msgs,
                "slab peaks are worker-independent"
            );
        }
    }

    #[test]
    fn sharded_peak_live_is_max_of_shards_and_bounded_by_serial() {
        let spec = spec();
        let wl = wl(5e-4);
        let built = BuiltSystem::build(&spec, wl.flit_bytes);
        let serial = run_simulation_built(&built, &wl, Pattern::Uniform, &cfg(61));
        let sharded = run_simulation_built(
            &built,
            &wl,
            Pattern::Uniform,
            &SimConfig {
                shards: ShardMode::Auto,
                ..cfg(61)
            },
        );
        assert!(sharded.peak_live_msgs >= 1);
        // Each shard sees a subset of the in-flight population, so the
        // max-of-shards peak never exceeds the serial slab (transit
        // messages can be double-materialised across a boundary, hence
        // a small slack).
        assert!(
            sharded.peak_live_msgs <= 2 * serial.peak_live_msgs,
            "sharded peak {} vs serial {}",
            sharded.peak_live_msgs,
            serial.peak_live_msgs
        );
    }

    #[test]
    fn cluster_local_pattern_bit_identical() {
        let spec = spec();
        let wl = wl(4e-4);
        let built = BuiltSystem::build(&spec, wl.flit_bytes);
        let base = cfg(67);
        let serial =
            run_simulation_built(&built, &wl, Pattern::ClusterLocal { locality: 0.9 }, &base);
        let sharded = run_simulation_built(
            &built,
            &wl,
            Pattern::ClusterLocal { locality: 0.9 },
            &SimConfig {
                shards: ShardMode::Auto,
                ..base
            },
        );
        assert_bit_identical(&serial, &sharded, "cluster-local");
    }

    #[test]
    fn ineligible_configs_fall_back_to_serial() {
        let spec = spec();
        let wl = wl(3e-4);
        let built = BuiltSystem::build(&spec, wl.flit_bytes);
        // Tracing is global state the shards cannot reproduce.
        let traced = SimConfig {
            shards: ShardMode::Auto,
            trace_messages: 3,
            ..cfg(71)
        };
        assert!(!sharding_eligible(&built, &traced));
        let r = run_simulation_built(&built, &wl, Pattern::Uniform, &traced);
        assert_eq!(r.traces.len(), 3);
        // Adaptive + timed faults re-draws RNG mid-run.
        let mut ada = cfg(71);
        ada.shards = ShardMode::Auto;
        ada.adaptive_routing = true;
        ada.faults.events = vec![crate::config::FaultEvent {
            time: 0.0,
            link: 0,
            action: FaultAction::Fail,
        }];
        assert!(!sharding_eligible(&built, &ada));
        // Off is off.
        assert!(!sharding_eligible(&built, &cfg(71)));
    }
}
