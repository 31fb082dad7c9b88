//! The future-event list: the `(time, sequence)`-ordered queue the
//! engines run on.
//!
//! Events are processed earliest-first; ties break on insertion sequence,
//! so a run's event order is a pure function of the simulation — the
//! backbone of the bit-identical-per-seed guarantee. The [`Scheduler`]
//! trait captures exactly that contract, and two lists implement it:
//!
//! * [`EventQueue`] — a classic `BinaryHeap` future-event list, O(log n)
//!   push/pop. Every engine runs on it.
//! * [`CalendarQueue`] — a self-resizing calendar queue (R. Brown, CACM
//!   1988): events hash into time-bucketed "days" of a rotating "year",
//!   giving amortized O(1) enqueue/dequeue on the banded timestamp
//!   distributions a transfer-time model produces. No engine runs on it:
//!   with the arrivals kept beside it, the list holds tens to a few
//!   hundred events, and the heap won the paired benchmark runs on both
//!   workloads (README, "Future-event list"). It stays for the pop-order
//!   property tests and the benchmark's hold-time replay.
//!
//! Both pop in the **identical** total order — `(time, seq)`
//! earliest-first — which the cross-backend property tests in
//! `tests/scheduler_order.rs` pin.
//!
//! An engine may keep some events beside its scheduler in an
//! [`ArrivalBand`]: the band numbers them from the scheduler's own
//! sequence counter and [`ArrivalBand::pop_merged`] pops whichever head
//! is earlier, so the split pops in exactly the order one scheduler
//! holding every event would. The worm engine keeps each node's pending
//! arrival there, which leaves the scheduler holding only the events of
//! messages in flight. It also keeps each release nobody waits for beside
//! the list, numbered by [`Scheduler::reserve_seq`], and pushes it under
//! the key it reserved only once a request must wait for it.
//!
//! The heap backend retains its capacity across pushes and pops, so a
//! warmed-up loop never touches the allocator; the calendar reuses its
//! bucket and overflow storage per event and allocates only on resizes
//! and year rebalances (amortized O(1) over the events that trigger
//! them).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// One scheduled event: an engine-specific payload at a point in time.
#[derive(Debug, Clone, Copy)]
pub struct Timed<K> {
    /// Simulation time the event fires at.
    pub time: f64,
    /// Insertion sequence number (tie-breaker; unique per queue).
    pub seq: u64,
    /// Engine-specific payload.
    pub kind: K,
}

impl<K> PartialEq for Timed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<K> Eq for Timed<K> {}
impl<K> PartialOrd for Timed<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for Timed<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Whether `a` pops before `b`: earlier time, ties by insertion sequence.
#[inline]
fn earlier<K>(a: &Timed<K>, b: &Timed<K>) -> bool {
    key_lt((a.time, a.seq), (b.time, b.seq))
}

/// Whether the `(time, seq)` key `a` pops before `b`.
#[inline]
pub(crate) fn key_lt(a: (f64, u64), b: (f64, u64)) -> bool {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt()
}

/// The deterministic future-event-list contract.
///
/// Implementations must pop events in strict `(time, seq)` order, where
/// `seq` is the insertion sequence the scheduler assigns itself — i.e.
/// earliest time first, ties broken by insertion order. Two conforming
/// backends are therefore interchangeable without perturbing a single
/// event of a seeded run. The engines run on [`EventQueue`] itself; the
/// pop-order property tests and perfbench's hold-time replay drive both
/// lists through this trait.
pub trait Scheduler<K> {
    /// An empty scheduler.
    fn new() -> Self;

    /// Schedules `kind` at `time`, after every event already scheduled
    /// for the same instant.
    fn schedule(&mut self, time: f64, kind: K);

    /// Takes the next insertion sequence number without scheduling
    /// anything, exactly as [`Scheduler::schedule`] would have taken it.
    /// An engine that keeps some of its events beside the queue (the worm
    /// engine's per-node arrival band) numbers them from here, so one
    /// counter orders every event, queued or not, and merging the two by
    /// `(time, seq)` reproduces the pop order of a single queue.
    fn reserve_seq(&mut self) -> u64;

    /// Removes and returns the earliest event (insertion order on ties).
    fn pop(&mut self) -> Option<Timed<K>>;

    /// `(time, seq)` of the event the next [`Scheduler::pop`] would
    /// return, without removing it. Takes `&mut self` so backends may
    /// advance internal cursors (the calendar's day rotation) exactly as
    /// the pop would — the pending set and the pop order are unchanged.
    /// The worm engine compares it with its arrival band's head to pick
    /// the next event; the windowed sharded engine finds its next sync
    /// horizon from the time.
    fn peek_key(&mut self) -> Option<(f64, u64)>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A deterministic binary-heap future-event list with automatic sequence
/// numbering — the list every engine runs on.
#[derive(Debug)]
pub struct EventQueue<K> {
    heap: BinaryHeap<Timed<K>>,
    seq: u64,
}

impl<K> Scheduler<K> for EventQueue<K> {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    #[inline]
    fn schedule(&mut self, time: f64, kind: K) {
        let seq = self.reserve_seq();
        self.heap.push(Timed { time, seq, kind });
    }

    #[inline]
    fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    #[inline]
    fn pop(&mut self) -> Option<Timed<K>> {
        self.heap.pop()
    }

    #[inline]
    fn peek_key(&mut self) -> Option<(f64, u64)> {
        self.heap.peek().map(|ev| (ev.time, ev.seq))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

impl<K> EventQueue<K> {
    /// Schedules `kind` under the key `(time, seq)`, whose sequence number
    /// an earlier [`Scheduler::reserve_seq`] took: the event pops exactly
    /// where scheduling it then would have popped it. The worm engine
    /// keeps a release nobody waits for beside the list and pushes it here
    /// once a request must wait for it.
    #[inline]
    pub(crate) fn schedule_reserved(&mut self, time: f64, seq: u64, kind: K) {
        debug_assert!(seq < self.seq, "the sequence number was reserved");
        self.heap.push(Timed { time, seq, kind });
    }
}

/// Events kept beside an [`EventQueue`] rather than in it, merged back by
/// `(time, seq)` at pop time.
///
/// Every event in the band takes its sequence number from the queue's
/// counter ([`Scheduler::reserve_seq`]), so band and queue share one
/// total order, and [`ArrivalBand::pop_merged`] returns exactly what a
/// single queue holding both would pop — exact-time ties between the two
/// included.
///
/// The band holds one pending arrival per node, in two parts:
///
/// * a **sorted cursor** over the primed arrivals (every node's first
///   arrival, handed to [`ArrivalBand::prime`] in node order; the band
///   sorts them once by `(time, seq)` and streams them in order), and
/// * a binary **re-draw heap** for arrivals drawn later
///   ([`ArrivalBand::schedule`]), so it holds only nodes that have
///   already generated.
///
/// The cursor is sorted, so its head is the earliest primed arrival, and
/// merging the three heads pops in the order one heap holding every
/// arrival would. On a large system most primed arrivals fire after
/// generation has ended; they stream from the cursor instead of costing
/// a heap pop each. Once the cursor is drained, which a small system does
/// within its first arrivals, [`ArrivalBand::pop_merged`] is the two-way
/// merge of the re-draw heap and the queue behind one predictable branch.
#[derive(Debug)]
pub struct ArrivalBand<A> {
    /// The primed arrivals, sorted by `(time, seq)`; `primed[next..]` are
    /// pending.
    primed: Vec<Primed<A>>,
    next: usize,
    /// Sequence number of the first primed arrival; the others follow it
    /// consecutively, so an entry stores its offset from here.
    base: u64,
    heap: BinaryHeap<Timed<A>>,
}

/// A primed arrival: 16 bytes for a `u32` payload, the sequence number
/// kept as its offset from [`ArrivalBand`]'s base.
#[derive(Debug, Clone, Copy)]
struct Primed<A> {
    time: f64,
    off: u32,
    payload: A,
}

/// An event popped by [`ArrivalBand::pop_merged`]: from the band, or from
/// the queue beside it.
#[derive(Debug, Clone, Copy)]
pub enum Merged<A, K> {
    /// The band's head was earlier.
    Band(Timed<A>),
    /// The queue's head was earlier.
    Queue(Timed<K>),
}

impl<A, K> Merged<A, K> {
    /// `(time, seq)` of the popped event.
    #[inline]
    pub fn key(&self) -> (f64, u64) {
        match self {
            Merged::Band(ev) => (ev.time, ev.seq),
            Merged::Queue(ev) => (ev.time, ev.seq),
        }
    }
}

impl<A: Copy> ArrivalBand<A> {
    /// Primes the band with `arrivals`, numbered in iteration order from
    /// `queue`'s counter exactly as `queue.schedule` would have numbered
    /// them, and sorts them once by `(time, seq)`. Call it once, on an
    /// empty band, before the first pop.
    pub fn prime<K>(
        &mut self,
        queue: &mut EventQueue<K>,
        arrivals: impl IntoIterator<Item = (f64, A)>,
    ) {
        debug_assert!(self.is_empty(), "a band is primed once, before any pop");
        let arrivals = arrivals.into_iter();
        self.primed = Vec::with_capacity(arrivals.size_hint().0);
        self.next = 0;
        for (time, payload) in arrivals {
            let seq = queue.reserve_seq();
            if self.primed.is_empty() {
                self.base = seq;
            }
            let off = u32::try_from(seq - self.base).expect("primed sequence offsets fit u32");
            self.primed.push(Primed { time, off, payload });
        }
        self.sort_primed();
    }

    /// The one sort of the primed arrivals, kept out of line so it stays
    /// out of any caller's loop. Offsets are unique, so the unstable sort
    /// is deterministic.
    #[inline(never)]
    fn sort_primed(&mut self) {
        self.primed
            .sort_unstable_by(|a, b| a.time.total_cmp(&b.time).then(a.off.cmp(&b.off)));
    }

    /// Adds `payload` at `time` to the re-draw heap, numbered from
    /// `queue`'s counter exactly as `queue.schedule` would have numbered
    /// it.
    #[inline]
    pub fn schedule<K>(&mut self, queue: &mut EventQueue<K>, time: f64, payload: A) {
        let seq = queue.reserve_seq();
        self.heap.push(Timed {
            time,
            seq,
            kind: payload,
        });
    }

    /// Removes the earliest of the band's head and `queue`'s by
    /// `(time, seq)`; `None` once both are empty.
    #[inline]
    pub fn pop_merged<K>(&mut self, queue: &mut EventQueue<K>) -> Option<Merged<A, K>> {
        if self.next < self.primed.len() && self.cursor_first(queue) {
            let p = self.primed[self.next];
            self.next += 1;
            return Some(Merged::Band(Timed {
                time: p.time,
                seq: self.base + u64::from(p.off),
                kind: p.payload,
            }));
        }
        let band_first = match (self.heap.peek(), queue.peek_key()) {
            (Some(b), Some(q)) => key_lt((b.time, b.seq), q),
            (band, _) => band.is_some(),
        };
        if band_first {
            self.heap.pop().map(Merged::Band)
        } else {
            queue.pop().map(Merged::Queue)
        }
    }

    /// Whether the cursor's head pops before the re-draw heap's and
    /// `queue`'s: the three-way part of [`ArrivalBand::pop_merged`], run
    /// only while primed arrivals remain. Out of line, so the drained path
    /// stays the two-way merge inlined in the caller's loop. It answers
    /// with a `bool` and leaves building the event to the caller: an
    /// out-of-line merge that returned the event itself cost the
    /// fig5_sweep benchmark about 3%, on every event.
    #[inline(never)]
    fn cursor_first<K>(&mut self, queue: &mut EventQueue<K>) -> bool {
        let p = &self.primed[self.next];
        let cursor = (p.time, self.base + u64::from(p.off));
        self.heap
            .peek()
            .is_none_or(|h| key_lt(cursor, (h.time, h.seq)))
            && queue.peek_key().is_none_or(|q| key_lt(cursor, q))
    }

    /// Whether the band is empty.
    pub fn is_empty(&self) -> bool {
        self.next == self.primed.len() && self.heap.is_empty()
    }

    /// Number of pending arrivals.
    pub fn len(&self) -> usize {
        self.primed.len() - self.next + self.heap.len()
    }

    /// Time of the latest pending arrival; `None` when the band is empty.
    pub fn max_time(&self) -> Option<f64> {
        let cursor = self.primed[self.next..].last().map(|p| p.time);
        let heap = self.heap.iter().map(|ev| ev.time);
        heap.chain(cursor).max_by(f64::total_cmp)
    }

    /// Removes the pending arrivals keyed before `key` by `(time, seq)`
    /// and returns how many it removed: a binary search of the sorted
    /// cursor and a scan of the re-draw heap. The worm engine stops
    /// popping the band once its population is generated, since each
    /// arrival left is then a no-op, and counts them here instead.
    pub fn take_before(&mut self, key: (f64, u64)) -> usize {
        let base = self.base;
        let due = self.primed[self.next..]
            .partition_point(|p| key_lt((p.time, base + u64::from(p.off)), key));
        self.next += due;
        let heap = self.heap.len();
        self.heap.retain(|ev| !key_lt((ev.time, ev.seq), key));
        due + heap - self.heap.len()
    }
}

/// An empty band.
impl<A> Default for ArrivalBand<A> {
    fn default() -> Self {
        ArrivalBand {
            primed: Vec::new(),
            next: 0,
            base: 0,
            heap: BinaryHeap::new(),
        }
    }
}

/// Initial (and minimum) bucket count; a power of two so the day→bucket
/// map is a mask.
const MIN_BUCKETS: usize = 256;

/// How many soonest-due events the resize width estimator samples.
const HEAD_SAMPLE: usize = 32;

/// A self-resizing calendar queue (Brown 1988) with an overflow band:
/// the amortized O(1) backend.
///
/// Time is divided into `width`-sized *days*; the `nbuckets` buckets form
/// the current *year* — a window of `nbuckets` consecutive days, one
/// bucket per day (`day mod nbuckets`). Only events due within the
/// current year live in buckets; everything further out sits in an
/// **overflow band** (a min-heap) and migrates into buckets when its year
/// arrives. That split is what keeps the structure O(1) on the workloads
/// a discrete-event engine produces: the dense band of in-flight
/// transfer events just above `now` enjoys direct bucket access, while
/// the sparse far-future arrival events neither pollute the buckets nor
/// stretch the width estimate.
///
/// Each bucket is kept sorted in **ascending** pop order, so its
/// earliest event sits at the front: the pop-side due check is one
/// comparison and removal is a `pop_front` (`day_of` is monotone in
/// time, so the bucket minimum is due iff anything in the bucket is),
/// while same-instant bursts append at the back in O(1) (insertion
/// order is exactly pop order on ties). Popping advances day by day
/// within the year; an exhausted year jumps straight to the earliest
/// overflow event and migrates its year in.
///
/// The structure resizes itself: the bucket count doubles when the
/// in-year band exceeds two events per bucket (and shrinks when it falls
/// far below), and each resize re-estimates the day width from the event
/// density near the head so a day keeps holding O(1) events. Day
/// membership is computed with the *same* `floor(time / width)`
/// expression everywhere, so no floating-point drift can reorder events
/// across bucket boundaries; within a day the sorted order reproduces
/// the heap's `(time, seq)` order exactly.
#[derive(Debug)]
pub struct CalendarQueue<K> {
    /// Buckets sorted ascending by pop order (earliest event first).
    buckets: Vec<VecDeque<Timed<K>>>,
    /// `nbuckets - 1` (bucket count is a power of two).
    mask: usize,
    /// Events currently in buckets (the in-year band).
    band_len: usize,
    /// Total pending events (band + overflow).
    len: usize,
    seq: u64,
    /// Day length in simulation-time units.
    width: f64,
    /// `1.0 / width`, cached so day computation is a multiply.
    inv_width: f64,
    /// Current day of the rotation (day `d` covers
    /// `[d·width, (d+1)·width)`).
    day: i64,
    /// First day beyond the current year window; events at or past it
    /// live in `overflow`.
    year_end: i64,
    /// The overflow band: events due beyond the current year, earliest
    /// first (reversed [`Timed`] order makes `BinaryHeap` a min-heap).
    overflow: BinaryHeap<Timed<K>>,
    /// Largest band population seen this year — the signal the year-jump
    /// rebalance shrinks the bucket array on.
    year_max_band: usize,
}

impl<K> CalendarQueue<K> {
    /// The day `time` belongs to, computed identically at insert and pop.
    ///
    /// Clamped to a quarter of the `i64` range so day arithmetic
    /// (`day + nbuckets`) can never overflow: times far beyond the clamp
    /// (including `f64::INFINITY`) all share the extreme day and are
    /// ordered by the in-bucket `(time, seq)` sort instead — the day is
    /// only a routing hint, never the comparison key.
    #[inline]
    fn day_of(&self, time: f64) -> i64 {
        // `as i64` saturates on overflow/NaN, then the clamp bounds it.
        ((time * self.inv_width).floor() as i64).clamp(i64::MIN / 4, i64::MAX / 4)
    }

    /// Bucket index of a day.
    #[inline]
    fn bucket_of(&self, day: i64) -> usize {
        // Power-of-two modulo that is correct for negative days too.
        (day & self.mask as i64) as usize
    }

    /// Inserts into a bucket, keeping it sorted ascending by pop order.
    /// Later-than-everything events (same-instant bursts, monotone
    /// schedules) land at the back in O(1); a `VecDeque` keeps inserts
    /// near either end cheap.
    #[inline]
    fn insert_sorted(bucket: &mut VecDeque<Timed<K>>, ev: Timed<K>) {
        if bucket.back().is_none_or(|last| earlier(last, &ev)) {
            bucket.push_back(ev);
            return;
        }
        let pos = bucket.partition_point(|e| earlier(e, &ev));
        bucket.insert(pos, ev);
    }

    /// Pulls every overflow event whose day now falls inside the year
    /// window into its bucket. Called after a year jump or a resize, so
    /// the invariant "overflow holds only events at or past `year_end`"
    /// is restored.
    fn migrate_overflow(&mut self) {
        while let Some(ev) = self.overflow.peek() {
            if self.day_of(ev.time) >= self.year_end {
                break;
            }
            let ev = self.overflow.pop().expect("peeked non-empty");
            let idx = self.bucket_of(self.day_of(ev.time));
            Self::insert_sorted(&mut self.buckets[idx], ev);
            self.band_len += 1;
        }
        self.year_max_band = self.year_max_band.max(self.band_len);
    }

    /// Re-buckets the band into `new_n` buckets, re-estimating the day
    /// width from the event density near the head and re-anchoring the
    /// year at the earliest pending event.
    ///
    /// The head-local estimate matters: a DES future-event list is
    /// typically bimodal — a dense band of in-flight transfer events just
    /// above `now` plus sparse arrival events far ahead. Sizing days from
    /// the global span would drown the dense band in one bucket and
    /// degrade every pop to a linear scan, so the width follows Brown's
    /// recommendation instead: a multiple of the average gap among the
    /// soonest-due events (the ones the next pops will actually touch).
    fn resize(&mut self, new_n: usize) {
        // Collect the band; overflow stays put (its events re-partition
        // through `migrate_overflow` below).
        let mut band: Vec<Timed<K>> = Vec::with_capacity(self.band_len);
        for bucket in &mut self.buckets {
            band.extend(bucket.drain(..));
        }
        if band.len() >= 2 {
            // The K soonest band times, via an O(len) selection.
            let mut times: Vec<f64> = band
                .iter()
                .map(|ev| ev.time)
                .filter(|t| t.is_finite())
                .collect();
            let k = times.len().min(HEAD_SAMPLE);
            if k >= 2 {
                times.select_nth_unstable_by(k - 1, f64::total_cmp);
                let head = &times[..k];
                let lo = head.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = head.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                // ~3 events per day at head density; a degenerate head
                // (all simultaneous) keeps the current width.
                let w = (hi - lo) / (k - 1) as f64 * 3.0;
                if w > 0.0 && w.is_finite() {
                    self.width = w;
                    self.inv_width = w.recip();
                }
            }
        }
        if self.buckets.len() != new_n {
            self.buckets = (0..new_n).map(|_| VecDeque::new()).collect();
            self.mask = new_n - 1;
        }
        // Re-anchor the year at the earliest pending event (the band and
        // the overflow head are the only candidates).
        let anchor = band
            .iter()
            .map(|ev| ev.time)
            .chain(self.overflow.peek().map(|ev| ev.time))
            .fold(f64::INFINITY, f64::min);
        if anchor.is_finite() {
            self.day = self.day_of(anchor);
            self.year_end = self.day + new_n as i64;
        }
        // Re-partition the band under the new width/window: in-year
        // events re-bucket, the rest join the overflow band.
        self.band_len = 0;
        for ev in band {
            let day = self.day_of(ev.time);
            if day >= self.year_end {
                self.overflow.push(ev);
            } else {
                let idx = self.bucket_of(day);
                Self::insert_sorted(&mut self.buckets[idx], ev);
                self.band_len += 1;
            }
        }
        self.migrate_overflow();
    }
}

impl<K> Scheduler<K> for CalendarQueue<K> {
    fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            mask: MIN_BUCKETS - 1,
            band_len: 0,
            len: 0,
            seq: 0,
            width: 1.0,
            inv_width: 1.0,
            day: 0,
            year_end: MIN_BUCKETS as i64,
            overflow: BinaryHeap::new(),
            year_max_band: 0,
        }
    }

    #[inline]
    fn schedule(&mut self, time: f64, kind: K) {
        let seq = self.reserve_seq();
        self.len += 1;
        let day = self.day_of(time);
        if day >= self.year_end {
            // Beyond the current year: the overflow band holds it until
            // its year arrives.
            self.overflow.push(Timed { time, seq, kind });
            return;
        }
        // An insert into a day the cursor has already passed (possible
        // whenever `time` is below the earliest *pending* event — e.g.
        // right after a year jump anchored the rotation there) rewinds
        // the cursor so the event cannot be missed.
        if day < self.day {
            self.day = day;
        }
        let idx = self.bucket_of(day);
        Self::insert_sorted(&mut self.buckets[idx], Timed { time, seq, kind });
        self.band_len += 1;
        self.year_max_band = self.year_max_band.max(self.band_len);
        if self.band_len > self.buckets.len() * 2 {
            let doubled = self.buckets.len() * 2;
            self.resize(doubled);
        }
    }

    #[inline]
    fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn pop(&mut self) -> Option<Timed<K>> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Rotate through the remaining days of the current year.
            while self.day < self.year_end {
                let idx = self.bucket_of(self.day);
                // The bucket minimum sits at the front; `day_of` is
                // monotone in time, so it is due iff anything in the
                // bucket is.
                if let Some(ev) = self.buckets[idx].front() {
                    if self.day_of(ev.time) <= self.day {
                        let ev = self.buckets[idx].pop_front().expect("checked non-empty");
                        self.band_len -= 1;
                        self.len -= 1;
                        return Some(ev);
                    }
                }
                self.day += 1;
            }
            // Year exhausted: every bucket is empty (the window held one
            // bucket per day and each day was visited). Jump straight to
            // the year of the earliest overflow event.
            debug_assert_eq!(self.band_len, 0, "exhausted year left band events behind");
            let next = self
                .overflow
                .peek()
                .expect("len > 0 with an empty band implies overflow events");
            self.day = self.day_of(next.time);
            self.year_end = self.day + self.buckets.len() as i64;
            // Rebalance on the year boundary, where the band is empty
            // and re-bucketing is cheapest: shrink when the whole past
            // year stayed far below capacity (a pop-side shrink would
            // fire on every year drain and thrash), grow when migration
            // overfills the new year.
            if self.year_max_band * 4 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
                let halved = self.buckets.len() / 2;
                self.resize(halved);
            } else {
                self.migrate_overflow();
            }
            while self.band_len > self.buckets.len() * 2 {
                let doubled = self.buckets.len() * 2;
                self.resize(doubled);
            }
            self.year_max_band = self.band_len;
        }
    }

    fn peek_key(&mut self) -> Option<(f64, u64)> {
        if self.len == 0 {
            return None;
        }
        // The same rotation walk as `pop`, stopping with the cursor ON the
        // due day instead of removing the event: the following pop re-runs
        // the (now trivial) walk and finds the same front event.
        loop {
            while self.day < self.year_end {
                let idx = self.bucket_of(self.day);
                if let Some(ev) = self.buckets[idx].front() {
                    if self.day_of(ev.time) <= self.day {
                        return Some((ev.time, ev.seq));
                    }
                }
                self.day += 1;
            }
            debug_assert_eq!(self.band_len, 0, "exhausted year left band events behind");
            let next = self
                .overflow
                .peek()
                .expect("len > 0 with an empty band implies overflow events");
            self.day = self.day_of(next.time);
            self.year_end = self.day + self.buckets.len() as i64;
            if self.year_max_band * 4 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
                let halved = self.buckets.len() / 2;
                self.resize(halved);
            } else {
                self.migrate_overflow();
            }
            while self.band_len > self.buckets.len() * 2 {
                let doubled = self.buckets.len() * 2;
                self.resize(doubled);
            }
            self.year_max_band = self.band_len;
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<K, S: Scheduler<K>>(q: &mut S) -> Vec<Timed<K>> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    fn check_time_then_sequence_order<S: Scheduler<u32>>() {
        let mut q = S::new();
        q.schedule(2.0, 0);
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(0.5, 3);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|e| e.kind).collect();
        assert_eq!(order, [3, 1, 2, 0]);
    }

    #[test]
    fn pops_in_time_then_sequence_order() {
        check_time_then_sequence_order::<EventQueue<u32>>();
        check_time_then_sequence_order::<CalendarQueue<u32>>();
    }

    fn check_sequence_numbers<S: Scheduler<u32>>() {
        let mut q = S::new();
        for i in 0..10 {
            q.schedule(1.0, i);
        }
        let mut last = None;
        while let Some(e) = q.pop() {
            if let Some(prev) = last {
                assert!(e.seq > prev);
            }
            last = Some(e.seq);
        }
    }

    #[test]
    fn sequence_numbers_are_unique_and_monotone() {
        check_sequence_numbers::<EventQueue<u32>>();
        check_sequence_numbers::<CalendarQueue<u32>>();
    }

    #[test]
    fn calendar_grows_through_resizes_and_stays_ordered() {
        // 1000 pending events force several doublings (16 → 1024-ish);
        // order must survive every re-bucketing.
        let mut q = CalendarQueue::<usize>::new();
        for i in 0..1000usize {
            // A deterministic scatter of times with duplicates.
            let t = ((i * 7919) % 500) as f64 * 0.25;
            q.schedule(t, i);
        }
        assert!(q.buckets.len() > MIN_BUCKETS, "growth did not trigger");
        assert_eq!(q.len(), 1000);
        let order = drain(&mut q);
        assert_eq!(order.len(), 1000);
        for w in order.windows(2) {
            assert!(
                earlier(&w[0], &w[1]),
                "order violated: {:?} {:?}",
                w[0],
                w[1]
            );
        }
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_shrinks_at_year_jumps_and_keeps_order() {
        let mut q = CalendarQueue::<usize>::new();
        for i in 0..600usize {
            q.schedule(i as f64 * 0.1, i);
        }
        let grown = q.buckets.len();
        assert!(grown > MIN_BUCKETS, "growth did not trigger");
        // Drain the dense band, then walk a sparse far-future schedule:
        // every event forces a year jump, and the jump-time rebalance
        // must shrink the bucket array back toward the tiny population
        // (a pop-side shrink would thrash on every year drain instead).
        let mut last_time = f64::NEG_INFINITY;
        for _ in 0..600 {
            let ev = q.pop().unwrap();
            assert!(ev.time >= last_time);
            last_time = ev.time;
        }
        for i in 0..8usize {
            q.schedule(last_time + 1e6 * (i + 1) as f64, 9000 + i);
        }
        let rest = drain(&mut q);
        assert_eq!(rest.len(), 8);
        for w in rest.windows(2) {
            assert!(earlier(&w[0], &w[1]));
        }
        assert_eq!(rest.last().unwrap().kind, 9007);
        assert!(
            q.buckets.len() < grown,
            "year-jump rebalance did not shrink ({} vs {grown})",
            q.buckets.len()
        );
    }

    #[test]
    fn calendar_resize_with_all_events_at_one_instant_keeps_width() {
        // A zero time-span gives the width estimator nothing to work
        // with; the resize must keep the old width (not collapse to 0 or
        // NaN) and preserve pure insertion order on the ties.
        let mut q = CalendarQueue::<usize>::new();
        for i in 0..200usize {
            q.schedule(42.0, i);
        }
        assert!(q.width > 0.0 && q.width.is_finite());
        let order = drain(&mut q);
        let kinds: Vec<usize> = order.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn calendar_sparse_far_future_takes_the_direct_path() {
        // One event a billion time units out: a year rotation can never
        // reach it; the direct search must find it (and re-anchor so the
        // next pop is cheap).
        let mut q = CalendarQueue::<&str>::new();
        q.schedule(0.25, "now");
        q.schedule(1e9, "later");
        q.schedule(1e9, "later2");
        assert_eq!(q.pop().unwrap().kind, "now");
        assert_eq!(q.pop().unwrap().kind, "later");
        assert_eq!(q.pop().unwrap().kind, "later2");
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_handles_extreme_and_infinite_times() {
        // Times far beyond the day clamp (including infinity) must stay
        // orderable and never hang or overflow the day arithmetic — the
        // heap handles them, so the interchangeability contract says the
        // calendar must too.
        let mut q = CalendarQueue::<&str>::new();
        q.schedule(f64::INFINITY, "inf");
        q.schedule(1.0, "now");
        q.schedule(1e300, "huge");
        q.schedule(f64::INFINITY, "inf2");
        assert_eq!(q.pop().unwrap().kind, "now");
        assert_eq!(q.pop().unwrap().kind, "huge");
        assert_eq!(q.pop().unwrap().kind, "inf");
        assert_eq!(q.pop().unwrap().kind, "inf2");
        assert!(q.pop().is_none());
        // And scheduling resumes normally afterwards.
        q.schedule(2.0, "later");
        assert_eq!(q.pop().unwrap().kind, "later");
    }

    #[test]
    fn calendar_same_instant_bursts_append_in_constant_time() {
        // Every tie lands at the back of its bucket (no memmove of the
        // existing tie group): a large burst must drain in pure insertion
        // order without quadratic cost.
        let mut q = CalendarQueue::<usize>::new();
        for i in 0..20_000usize {
            q.schedule(7.5, i);
        }
        for i in 0..20_000usize {
            assert_eq!(q.pop().unwrap().kind, i);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn empty_pop_is_none_for_both() {
        assert!(EventQueue::<u8>::new().pop().is_none());
        assert!(CalendarQueue::<u8>::new().pop().is_none());
    }

    fn check_peek_matches_pop<S: Scheduler<usize>>() {
        let mut q = S::new();
        assert_eq!(q.peek_key(), None);
        for i in 0..500usize {
            let t = ((i * 7919) % 251) as f64 * 0.5;
            q.schedule(t, i);
        }
        // Every peek must equal the following pop's key, and an insert
        // below the peeked head must rewind the peek to it.
        let mut inserted = false;
        for n in 0..501usize {
            let (peeked, seq) = q.peek_key().unwrap();
            if n == 100 && !inserted {
                // Head after 100 pops is well above 0; halving it makes
                // the insert the strict new minimum.
                assert!(peeked > 0.0);
                q.schedule(peeked * 0.5, 9_000);
                assert_eq!(q.peek_key().unwrap(), (peeked * 0.5, 500));
                inserted = true;
                let ev = q.pop().unwrap();
                assert_eq!(ev.kind, 9_000);
                assert_eq!((ev.time, ev.seq), (peeked * 0.5, 500));
                continue;
            }
            let ev = q.pop().unwrap();
            assert_eq!((ev.time, ev.seq), (peeked, seq));
        }
        assert_eq!(q.peek_key(), None);
        assert!(q.pop().is_none());
    }

    fn check_reserved_seq<S: Scheduler<u8>>() {
        let mut q = S::new();
        q.schedule(1.0, 0);
        assert_eq!(q.reserve_seq(), 1);
        q.schedule(1.0, 2);
        assert_eq!(q.len(), 2, "a reservation schedules nothing");
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 2);
    }

    #[test]
    fn reserved_sequence_numbers_are_never_reused() {
        check_reserved_seq::<EventQueue<u8>>();
        check_reserved_seq::<CalendarQueue<u8>>();
    }

    #[test]
    fn peek_key_matches_pop_for_both() {
        check_peek_matches_pop::<EventQueue<usize>>();
        check_peek_matches_pop::<CalendarQueue<usize>>();
    }
}
