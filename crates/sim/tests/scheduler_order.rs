//! Property tests pinning the calendar queue's pop order identical to
//! the binary heap's on randomized event streams.
//!
//! The [`Scheduler`] contract — strict `(time, seq)` earliest-first order
//! — is what makes the backends interchangeable without perturbing a
//! single event of a seeded run. Each property drives both backends with
//! the same interleaved schedule/pop workload a discrete-event loop
//! produces (inserts never travel into the past) and asserts every popped
//! event matches bitwise: time bits, sequence number, payload.
//!
//! Four timestamp shapes are exercised, mirroring what the engines emit:
//! clustered bands (segment finish times share bottleneck structure),
//! uniform gaps, same-instant ties (simultaneous releases), and bursts
//! whose offsets *decrease* toward the current time (a release schedule
//! walks a segment backwards, emitting near-`now` events last).
//!
//! A further property pins the worm engine's split event list: a stream
//! run through one heap, and the same stream split into a heap plus an
//! [`ArrivalBand`] merged by `(time, seq)`, pop identically — with a
//! handful of nodes, where re-drawn arrivals mix with primed ones from
//! the start, and with a bulk of nodes, where most pops stream from the
//! band's sorted cursor.

use cocnet_sim::{ArrivalBand, CalendarQueue, EventQueue, Merged, Scheduler, Timed};
use proptest::prelude::*;

/// One step of a workload: schedule this many events (with the given
/// offset picks), then pop this many.
#[derive(Debug, Clone)]
struct Step {
    offsets: Vec<f64>,
    pops: usize,
}

/// Runs the same workload through both backends, popping with the
/// non-decreasing `now` of a real event loop, and asserts bitwise-equal
/// pop streams. Finishes by draining both queues dry.
fn assert_identical_order(steps: &[Step], offset_of: impl Fn(f64) -> f64) {
    let mut heap = EventQueue::<u32>::new();
    let mut cal = CalendarQueue::<u32>::new();
    let mut now = 0.0f64;
    let mut payload = 0u32;
    let pop_both = |heap: &mut EventQueue<u32>, cal: &mut CalendarQueue<u32>| {
        let h = heap.pop();
        let c = cal.pop();
        match (&h, &c) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.time.to_bits(), b.time.to_bits(), "time diverged");
                assert_eq!(a.seq, b.seq, "sequence diverged");
                assert_eq!(a.kind, b.kind, "payload diverged");
            }
            _ => panic!("one backend empty while the other is not"),
        }
        h
    };
    for step in steps {
        for &raw in &step.offsets {
            // Events never travel into the past: schedule at `now + off`.
            let t = now + offset_of(raw);
            heap.schedule(t, payload);
            cal.schedule(t, payload);
            payload += 1;
        }
        assert_eq!(heap.len(), cal.len());
        for _ in 0..step.pops {
            if let Some(ev) = pop_both(&mut heap, &mut cal) {
                now = ev.time;
            }
        }
    }
    while let Some(ev) = pop_both(&mut heap, &mut cal) {
        now = ev.time;
    }
    let _ = now;
    assert!(heap.is_empty() && cal.is_empty());
}

fn arb_steps(max_batch: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (prop::collection::vec(0.0f64..1.0, 1..max_batch), 0usize..6)
            .prop_map(|(offsets, pops)| Step { offsets, pops }),
        1..30,
    )
}

proptest! {
    #[test]
    fn uniform_gaps_pop_identically(steps in arb_steps(8)) {
        // Offsets spread uniformly over ~10 time units.
        assert_identical_order(&steps, |raw| raw * 10.0);
    }

    #[test]
    fn clustered_bands_pop_identically(steps in arb_steps(8)) {
        // Three widely separated bands with small jitter — the banded
        // distribution a transfer-time model produces (and the shape
        // calendar queues are built for).
        assert_identical_order(&steps, |raw| {
            let band = (raw * 3.0).floor().min(2.0);
            band * 250.0 + (raw * 3.0 - band) * 0.05
        });
    }

    #[test]
    fn same_instant_ties_pop_in_insertion_order(steps in arb_steps(10)) {
        // Quantized offsets (including exactly `now`) make simultaneous
        // events common; the tie-break must be pure insertion order.
        assert_identical_order(&steps, |raw| (raw * 4.0).floor() * 0.5);
    }

    #[test]
    fn decreasing_offsets_near_now_pop_identically(steps in arb_steps(8)) {
        // Within a batch the raw draws are independent, but mapping
        // through 1/x-ish decay concentrates mass just above `now`,
        // and the per-batch reversal below emits the nearest event last
        // — the release-schedule pattern that walks a segment backwards.
        let reversed: Vec<Step> = steps
            .iter()
            .map(|s| {
                let mut sorted = s.offsets.clone();
                sorted.sort_by(|a, b| b.total_cmp(a));
                Step { offsets: sorted, pops: s.pops }
            })
            .collect();
        assert_identical_order(&reversed, |raw| 0.01 + raw * raw * 2.0);
    }
}

/// One operation of an event loop over nodes with one pending arrival each.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule a network event `offset` after `now`.
    Network(f64),
    /// Peek the next event, then schedule a network event between `now`
    /// and the peeked head's time.
    PeekThenUndercut(f64),
    /// Pop the next event; an arrival schedules its node's next one.
    Pop(f64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u32..3, 0.0f64..1.0).prop_map(|(kind, raw)| match kind {
            0 => Op::Network(raw),
            1 => Op::PeekThenUndercut(raw),
            _ => Op::Pop(raw),
        }),
        1..120,
    )
}

/// Offsets on a half-unit grid, zero included: arrivals and network
/// events land on the same instants all the time.
fn grid(raw: f64) -> f64 {
    (raw * 6.0).floor() * 0.5
}

/// Bit that marks an arrival's payload (the rest is the node id).
const ARRIVAL: u32 = 1 << 31;

/// Runs `ops` twice — every event through one heap, and arrivals in an
/// [`ArrivalBand`] beside the heap — and asserts that both pop the same
/// `(time, seq, payload)` stream, bit for bit.
///
/// Every node's first arrival is primed in node order (the band sorts
/// them into its cursor), on the half-unit grid, so with many nodes whole
/// runs of primed arrivals tie with each other, with re-drawn arrivals in
/// the band's heap and with network events in the queue.
fn assert_split_matches_single(nodes: u32, ops: &[Op]) {
    type Heap = EventQueue<u32>;
    let mut single = Heap::new();
    let mut queue = Heap::new();
    let mut band = ArrivalBand::<u32>::default();
    let mut now = 0.0f64;
    let mut payload = 0u32;
    // Node order is not time order: a stride scatters the first arrivals.
    let first = |node: u32| grid((node * 7 % nodes) as f64 / nodes as f64);
    for node in 0..nodes {
        single.schedule(first(node), ARRIVAL | node);
    }
    band.prime(
        &mut queue,
        (0..nodes).map(|node| (first(node), ARRIVAL | node)),
    );
    let pop_both = |single: &mut Heap, queue: &mut Heap, band: &mut ArrivalBand<u32>| {
        let a = single.pop();
        let b = band.pop_merged(queue).map(|m| match m {
            Merged::Band(ev) => {
                assert_ne!(ev.kind & ARRIVAL, 0, "band popped a network event");
                ev
            }
            Merged::Queue(ev) => {
                assert_eq!(ev.kind & ARRIVAL, 0, "queue popped an arrival");
                ev
            }
        });
        match (&a, &b) {
            (Some(a), Some(b)) => {
                assert_eq!(a.time.to_bits(), b.time.to_bits(), "time diverged");
                assert_eq!((a.seq, a.kind), (b.seq, b.kind), "event diverged");
            }
            (None, None) => {}
            _ => panic!("one side empty while the other is not"),
        }
        a
    };
    for &op in ops {
        match op {
            Op::Network(raw) => {
                single.schedule(now + grid(raw), payload);
                queue.schedule(now + grid(raw), payload);
                payload += 1;
            }
            Op::PeekThenUndercut(raw) => {
                // An insert below the peeked head must pop before it. The
                // split queue holds a subset of the single one's events,
                // so its head is never earlier.
                let head = single.peek_key();
                if let (Some(h), Some(q)) = (head, queue.peek_key()) {
                    assert!(h.0.total_cmp(&q.0).then(h.1.cmp(&q.1)).is_le());
                }
                if let Some((t, _)) = head {
                    let below = now + (t - now) * raw.min(0.5);
                    single.schedule(below, payload);
                    queue.schedule(below, payload);
                    payload += 1;
                }
            }
            Op::Pop(raw) => {
                if let Some(ev) = pop_both(&mut single, &mut queue, &mut band) {
                    now = ev.time;
                    if ev.kind & ARRIVAL != 0 {
                        single.schedule(now + grid(raw), ev.kind);
                        band.schedule(&mut queue, now + grid(raw), ev.kind);
                    }
                }
            }
        }
    }
    // Drain: arrivals stop being replaced, so both sides run dry.
    while pop_both(&mut single, &mut queue, &mut band).is_some() {}
    assert!(single.is_empty() && queue.is_empty() && band.is_empty());
}

proptest! {
    #[test]
    fn arrival_band_merge_pops_like_one_heap(ops in arb_ops()) {
        assert_split_matches_single(5, &ops);
        assert_split_matches_single(257, &ops);
    }
}

/// Deterministic cross-check at a scale that forces several calendar
/// resizes in both directions, with interleaved pops.
#[test]
fn large_interleaved_stream_matches_heap() {
    let mut heap = EventQueue::<usize>::new();
    let mut cal = CalendarQueue::<usize>::new();
    let mut now = 0.0f64;
    let mut x = 88172645463325252u64; // xorshift64 state
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    for round in 0..2000usize {
        let burst = 1 + (round % 7);
        for k in 0..burst {
            let t = now + rand() * 5.0;
            heap.schedule(t, round * 16 + k);
            cal.schedule(t, round * 16 + k);
        }
        for _ in 0..(round % 5) {
            match (heap.pop(), cal.pop()) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.time.to_bits(), b.time.to_bits());
                    assert_eq!((a.seq, a.kind), (b.seq, b.kind));
                    now = a.time;
                }
                (None, None) => {}
                _ => panic!("backends diverged in occupancy"),
            }
        }
    }
    loop {
        match (heap.pop(), cal.pop()) {
            (Some(a), Some(b)) => {
                assert_eq!(a.time.to_bits(), b.time.to_bits());
                assert_eq!((a.seq, a.kind), (b.seq, b.kind));
            }
            (None, None) => break,
            _ => panic!("backends diverged while draining"),
        }
    }
}

/// `Timed` is public API now; its ordering contract (earliest-first
/// through a max-heap reversal, sequence tie-break) is what both
/// backends implement.
#[test]
fn timed_ordering_contract() {
    let a = Timed {
        time: 1.0,
        seq: 0,
        kind: (),
    };
    let b = Timed {
        time: 1.0,
        seq: 1,
        kind: (),
    };
    let c = Timed {
        time: 2.0,
        seq: 2,
        kind: (),
    };
    // Reversed order: "greater" pops first from a max-heap.
    assert!(a > b && b > c && a > c);
    assert_eq!(a, a);
    assert_ne!(a, b);
}
