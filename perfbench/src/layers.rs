//! Replayed layer costs for the traced run: each layer's public entry
//! point timed in isolation on the workload's own system, traffic
//! pattern and sizes. The engine calls the same entry points per event or
//! per message, so these costs split the engine's host time by layer.

use crate::workload::Prepared;
use cocnet::sim::{BuiltSystem, CalendarQueue, EventQueue, Scheduler};
use cocnet::stats::OnlineStats;
use cocnet::topology::{AnyTopology, RouteMode, RouteQuery, TopoSpec, Topology};
use cocnet_workloads::ArrivalSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Pairs sampled per replay.
const PAIRS: usize = 20_000;

/// Stream separator so the replays' draws never repeat the simulation's.
const REPLAY_STREAM: u64 = 0x7265_706c_6179;

fn ns_per(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// `PAIRS` (src, dst) pairs drawn from the workload's traffic pattern.
pub fn sample_pairs(prep: &Prepared, seed: u64) -> Vec<(usize, usize)> {
    let spec = &prep.scenario.spec;
    let total = spec.total_nodes();
    let mut rng = StdRng::seed_from_u64(seed ^ REPLAY_STREAM);
    (0..PAIRS)
        .map(|_| {
            let src = rng.random_range(0..total);
            (src, prep.scenario.pattern.sample(spec, src, &mut rng))
        })
        .collect()
}

/// Mean cost of one deterministic `RouteQuery` into a reused buffer: on
/// the source cluster's ICN1 for an intra-cluster pair, on ICN2 between
/// the two clusters otherwise.
pub fn route_query_ns(prep: &Prepared, pairs: &[(usize, usize)]) -> f64 {
    let spec = &prep.scenario.spec;
    let built = &prep.systems[0];
    // One graph per distinct cluster shape, as the simulator shares them.
    let mut shapes: Vec<(u32, TopoSpec, AnyTopology)> = Vec::new();
    let mut graph_of = Vec::with_capacity(spec.num_clusters());
    let mut offset = Vec::with_capacity(spec.num_clusters());
    let mut next = 0;
    for (ci, c) in spec.clusters.iter().enumerate() {
        let i = match shapes
            .iter()
            .position(|(n, t, _)| *n == c.n && *t == c.topology)
        {
            Some(i) => i,
            None => {
                let g = AnyTopology::build(spec.m, c.n, &c.topology).expect("validated spec");
                shapes.push((c.n, c.topology, g));
                shapes.len() - 1
            }
        };
        graph_of.push(i);
        offset.push(next);
        next += spec.cluster_nodes(ci);
    }
    let icn2 = AnyTopology::build(
        spec.m,
        spec.icn2_height().expect("tree ICN2"),
        &spec.topology,
    )
    .expect("validated spec");
    let queries: Vec<(&AnyTopology, usize, usize)> = pairs
        .iter()
        .map(|&(s, d)| {
            let (cs, cd) = (built.cluster_of(s), built.cluster_of(d));
            if cs == cd {
                (&shapes[graph_of[cs]].2, s - offset[cs], d - offset[cd])
            } else {
                (&icn2, cs, cd)
            }
        })
        .collect();
    let mut buf = Vec::new();
    let reps = 5;
    let start = Instant::now();
    for _ in 0..reps {
        for &(g, src, dst) in &queries {
            let q = RouteQuery {
                src,
                dst,
                policy: Default::default(),
                faults: None,
                mode: RouteMode::Deterministic,
            };
            black_box(g.route_query(&q, &mut buf).expect("routable pair"));
            black_box(&buf);
        }
    }
    ns_per(start, reps * queries.len())
}

/// One `route_ref` plus a `seg_meta` per segment, summed into a checksum
/// so the calls cannot be dropped.
fn lookup_all(built: &BuiltSystem, pairs: &[(usize, usize)]) -> u64 {
    let table = built.route_table();
    let mut sum = 0u64;
    for &(s, d) in pairs {
        let r = table.route_ref(s, d);
        for k in 0..table.num_segments(r) {
            sum = sum.wrapping_add(table.seg_meta(r, k).len as u64);
        }
    }
    sum
}

/// `(cold, warm)` ns per pair: the first lookups of a freshly built
/// system's table (which materialize classes), then the same lookups
/// again.
pub fn route_ref_ns(fresh: &BuiltSystem, pairs: &[(usize, usize)]) -> (f64, f64) {
    let start = Instant::now();
    black_box(lookup_all(fresh, pairs));
    let cold = ns_per(start, pairs.len());
    let reps = 5;
    let start = Instant::now();
    for _ in 0..reps {
        black_box(lookup_all(fresh, black_box(pairs)));
    }
    (cold, ns_per(start, reps * pairs.len()))
}

/// One Poisson arrival draw plus one `Pattern::sample`, as the engine
/// generates each message.
pub fn gen_ns_per_msg(prep: &Prepared, seed: u64, rate: f64) -> f64 {
    let spec = &prep.scenario.spec;
    let total = spec.total_nodes();
    let mut arrivals = ArrivalSpec::Poisson { rate }.build();
    let mut rng = StdRng::seed_from_u64(seed ^ REPLAY_STREAM);
    let n = PAIRS * 5;
    let start = Instant::now();
    for i in 0..n {
        black_box(arrivals.next_arrival(&mut rng));
        let src = i % total;
        black_box(prep.scenario.pattern.sample(spec, src, &mut rng));
    }
    ns_per(start, n)
}

/// One schedule + pop pair in the hold model: `pending` events stay
/// queued, and each pop reschedules its event one exponential step ahead
/// with mean `pending · step`, so the clock advances `step` per event.
pub fn hold_ns<S: Scheduler<u64>>(pending: usize, step: f64, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ REPLAY_STREAM);
    let mean = pending as f64 * step;
    let mut draw = move || -(1.0 - rng.random::<f64>()).ln() * mean;
    let mut q = S::new();
    for i in 0..pending {
        q.schedule(draw(), i as u64);
    }
    let holds = 400_000;
    let incs: Vec<f64> = (0..holds).map(|_| draw()).collect();
    let start = Instant::now();
    for inc in &incs {
        let ev = q.pop().expect("hold keeps the queue full");
        q.schedule(ev.time + inc, ev.kind);
    }
    let ns = ns_per(start, holds);
    black_box(q.len());
    ns
}

/// Heap and calendar hold costs.
pub fn hold_pair_ns(pending: usize, step: f64, seed: u64) -> (f64, f64) {
    (
        hold_ns::<EventQueue<u64>>(pending, step, seed),
        hold_ns::<CalendarQueue<u64>>(pending, step, seed),
    )
}

/// `OnlineStats::push` into the overall, intra- or inter-cluster, and
/// source-cluster sinks, per message, as the engine records a delivery.
pub fn sink_ns_per_msg(prep: &Prepared, pairs: &[(usize, usize)], mean_latency: f64) -> f64 {
    let built = &prep.systems[0];
    let clusters = prep.scenario.spec.num_clusters();
    let mut rng = StdRng::seed_from_u64(REPLAY_STREAM);
    let samples: Vec<(f64, bool, usize)> = pairs
        .iter()
        .map(|&(s, d)| {
            let (cs, cd) = (built.cluster_of(s), built.cluster_of(d));
            (mean_latency * (0.5 + rng.random::<f64>()), cs == cd, cs)
        })
        .collect();
    let mut all = OnlineStats::new();
    let mut intra = OnlineStats::new();
    let mut inter = OnlineStats::new();
    let mut per_cluster = vec![OnlineStats::new(); clusters];
    let reps = 10;
    let start = Instant::now();
    for _ in 0..reps {
        for &(x, is_intra, c) in black_box(&samples) {
            all.push(x);
            if is_intra {
                intra.push(x);
            } else {
                inter.push(x);
            }
            per_cluster[c].push(x);
        }
    }
    let ns = ns_per(start, reps * samples.len());
    black_box((
        all.mean(),
        intra.mean(),
        inter.mean(),
        per_cluster[0].mean(),
    ));
    ns
}
