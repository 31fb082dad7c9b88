//! Cross-crate checks of the intra-run sharded engine on the paper's
//! organizations: full-struct bit-identity against the serial oracle,
//! index-stable aggregation merges, and a multicore wall-clock speedup
//! gate (skipped on small hosts, like the sweep-level gate in
//! `scenario_smoke`).

use cocnet::prelude::*;
use cocnet::presets;
use cocnet::sim::{run_simulation, BuiltSystem, ShardMode, SimResults};

/// A run that reports per-channel busy time, so the comparisons below
/// cover it.
fn base_cfg(seed: u64) -> SimConfig {
    SimConfig {
        warmup: 500,
        measured: 5_000,
        drain: 500,
        seed,
        collect_channel_busy: true,
        ..SimConfig::default()
    }
}

/// Channels of `spec`'s built system: the length of a `channel_busy`
/// that was asked for.
fn num_channels(spec: &SystemSpec) -> usize {
    BuiltSystem::build(spec, 256.0).num_channels()
}

/// Full-struct equality with the one documented exception: the slab
/// high-water mark is a per-shard maximum, not a global one.
fn assert_identical_modulo_peak(serial: &SimResults, sharded: &SimResults, label: &str) {
    let mut normalized = sharded.clone();
    normalized.peak_live_msgs = serial.peak_live_msgs;
    assert_eq!(
        serial, &normalized,
        "{label}: sharded run drifted from serial"
    );
}

#[test]
fn paper_organization_sharded_bit_identical() {
    // Table 1's N=544 / C=16 organization: every cluster becomes a shard
    // plus the ICN2 hub, and the merged statistics must be f64-bit-equal
    // to the serial engine, structure field by structure field.
    let spec = presets::org_544();
    let wl = presets::wl_m32_l256().with_rate(1e-4);
    let serial = run_simulation(&spec, &wl, Pattern::Uniform, &base_cfg(2024));
    assert!(serial.completed);
    assert_eq!(serial.channel_busy.len(), num_channels(&spec));
    for shards in [ShardMode::Auto, ShardMode::N(4)] {
        let sharded = run_simulation(
            &spec,
            &wl,
            Pattern::Uniform,
            &SimConfig {
                shards,
                ..base_cfg(2024)
            },
        );
        assert_identical_modulo_peak(&serial, &sharded, &format!("org_544/{shards:?}"));
    }
}

#[test]
fn aggregation_fields_merge_index_stably() {
    // The per-cluster summaries are indexed by source cluster; the
    // sharded merge must keep that indexing regardless of which shard
    // recorded each delivery. Channel busy-time ownership is likewise
    // positional: every channel's accumulator comes from the one shard
    // that owns it.
    let spec = presets::org_544();
    let wl = presets::wl_m32_l256().with_rate(1e-4);
    let serial = run_simulation(&spec, &wl, Pattern::Uniform, &base_cfg(7));
    let sharded = run_simulation(
        &spec,
        &wl,
        Pattern::Uniform,
        &SimConfig {
            shards: ShardMode::Auto,
            ..base_cfg(7)
        },
    );
    assert_eq!(serial.per_cluster.len(), spec.num_clusters());
    assert_eq!(sharded.per_cluster.len(), spec.num_clusters());
    let recorded: u64 = sharded.per_cluster.iter().map(|s| s.count).sum();
    assert_eq!(recorded, sharded.delivered_recorded);
    for (ci, (a, b)) in serial
        .per_cluster
        .iter()
        .zip(&sharded.per_cluster)
        .enumerate()
    {
        assert_eq!(a.count, b.count, "cluster {ci} count");
        assert_eq!(
            a.mean.to_bits(),
            b.mean.to_bits(),
            "cluster {ci} mean drifted"
        );
    }
    assert_eq!(serial.channel_busy.len(), num_channels(&spec));
    assert_eq!(sharded.channel_busy.len(), num_channels(&spec));
    for (c, (a, b)) in serial
        .channel_busy
        .iter()
        .zip(&sharded.channel_busy)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "channel {c} busy time drifted");
    }
    // The slab peak is the max over shards: bounded by the serial peak
    // (each shard sees a subset of the live population) plus the transit
    // copies that exist on both sides of a boundary crossing.
    assert!(sharded.peak_live_msgs >= 1);
    assert!(sharded.peak_live_msgs <= 2 * serial.peak_live_msgs);
}

#[test]
fn sharded_run_faster_on_multicore() {
    // Wall-clock gate for the actual point of the exercise. Sharding
    // pays barrier synchronisation per lookahead window, so the gate
    // runs a long, busy measurement where the per-window work dominates.
    // Skipped below four workers — the repo's CI floor for perf claims.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads < 4 {
        eprintln!("skipping sharded speedup assertion: only {threads} worker thread(s)");
        return;
    }
    let spec = presets::org_544();
    let wl = presets::wl_m32_l256().with_rate(3e-4);
    let cfg = SimConfig {
        warmup: 2_000,
        measured: 40_000,
        drain: 2_000,
        seed: 99,
        ..SimConfig::default()
    };
    let t0 = std::time::Instant::now();
    let serial = run_simulation(&spec, &wl, Pattern::Uniform, &cfg);
    let serial_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let sharded = run_simulation(
        &spec,
        &wl,
        Pattern::Uniform,
        &SimConfig {
            shards: ShardMode::Auto,
            ..cfg
        },
    );
    let sharded_time = t1.elapsed();
    assert_identical_modulo_peak(&serial, &sharded, "speedup-gate");
    let speedup = serial_time.as_secs_f64() / sharded_time.as_secs_f64();
    assert!(
        speedup > 1.5,
        "expected >1.5x sharded speedup on {threads} cores, got {speedup:.2}x \
         (serial {serial_time:.2?}, sharded {sharded_time:.2?})"
    );
}

#[test]
fn fig5_scale_runs_hit_real_ties_and_stay_bit_identical() {
    // At fig5 population sizes, same-instant cross-shard delivery ties
    // are real: one multi-channel release unblocks two messages on
    // different shards, and the symmetric topology finishes both
    // remaining paths in bit-equal time. The serial engine's natural
    // tie order (global schedule sequence) is unobservable from inside
    // a shard, so both engines defer their sink pushes and replay them
    // in the canonical (pop time, src, gen_time) order — this test runs
    // at the scale where that order actually gets exercised, one
    // lightly-loaded point and one contended point.
    use cocnet::sim::run_simulation_built;
    let spec = presets::org_544();
    let cfg = SimConfig {
        warmup: 2_000,
        measured: 20_000,
        drain: 2_000,
        seed: 2006,
        max_events: 500_000_000,
        collect_channel_busy: true,
        ..SimConfig::default()
    };
    let wl = Workload::new(0.0, 32, 256.0).unwrap().with_rate(0.0);
    let built = BuiltSystem::build(&spec, wl.flit_bytes);
    for rate in [1e-4, 6e-4] {
        let wl = wl.with_rate(rate);
        let serial = run_simulation_built(&built, &wl, Pattern::Uniform, &cfg);
        let sharded = run_simulation_built(
            &built,
            &wl,
            Pattern::Uniform,
            &SimConfig {
                shards: ShardMode::Auto,
                ..cfg.clone()
            },
        );
        assert_eq!(serial.channel_busy.len(), built.num_channels());
        assert_identical_modulo_peak(&serial, &sharded, &format!("fig5-scale rate {rate:e}"));
    }
}
