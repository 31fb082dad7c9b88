//! Seed-pinned golden statistics: the interned-route/slab rework of the
//! simulators must be **bit-identical** to the PR-1 seed behaviour. Each
//! case pins `latency.mean` (as raw f64 bits), the recorded count, the
//! generated population and the final simulation clock for a fixed seed —
//! and every case is checked on the serial and sharded engines and on both
//! route-interning modes, so no engine or table can drift from the pinned
//! seed behaviour.
//!
//! If a change legitimately alters simulation semantics (not just its
//! implementation), regenerate the constants with
//! `cargo test --release -p cocnet --test golden_regression -- --ignored --nocapture`
//! and say so loudly in the PR.

use cocnet::prelude::*;
use cocnet::sim::{run_simulation_flit, Coupling, InternMode, ShardMode};

fn hetero_spec() -> SystemSpec {
    let net1 = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
    let net2 = NetworkCharacteristics::new(250.0, 0.05, 0.01).unwrap();
    let c = |n| ClusterSpec {
        n,
        icn1: net1,
        ecn1: net2,
        topology: Default::default(),
    };
    SystemSpec::new(4, vec![c(1), c(2), c(2), c(3)], net1).unwrap()
}

fn wide_spec() -> SystemSpec {
    let net1 = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
    let net2 = NetworkCharacteristics::new(250.0, 0.05, 0.01).unwrap();
    let c = |n| ClusterSpec {
        n,
        icn1: net1,
        ecn1: net2,
        topology: Default::default(),
    };
    let clusters = vec![c(1), c(1), c(2), c(2), c(1), c(2), c(1), c(1)];
    SystemSpec::new(8, clusters, net2).unwrap()
}

fn cfg_with(seed: u64) -> SimConfig {
    SimConfig {
        warmup: 500,
        measured: 5_000,
        drain: 500,
        seed,
        shards: SHARDS.with(|s| s.get()),
        interning: INTERN.with(|i| i.get()),
        ..SimConfig::default()
    }
}

// Threaded into every observed config so the same pinned table checks
// the serial oracle and the cluster-sharded engine alike — and, since
// PR 9, the class-keyed route table (the default) against the eager
// all-pairs interning oracle.
thread_local! {
    static SHARDS: std::cell::Cell<ShardMode> = const { std::cell::Cell::new(ShardMode::Off) };
    static INTERN: std::cell::Cell<InternMode> =
        const { std::cell::Cell::new(InternMode::Classed) };
}

/// One pinned observation.
struct Golden {
    name: &'static str,
    mean_bits: u64,
    count: u64,
    generated: u64,
    sim_time_bits: u64,
}

fn observe() -> Vec<(&'static str, cocnet::sim::SimResults)> {
    let wl = Workload::new(2e-4, 32, 256.0).unwrap();
    let hetero = hetero_spec();
    let wide = wide_spec();
    vec![
        (
            "vct_uniform",
            run_simulation(&hetero, &wl, Pattern::Uniform, &cfg_with(99)),
        ),
        (
            "saf_uniform",
            run_simulation(
                &hetero,
                &wl,
                Pattern::Uniform,
                &SimConfig {
                    coupling: Coupling::StoreAndForward,
                    ..cfg_with(99)
                },
            ),
        ),
        (
            "cut_through_uniform",
            run_simulation(
                &hetero,
                &wl,
                Pattern::Uniform,
                &SimConfig {
                    coupling: Coupling::CutThrough,
                    ..cfg_with(99)
                },
            ),
        ),
        (
            "adaptive_vct_uniform",
            run_simulation(
                &hetero,
                &wl,
                Pattern::Uniform,
                &SimConfig {
                    adaptive_routing: true,
                    ..cfg_with(99)
                },
            ),
        ),
        (
            "flit_saf_uniform",
            run_simulation_flit(
                &hetero,
                &Workload::new(2e-4, 8, 256.0).unwrap(),
                Pattern::Uniform,
                &SimConfig {
                    coupling: Coupling::StoreAndForward,
                    ..cfg_with(99)
                },
            ),
        ),
        (
            "vct_cluster_local",
            run_simulation(
                &hetero,
                &wl,
                Pattern::ClusterLocal { locality: 0.8 },
                &cfg_with(7),
            ),
        ),
        (
            "vct_wide_m8_complement",
            run_simulation(&wide, &wl, Pattern::Complement, &cfg_with(1234)),
        ),
    ]
}

/// Regenerates the table below; run with `-- --ignored --nocapture`.
#[test]
#[ignore]
fn print_golden_values() {
    for (name, r) in observe() {
        println!(
            "    Golden {{ name: \"{name}\", mean_bits: 0x{:016x}, count: {}, generated: {}, sim_time_bits: 0x{:016x} }},",
            r.latency.mean.to_bits(),
            r.latency.count,
            r.generated,
            r.sim_time.to_bits(),
        );
    }
}

const GOLDEN: &[Golden] = &[
    // Captured from the PR-1 seed engine via `print_golden_values`.
    Golden {
        name: "vct_uniform",
        mean_bits: 0x404648d3b5cc952d,
        count: 5000,
        generated: 5500,
        sim_time_bits: 0x4126e1bf19c501a5,
    },
    Golden {
        name: "saf_uniform",
        mean_bits: 0x4050d213417c825f,
        count: 5000,
        generated: 5500,
        sim_time_bits: 0x4126e1bf19c501a5,
    },
    Golden {
        name: "cut_through_uniform",
        mean_bits: 0x4040ba03960355ac,
        count: 5000,
        generated: 5500,
        sim_time_bits: 0x4126e1bf19c501a5,
    },
    Golden {
        name: "adaptive_vct_uniform",
        mean_bits: 0x404641b714a5fbec,
        count: 5000,
        generated: 5500,
        sim_time_bits: 0x412701258f85f929,
    },
    Golden {
        name: "flit_saf_uniform",
        mean_bits: 0x4032ca1e28633fe3,
        count: 5000,
        generated: 5500,
        sim_time_bits: 0x4126e1c68c75226a,
    },
    Golden {
        name: "vct_cluster_local",
        mean_bits: 0x4039f1480bd82bb3,
        count: 5000,
        generated: 5500,
        sim_time_bits: 0x412793ad0223bb36,
    },
    Golden {
        name: "vct_wide_m8_complement",
        mean_bits: 0x40426d925ff5f474,
        count: 5000,
        generated: 5500,
        sim_time_bits: 0x41095c452392d2c4,
    },
];

/// Checks the observations under the current engine and interning modes
/// against the pinned constants.
fn assert_matches_golden() {
    let observed = observe();
    let mode = format!(
        "shards {}, interning {}",
        SHARDS.with(|s| s.get()),
        INTERN.with(|i| i.get())
    );
    assert_eq!(observed.len(), GOLDEN.len());
    for (g, (name, r)) in GOLDEN.iter().zip(&observed) {
        assert_eq!(g.name, *name, "case order changed");
        assert!(r.completed, "{name} [{mode}]: run must complete");
        assert_eq!(
            g.mean_bits,
            r.latency.mean.to_bits(),
            "{name} [{mode}]: latency.mean drifted ({} vs expected {})",
            r.latency.mean,
            f64::from_bits(g.mean_bits),
        );
        assert_eq!(
            g.count, r.latency.count,
            "{name} [{mode}]: latency.count drifted"
        );
        assert_eq!(
            g.generated, r.generated,
            "{name} [{mode}]: generated drifted"
        );
        assert_eq!(
            g.sim_time_bits,
            r.sim_time.to_bits(),
            "{name} [{mode}]: sim_time drifted ({} vs expected {})",
            r.sim_time,
            f64::from_bits(g.sim_time_bits),
        );
    }
}

#[test]
fn statistics_bit_identical_to_seed_behaviour() {
    assert!(
        !GOLDEN.is_empty(),
        "golden table is empty; regenerate with print_golden_values"
    );
    assert_matches_golden();
}

#[test]
fn sharded_engine_matches_the_same_goldens() {
    // Intra-run sharding is likewise pure mechanism: the cluster-sharded
    // parallel engine must reproduce the PR-1 seed statistics f64-bit-
    // exactly on every pinned case. (The flit-level case ignores the mode
    // and runs serial.)
    for shards in [ShardMode::Auto, ShardMode::N(2)] {
        SHARDS.with(|s| s.set(shards));
        assert_matches_golden();
    }
    SHARDS.with(|s| s.set(ShardMode::Off));
}

#[test]
fn eager_interning_oracle_matches_the_same_goldens() {
    // Route interning is pure mechanism too: the class-keyed table (the
    // default every other test in this file now runs on) and the eager
    // all-pairs oracle must reproduce the PR-1 seed statistics f64-bit-
    // exactly, serial as well as sharded. With the other tests pinning
    // the classed path, this is the end-to-end classed-vs-eager
    // determinism cross-check.
    INTERN.with(|i| i.set(InternMode::Eager));
    assert_matches_golden();
    SHARDS.with(|s| s.set(ShardMode::N(2)));
    assert_matches_golden();
    SHARDS.with(|s| s.set(ShardMode::Off));
    INTERN.with(|i| i.set(InternMode::Classed));
}
