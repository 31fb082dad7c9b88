//! Seed-pinned golden statistics: the interned-route/slab rework of the
//! simulators must be **bit-identical** to the PR-1 seed behaviour. Each
//! case pins `latency.mean` (as raw f64 bits), the recorded count, the
//! generated population and the final simulation clock for a fixed seed —
//! and every case is checked on the serial and sharded engines and on both
//! route-interning modes, so no engine or table can drift from the pinned
//! seed behaviour. `run_simulation` and `run_simulation_flit` build the
//! route table that `cfg.interning` names, so the eager pass below runs on
//! the eager table itself.
//!
//! A second table pins, on the serial engine, where runs stop near their
//! end: a drained faulted run and a `drain: 0` run, uncapped and with
//! their event caps a few events short of the end.
//!
//! If a change legitimately alters simulation semantics (not just its
//! implementation), regenerate the constants with
//! `cargo test --release -p cocnet --test golden_regression -- --ignored --nocapture`
//! and say so loudly in the PR.

use cocnet::prelude::*;
use cocnet::sim::{
    run_simulation_built, run_simulation_flit, BuiltSystem, Coupling, FaultAction, FaultEvent,
    InternMode, ShardMode, StopReason,
};

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
    // determinism cross-check: every run here builds the eager table.
    INTERN.with(|i| i.set(InternMode::Eager));
    assert_matches_golden();
    SHARDS.with(|s| s.set(ShardMode::N(2)));
    assert_matches_golden();
    SHARDS.with(|s| s.set(ShardMode::Off));
    INTERN.with(|i| i.set(InternMode::Classed));
}

/// The stops a run can reach near its end: org_544 under the Lm = 512
/// workload at λ = 7e-4, with busy time on. `faulted` fails the injection
/// links of two nodes and repairs one, with three attempts per message,
/// so written-off messages leave its measured population short and the
/// run drains. `drain0` has no drain population, so it stops at its
/// measured count while the tail of its traffic still flows and its
/// remaining arrivals are due. Each also runs with its event cap 1, 2, 7,
/// 30 and 300 events short of its uncapped end: a cap among the last
/// events of a run must stop it where popping every event one by one
/// stops it, with the same clock and the same busy time.
fn stop_observations() -> Vec<(String, cocnet::sim::SimResults)> {
    let spec = cocnet::presets::org_544();
    let wl = cocnet::presets::wl_m32_l512().with_rate(7e-4);
    let built = BuiltSystem::build(&spec, wl.flit_bytes);
    let routes = built.route_table();
    let injection = |src: usize, dst: usize| {
        routes.chan_at(routes.seg_meta(routes.route_ref(src, dst), 0).start)
    };
    let base = SimConfig {
        warmup: 300,
        measured: 3_000,
        drain: 300,
        seed: 11,
        collect_channel_busy: true,
        ..SimConfig::default()
    };
    let mut faulted = base.clone();
    faulted.faults.events = vec![
        FaultEvent {
            time: 0.0,
            link: injection(0, 300),
            action: FaultAction::Fail,
        },
        FaultEvent {
            time: 500.0,
            link: injection(17, 400),
            action: FaultAction::Fail,
        },
        FaultEvent {
            time: 9_000.0,
            link: injection(0, 300),
            action: FaultAction::Repair,
        },
    ];
    faulted.faults.max_attempts = 3;
    faulted.faults.retry_timeout = 200.0;
    faulted.faults.max_timeout = 800.0;
    let drain0 = SimConfig { drain: 0, ..base };
    let mut out = Vec::new();
    for (name, cfg, end) in [
        ("faulted", faulted, FAULTED_END),
        ("drain0", drain0, DRAIN0_END),
    ] {
        let run = |cfg: &SimConfig| run_simulation_built(&built, &wl, Pattern::Uniform, cfg);
        out.push((name.to_string(), run(&cfg)));
        for short in [1, 2, 7, 30, 300] {
            let capped = SimConfig {
                max_events: end - short,
                ..cfg.clone()
            };
            out.push((format!("{name}, cap {short} short"), run(&capped)));
        }
    }
    out
}

/// Events the uncapped `faulted` and `drain0` runs of
/// [`stop_observations`] process.
const FAULTED_END: u64 = 104_273;
const DRAIN0_END: u64 = 95_353;

/// One pinned stop: why the run stopped, after how many events, its
/// clock, and the sum of its per-channel busy time.
struct StopGolden {
    name: &'static str,
    stop: StopReason,
    events: u64,
    sim_time_bits: u64,
    busy_bits: u64,
}

/// Regenerates [`STOP_GOLDEN`]; run with `-- --ignored --nocapture`.
#[test]
#[ignore]
fn print_stop_golden_values() {
    for (name, r) in stop_observations() {
        let busy: f64 = r.channel_busy.iter().sum();
        println!(
            "    StopGolden {{ name: \"{name}\", stop: StopReason::{:?}, events: {}, sim_time_bits: 0x{:016x}, busy_bits: 0x{:016x} }},",
            r.stop,
            r.events_processed,
            r.sim_time.to_bits(),
            busy.to_bits(),
        );
    }
}

const STOP_GOLDEN: &[StopGolden] = &[
    // Captured from the engine that popped every event, via
    // `print_stop_golden_values`.
    StopGolden {
        name: "faulted",
        stop: StopReason::Drained,
        events: 104273,
        sim_time_bits: 0x40d56f2e91fd1fdb,
        busy_bits: 0x4144fa317be758e5,
    },
    StopGolden {
        name: "faulted, cap 1 short",
        stop: StopReason::EventCap,
        events: 104273,
        sim_time_bits: 0x40d56eecb6da4ef6,
        busy_bits: 0x4144fa30f8311343,
    },
    StopGolden {
        name: "faulted, cap 2 short",
        stop: StopReason::EventCap,
        events: 104272,
        sim_time_bits: 0x40d56ea9e5f4eeb4,
        busy_bits: 0x4144fa2feced7dc2,
    },
    StopGolden {
        name: "faulted, cap 7 short",
        stop: StopReason::EventCap,
        events: 104267,
        sim_time_bits: 0x40d56d1be1dc5b3e,
        busy_bits: 0x4144fa1f5f1a8c18,
    },
    StopGolden {
        name: "faulted, cap 30 short",
        stop: StopReason::EventCap,
        events: 104244,
        sim_time_bits: 0x40d4feb10094ad27,
        busy_bits: 0x4144f92148936116,
    },
    StopGolden {
        name: "faulted, cap 300 short",
        stop: StopReason::EventCap,
        events: 103974,
        sim_time_bits: 0x40d4891fd9ab3447,
        busy_bits: 0x4144ec9708936117,
    },
    StopGolden {
        name: "drain0",
        stop: StopReason::MeasuredComplete,
        events: 95353,
        sim_time_bits: 0x40d35ceab4e44d78,
        busy_bits: 0x414334e8040821ce,
    },
    StopGolden {
        name: "drain0, cap 1 short",
        stop: StopReason::EventCap,
        events: 95353,
        sim_time_bits: 0x40d35ccfd39c9f63,
        busy_bits: 0x414334e5b4abf8d9,
    },
    StopGolden {
        name: "drain0, cap 2 short",
        stop: StopReason::EventCap,
        events: 95352,
        sim_time_bits: 0x40d35c6608dc1c51,
        busy_bits: 0x414334dbc9a9ec90,
    },
    StopGolden {
        name: "drain0, cap 7 short",
        stop: StopReason::EventCap,
        events: 95347,
        sim_time_bits: 0x40d35b44b0cbba03,
        busy_bits: 0x414334c144ed8210,
    },
    StopGolden {
        name: "drain0, cap 30 short",
        stop: StopReason::EventCap,
        events: 95324,
        sim_time_bits: 0x40d35241cf840bee,
        busy_bits: 0x414333c611fbd814,
    },
    StopGolden {
        name: "drain0, cap 300 short",
        stop: StopReason::EventCap,
        events: 95054,
        sim_time_bits: 0x40d2dedfc33a5181,
        busy_bits: 0x4143262e1570947f,
    },
];

#[test]
fn stops_near_the_end_of_a_run_bit_identical_to_the_eager_engine() {
    let observed = stop_observations();
    assert_eq!(observed.len(), STOP_GOLDEN.len());
    for (g, (name, r)) in STOP_GOLDEN.iter().zip(&observed) {
        assert_eq!(g.name, name, "case order changed");
        let busy: f64 = r.channel_busy.iter().sum();
        assert_eq!(
            (r.stop, r.events_processed),
            (g.stop, g.events),
            "{name}: stop drifted"
        );
        assert_eq!(
            r.sim_time.to_bits(),
            g.sim_time_bits,
            "{name}: sim_time drifted ({} vs expected {})",
            r.sim_time,
            f64::from_bits(g.sim_time_bits),
        );
        assert_eq!(
            busy.to_bits(),
            g.busy_bits,
            "{name}: busy time drifted ({busy} vs expected {})",
            f64::from_bits(g.busy_bits),
        );
    }
}
