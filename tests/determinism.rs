//! Reproducibility guarantees: model evaluation is pure; simulation is
//! bit-identical for identical seeds and differs across seeds; statistics
//! accumulators are order-deterministic.

use cocnet::prelude::*;
use cocnet::registry;

fn spec() -> SystemSpec {
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

#[test]
fn model_evaluation_is_pure() {
    let wl = Workload::new(3e-4, 64, 256.0).unwrap();
    let opts = ModelOptions::default();
    let a = evaluate(&spec(), &wl, &opts).unwrap();
    let b = evaluate(&spec(), &wl, &opts).unwrap();
    assert_eq!(a, b);
}

#[test]
fn simulation_bit_identical_for_same_seed() {
    let wl = Workload::new(2e-4, 32, 256.0).unwrap();
    let cfg = SimConfig {
        warmup: 500,
        measured: 5_000,
        drain: 500,
        seed: 99,
        collect_channel_busy: true,
        ..SimConfig::default()
    };
    let a = run_simulation(&spec(), &wl, Pattern::Uniform, &cfg);
    let b = run_simulation(&spec(), &wl, Pattern::Uniform, &cfg);
    let channels = cocnet::sim::BuiltSystem::build(&spec(), wl.flit_bytes).num_channels();
    assert_eq!(a.channel_busy.len(), channels);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.intra, b.intra);
    assert_eq!(a.inter, b.inter);
    assert_eq!(a.sim_time, b.sim_time);
    assert_eq!(a.generated, b.generated);
    assert_eq!(a.channel_busy, b.channel_busy);
}

#[test]
fn simulation_differs_across_seeds_but_agrees_statistically() {
    let wl = Workload::new(2e-4, 32, 256.0).unwrap();
    let mk = |seed| {
        let cfg = SimConfig {
            warmup: 1_000,
            measured: 10_000,
            drain: 1_000,
            seed,
            ..SimConfig::default()
        };
        run_simulation(&spec(), &wl, Pattern::Uniform, &cfg)
    };
    let a = mk(1);
    let b = mk(2);
    assert_ne!(a.latency.mean, b.latency.mean);
    // Two independent replications of the same system must agree within
    // combined confidence bounds (wide tolerance: 10 %).
    let rel = (a.latency.mean - b.latency.mean).abs() / a.latency.mean;
    assert!(rel < 0.10, "replications diverge: {rel:.3}");
}

#[test]
fn coupling_modes_are_ordered_at_light_load() {
    // CutThrough ≤ VirtualCutThrough ≤ StoreAndForward in zero-load-ish
    // latency (each adds buffering delay).
    let wl = Workload::new(5e-5, 32, 256.0).unwrap();
    let mk = |coupling| {
        let cfg = SimConfig {
            warmup: 500,
            measured: 5_000,
            drain: 500,
            seed: 5,
            coupling,
            ..SimConfig::default()
        };
        run_simulation(&spec(), &wl, Pattern::Uniform, &cfg)
            .latency
            .mean
    };
    let ct = mk(Coupling::CutThrough);
    let vct = mk(Coupling::VirtualCutThrough);
    let saf = mk(Coupling::StoreAndForward);
    assert!(ct <= vct + 1e-9, "cut-through {ct} vs vct {vct}");
    assert!(vct <= saf + 1e-9, "vct {vct} vs store-and-forward {saf}");
}

#[test]
fn parallel_sweep_equals_sequential() {
    // The rayon-parallel figure harness must produce exactly the results of
    // sequential runs (each point is an independent seeded simulation).
    let sim_cfg = SimConfig {
        warmup: 200,
        measured: 2_000,
        drain: 200,
        seed: 3,
        ..SimConfig::default()
    };
    let mut scenario = registry::find("fig5")
        .and_then(|e| e.scenario())
        .unwrap()
        .with_sim(sim_cfg.clone());
    scenario.rates = scenario.rates.with_steps(3);
    let par = scenario.run_sim();
    // Sequential reference for the first workload.
    let wl = &scenario.workloads[0].workload;
    for p in &par[0].points {
        let r = run_simulation(
            &scenario.spec,
            &wl.with_rate(p.x),
            Pattern::Uniform,
            &sim_cfg,
        );
        assert_eq!(r.latency.mean, p.y, "rate {}", p.x);
    }
}
