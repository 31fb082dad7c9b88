//! Cross-validation of the two simulation engines: the message-level worm
//! engine (fast, used for the figures) against the flit-level reference
//! engine (exact single-flit-buffer semantics).
//!
//! Both engines share traffic generation, routing and the
//! store-and-forward boundary, so any disagreement isolates the worm
//! engine's within-segment drain approximation.

use cocnet::prelude::*;
use cocnet::sim::run_simulation_flit;

fn spec(m: u32, heights: &[u32]) -> SystemSpec {
    let net1 = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
    let net2 = NetworkCharacteristics::new(250.0, 0.05, 0.01).unwrap();
    let clusters = heights
        .iter()
        .map(|&n| ClusterSpec {
            n,
            icn1: net1,
            ecn1: net2,
            topology: Default::default(),
        })
        .collect();
    SystemSpec::new(m, clusters, net1).unwrap()
}

fn cfg(seed: u64) -> SimConfig {
    SimConfig {
        warmup: 500,
        measured: 5_000,
        drain: 500,
        seed,
        coupling: Coupling::StoreAndForward,
        ..SimConfig::default()
    }
}

#[test]
fn engines_agree_at_light_load() {
    let s = spec(4, &[1, 1, 2, 2]);
    let wl = Workload::new(5e-5, 16, 256.0).unwrap();
    let worm = run_simulation(&s, &wl, Pattern::Uniform, &cfg(1));
    let flit = run_simulation_flit(&s, &wl, Pattern::Uniform, &cfg(1));
    assert!(worm.completed && flit.completed);
    let rel = (worm.latency.mean - flit.latency.mean).abs() / flit.latency.mean;
    assert!(
        rel < 0.01,
        "worm {} vs flit {} ({:.2}%)",
        worm.latency.mean,
        flit.latency.mean,
        rel * 100.0
    );
}

#[test]
fn engines_agree_under_contention() {
    let s = spec(4, &[1, 1, 2, 2]);
    let wl = Workload::new(6e-4, 16, 256.0).unwrap();
    let worm = run_simulation(&s, &wl, Pattern::Uniform, &cfg(2));
    let flit = run_simulation_flit(&s, &wl, Pattern::Uniform, &cfg(2));
    assert!(worm.completed && flit.completed);
    let rel = (worm.latency.mean - flit.latency.mean).abs() / flit.latency.mean;
    assert!(
        rel < 0.08,
        "worm {} vs flit {} ({:.2}%)",
        worm.latency.mean,
        flit.latency.mean,
        rel * 100.0
    );
}

#[test]
fn engines_agree_on_intra_only_traffic() {
    // Pure intra traffic (single network, no boundary): the engines differ
    // only in tail modeling; per-population means must track closely.
    let s = spec(8, &[2; 8]);
    let wl = Workload::new(2e-4, 24, 256.0).unwrap();
    let pattern = Pattern::ClusterLocal { locality: 1.0 };
    let worm = run_simulation(&s, &wl, pattern, &cfg(3));
    let flit = run_simulation_flit(&s, &wl, pattern, &cfg(3));
    assert!(worm.completed && flit.completed);
    assert_eq!(worm.inter.count, 0);
    assert_eq!(flit.inter.count, 0);
    let rel = (worm.latency.mean - flit.latency.mean).abs() / flit.latency.mean;
    assert!(rel < 0.02, "{:.3}%", rel * 100.0);
}

#[test]
fn flit_engine_utilisation_accounting_is_consistent() {
    // Busy fractions must lie in [0, 1] and the hottest channel under load
    // must be visibly utilised in both engines.
    let s = spec(4, &[1, 1, 2, 2]);
    let wl = Workload::new(3e-3, 32, 256.0).unwrap();
    let cfg = SimConfig {
        collect_channel_busy: true,
        ..cfg(4)
    };
    let channels = cocnet::sim::BuiltSystem::build(&s, wl.flit_bytes).num_channels();
    for r in [
        run_simulation(&s, &wl, Pattern::Uniform, &cfg),
        run_simulation_flit(&s, &wl, Pattern::Uniform, &cfg),
    ] {
        assert!(r.completed);
        assert_eq!(r.channel_busy.len(), channels);
        let max_util = r
            .channel_busy
            .iter()
            .map(|b| b / r.sim_time)
            .fold(0.0f64, f64::max);
        assert!(max_util > 0.05, "max util {max_util}");
        assert!(max_util <= 1.0 + 1e-9, "max util {max_util}");
    }
}

#[test]
fn engines_rank_coupling_free_loads_identically() {
    // Across three load levels the two engines must produce the same
    // ordering (a cheap distribution-free sanity check).
    let s = spec(4, &[1, 1, 2, 2]);
    let mut worm_means = Vec::new();
    let mut flit_means = Vec::new();
    for (i, rate) in [2e-4, 1.5e-3, 4e-3].into_iter().enumerate() {
        let wl = Workload::new(rate, 32, 256.0).unwrap();
        worm_means.push(
            run_simulation(&s, &wl, Pattern::Uniform, &cfg(10 + i as u64))
                .latency
                .mean,
        );
        flit_means.push(
            run_simulation_flit(&s, &wl, Pattern::Uniform, &cfg(10 + i as u64))
                .latency
                .mean,
        );
    }
    assert!(worm_means.windows(2).all(|w| w[1] > w[0]));
    assert!(flit_means.windows(2).all(|w| w[1] > w[0]));
}
