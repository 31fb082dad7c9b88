//! Property tests over the simulator: for arbitrary (small) systems,
//! workloads and seeds, structural invariants must hold — message
//! conservation, reproducibility, sane latency bounds, busy-time sanity.

use cocnet::prelude::*;
use cocnet::sim::{run_simulation_flit, BuiltSystem, ShardMode};
use proptest::prelude::*;

/// Random small-but-valid system: m ∈ {4, 8}, tree-sized cluster count,
/// heights ≤ 2, Table 2-ish networks with random bandwidth ratios.
fn arb_system() -> impl Strategy<Value = SystemSpec> {
    (
        0u32..2,
        1u32..=2,
        1u32..=2,
        100.0f64..1000.0,
        100.0f64..1000.0,
    )
        .prop_map(|(mi, n_c, height, bw1, bw2)| {
            let m = [4u32, 8][mi as usize];
            let count = 2 * (m as usize / 2).pow(n_c);
            let net1 = NetworkCharacteristics::new(bw1, 0.01, 0.02).unwrap();
            let net2 = NetworkCharacteristics::new(bw2, 0.05, 0.01).unwrap();
            let cluster = ClusterSpec {
                n: height,
                icn1: net1,
                ecn1: net2,
                topology: Default::default(),
            };
            SystemSpec::new(m, vec![cluster; count], net1).unwrap()
        })
}

/// A short run that reports per-channel busy time, so the checks below
/// cover it.
fn quick_cfg(seed: u64) -> SimConfig {
    SimConfig {
        warmup: 100,
        measured: 1_000,
        drain: 100,
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

/// Event budget of a flit-engine run in `conservation_and_bounds`: about
/// 4x the 272 000 events its largest generated case takes, so a saturated
/// corner gives up quickly instead of grinding on.
const FLIT_MAX_EVENTS: u64 = 1_000_000;

/// The conservation and bound checks of one completed run of `quick_cfg`.
fn check_conservation_and_bounds(spec: &SystemSpec, m_flits: u32, r: &SimResults) {
    // Conservation: intra + inter recorded == total recorded.
    prop_assert_eq!(r.intra.count + r.inter.count, r.delivered_recorded);
    prop_assert_eq!(r.delivered_recorded, 1_000);
    prop_assert!(r.generated >= r.delivered_recorded);
    prop_assert!(r.generated <= 1_200);

    // Latency lower bound: no message can beat its serialization time
    // on the fastest network in the system.
    let min_t = spec
        .clusters
        .iter()
        .map(|c| c.icn1.t_cn(256.0))
        .fold(f64::INFINITY, f64::min)
        .min(spec.icn2.t_cn(256.0));
    prop_assert!(r.latency.min >= (m_flits as f64 - 1.0) * min_t);

    // Busy fractions within [0, 1], for every channel.
    prop_assert_eq!(r.channel_busy.len(), num_channels(spec));
    for &b in &r.channel_busy {
        prop_assert!(b >= 0.0);
        prop_assert!(b <= r.sim_time * (1.0 + 1e-9));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn conservation_and_bounds(
        spec in arb_system(),
        seed in 0u64..1000,
        rate_exp in -5.0f64..-3.0,
        m_flits in 2u32..40,
    ) {
        let rate = 10f64.powf(rate_exp);
        let wl = Workload::new(rate, m_flits, 256.0).unwrap();
        // Every engine runs each generated system; extreme corners may
        // saturate, so each run must complete or the case is skipped.
        let worm = run_simulation(&spec, &wl, Pattern::Uniform, &quick_cfg(seed));
        prop_assume!(worm.completed);
        check_conservation_and_bounds(&spec, m_flits, &worm);

        let sharded = SimConfig {
            shards: ShardMode::Auto,
            ..quick_cfg(seed)
        };
        let sharded = run_simulation(&spec, &wl, Pattern::Uniform, &sharded);
        prop_assume!(sharded.completed);
        check_conservation_and_bounds(&spec, m_flits, &sharded);

        let flit = SimConfig {
            max_events: FLIT_MAX_EVENTS,
            ..quick_cfg(seed)
        };
        let flit = run_simulation_flit(&spec, &wl, Pattern::Uniform, &flit);
        prop_assume!(flit.completed);
        check_conservation_and_bounds(&spec, m_flits, &flit);
    }

    #[test]
    fn reproducibility(spec in arb_system(), seed in 0u64..1000) {
        let wl = Workload::new(1e-4, 8, 256.0).unwrap();
        let a = run_simulation(&spec, &wl, Pattern::Uniform, &quick_cfg(seed));
        let b = run_simulation(&spec, &wl, Pattern::Uniform, &quick_cfg(seed));
        prop_assert_eq!(a.latency, b.latency);
        prop_assert_eq!(a.sim_time, b.sim_time);
        prop_assert_eq!(a.channel_busy.len(), num_channels(&spec));
        prop_assert_eq!(a.channel_busy, b.channel_busy);
    }

    #[test]
    fn model_is_always_optimistic_or_close(
        spec in arb_system(),
        seed in 0u64..100,
    ) {
        // At light load the model may sit below the simulation by the
        // documented offset, but must never exceed it by more than noise.
        let wl = Workload::new(5e-5, 16, 256.0).unwrap();
        let model = evaluate(&spec, &wl, &ModelOptions::default());
        prop_assume!(model.is_ok());
        let sim = run_simulation(&spec, &wl, Pattern::Uniform, &quick_cfg(seed));
        prop_assume!(sim.completed);
        let m = model.unwrap().latency;
        prop_assert!(
            m < sim.latency.mean * 1.10,
            "model {} far above sim {}",
            m,
            sim.latency.mean
        );
        prop_assert!(m > sim.latency.mean * 0.3);
    }

    #[test]
    fn locality_never_hurts_when_intra_is_fastest(
        spec in arb_system(),
        seed in 0u64..100,
    ) {
        // Only a theorem when the intra-cluster network is at least as fast
        // as the inter-cluster ones (the realistic configuration, and the
        // paper's Table 2 wiring). A slower ICN1 can legitimately make
        // local traffic the worse deal.
        prop_assume!(
            spec.clusters[0].icn1.bandwidth >= spec.clusters[0].ecn1.bandwidth
        );
        let wl = Workload::new(1e-4, 8, 256.0).unwrap();
        let uni = run_simulation(&spec, &wl, Pattern::Uniform, &quick_cfg(seed));
        let local = run_simulation(
            &spec,
            &wl,
            Pattern::ClusterLocal { locality: 0.9 },
            &quick_cfg(seed),
        );
        prop_assume!(uni.completed && local.completed);
        // Local traffic avoids the slow ECN1/ICN2 path; with identical
        // seeds and light load this is essentially deterministic.
        prop_assert!(local.latency.mean <= uni.latency.mean * 1.05);
    }
}
