//! End-to-end tests of precision-driven (adaptive) replication control:
//! determinism across execution strategies, convergence guarantees, the
//! fixed-mode equivalence contract, and the CI-bearing series plumbing —
//! on hand-picked scenarios and, for the one sweep loop both modes share,
//! on generated ones.

use cocnet::registry::small_spec_48;
use cocnet::runner::{PrecisionSpec, Scenario, Seeding};
use cocnet::sim::SimConfig;
use cocnet_model::Workload;
use cocnet_topology::{ClusterSpec, NetworkCharacteristics, SystemSpec};
use proptest::prelude::*;

fn demo_sim(seed: u64) -> SimConfig {
    SimConfig {
        warmup: 200,
        measured: 2_000,
        drain: 200,
        seed,
        ..SimConfig::default()
    }
}

fn adaptive_scenario(rel: f64, max_replications: usize) -> Scenario {
    Scenario::new("adaptive e2e", small_spec_48())
        .with_workload("Lm=256", Workload::new(0.0, 32, 256.0).unwrap())
        .with_grid(1e-3, 3)
        .with_seeding(Seeding::PerPoint)
        .with_precision(PrecisionSpec {
            rel_ci: Some(rel),
            max_replications,
            wave: 2,
            ..PrecisionSpec::default()
        })
        .with_sim(demo_sim(23))
}

/// The acceptance contract: the adaptive result is a pure function of the
/// scenario — the parallel wave schedule and the serial reference produce
/// the same converged replication counts and f64-bit-equal means/CIs, on
/// any thread count (this test is the thread-count-of-the-machine
/// instance; the schedule itself never consults the pool size).
#[test]
fn adaptive_parallel_bit_identical_to_serial() {
    let s = adaptive_scenario(0.1, 10);
    let p = s.precision.unwrap();
    let par = s.run_sim_detailed();
    let ser = s.run_sim_detailed_serial();
    assert_eq!(par, ser);
    for (pp, sp) in par.iter().flatten().zip(ser.iter().flatten()) {
        assert_eq!(pp.converged(&p), sp.converged(&p));
        assert_eq!(pp.summary().mean.to_bits(), sp.summary().mean.to_bits());
        assert_eq!(
            pp.ci(0.95).half_width.to_bits(),
            sp.ci(0.95).half_width.to_bits()
        );
    }
    // And the whole thing is reproducible run to run.
    assert_eq!(s.run_sim_detailed(), par);
}

/// A reachable target provably converges: every non-saturated point
/// reports a half-width within the declared bound.
#[test]
fn converged_points_meet_their_declared_target() {
    let s = adaptive_scenario(0.15, 16);
    let detailed = s.run_sim_detailed();
    let mut converged = 0;
    for point in detailed.iter().flatten() {
        if point.converged(&s.precision.unwrap()) {
            converged += 1;
            let (ci, mean) = (point.ci(0.95), point.summary().mean);
            assert!(
                ci.half_width <= 0.15 * mean,
                "rate {}: half-width {} exceeds 15% of mean {mean}",
                point.rate,
                ci.half_width,
            );
            assert!(point.runs.len() >= 2);
        }
        assert!(point.runs.len() <= 16);
    }
    assert!(converged > 0, "no point converged at a 15% target");
}

/// An unreachable target must stop at the cap with `converged = false` —
/// never loop.
#[test]
fn impossible_target_trips_the_cap() {
    let s = adaptive_scenario(1e-6, 4);
    for point in s.run_sim_detailed().iter().flatten() {
        assert!(!point.converged(&s.precision.unwrap()));
        assert_eq!(point.runs.len(), 4);
    }
}

/// Adaptive replications reuse the fixed-mode seed schedule, so an
/// adaptive point that spent k replications equals the fixed k-replication
/// run of the same scenario, bitwise.
#[test]
fn adaptive_spend_replays_as_a_fixed_run() {
    let s = adaptive_scenario(0.1, 8);
    let adaptive = s.run_sim_detailed();
    for (w, points) in adaptive.iter().enumerate() {
        for (p, point) in points.iter().enumerate() {
            let mut fixed = s.clone();
            fixed.precision = None;
            fixed.replications = point.runs.len();
            let fixed_detailed = fixed.run_sim_detailed();
            assert_eq!(*point, fixed_detailed[w][p], "workload {w} point {p}");
        }
    }
}

/// The CI series carries level, bounds and spend through to the report
/// layer, and the scenario round-trips through JSON with its precision.
#[test]
fn adaptive_series_and_serde_round_trip() {
    let s = adaptive_scenario(0.15, 8);
    let json = serde_json::to_string_pretty(&s).unwrap();
    let back: Scenario = serde_json::from_str(&json).unwrap();
    assert_eq!(back.precision, s.precision);
    back.validate().unwrap();

    let detailed = s.run_sim_detailed();
    let series = s.ci_series(&detailed, &s.precision.unwrap());
    assert_eq!(series.len(), 1);
    assert_eq!(series[0].level, 0.95);
    for (ci_point, point) in series[0].points.iter().zip(&detailed[0]) {
        assert_eq!(ci_point.y, point.summary().mean);
        assert_eq!(ci_point.lo, point.ci(0.95).lo());
        assert_eq!(ci_point.hi, point.ci(0.95).hi());
        assert_eq!(ci_point.replications, point.runs.len());
    }

    // A scenario file declaring `precision` parses and validates with no
    // Rust involvement beyond the serde layer.
    let declared = r#"{
        "name": "from file",
        "spec": {"m": 4, "clusters": [
            {"n": 1, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                     "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}},
            {"n": 1, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                     "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}},
            {"n": 2, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                     "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}},
            {"n": 2, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                     "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}}],
            "icn2": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02}},
        "workloads": [{"label": "Lm=256", "workload": {"lambda_g": 0.0, "msg_flits": 16, "flit_bytes": 256.0}}],
        "rates": [2e-4],
        "precision": {"rel_ci": 0.1, "max_replications": 6}
    }"#;
    let from_file: Scenario = serde_json::from_str(declared).unwrap();
    from_file.validate().unwrap();
    let p = from_file.precision.unwrap();
    assert_eq!(p.rel_ci, Some(0.1));
    assert_eq!(p.max_replications, 6);
    assert_eq!(p.level, 0.95); // defaulted
    assert_eq!(p.min_replications, 2); // defaulted

    // Typos inside the precision object fail loudly.
    let typo = declared.replace("rel_ci", "rel_cl");
    let err = serde_json::from_str::<Scenario>(&typo).unwrap_err();
    assert!(err.to_string().contains("rel_cl"), "{err}");
}

/// Warm-up auditing threads through to the sweep points: a scenario with
/// no warm-up at heavy load flags replications.
#[test]
fn warmup_audit_counts_surface_per_point() {
    // The 6-node system of the engine's own audit test, at the same
    // near-saturation load: with no warm-up the measured stream starts in
    // the transient, so MSER-5 must flag it.
    let net1 = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
    let net2 = NetworkCharacteristics::new(250.0, 0.05, 0.01).unwrap();
    let c = |n| ClusterSpec {
        n,
        icn1: net1,
        ecn1: net2,
        topology: Default::default(),
    };
    let spec = SystemSpec::new(4, vec![c(1), c(1), c(2), c(2)], net1).unwrap();
    let mut s = Scenario::new("audit e2e", spec)
        .with_workload("Lm=256", Workload::new(0.0, 32, 256.0).unwrap())
        .with_rates(vec![8e-4])
        .with_precision(PrecisionSpec {
            rel_ci: Some(0.2),
            max_replications: 4,
            wave: 2,
            ..PrecisionSpec::default()
        })
        .with_sim(demo_sim(18));
    s.sim.audit_warmup = true;
    s.sim.warmup = 0;
    let detailed = s.run_sim_detailed();
    let point = &detailed[0][0];
    assert!(
        point.warmup_flagged() > 0,
        "zero warm-up at near-saturation load must be flagged \
         ({} replications, 0 flagged)",
        point.runs.len()
    );
    assert!(point.warmup_flagged() <= point.runs.len());
}

/// A small tree system in the shape of `sim_properties`' `arb_system`:
/// m ∈ {4, 8} clusters under one ICN2 level, cluster heights ≤ 2,
/// Table 2-ish networks with random bandwidths.
fn arb_system() -> impl Strategy<Value = SystemSpec> {
    (0u32..2, 1u32..=2, 100.0f64..1000.0, 100.0f64..1000.0).prop_map(|(mi, height, bw1, bw2)| {
        let m = [4u32, 8][mi as usize];
        let net1 = NetworkCharacteristics::new(bw1, 0.01, 0.02).unwrap();
        let net2 = NetworkCharacteristics::new(bw2, 0.05, 0.01).unwrap();
        let cluster = ClusterSpec {
            n: height,
            icn1: net1,
            ecn1: net2,
            topology: Default::default(),
        };
        SystemSpec::new(m, vec![cluster; m as usize], net1).unwrap()
    })
}

/// A replication budget: a fixed count of 1–3, or a precision target
/// whose cap is at most 6.
fn arb_budget() -> impl Strategy<Value = (usize, Option<PrecisionSpec>)> {
    (
        0u32..2,
        1usize..=3,
        2usize..=4,
        0usize..=2,
        1usize..=3,
        0.005f64..0.1,
    )
        .prop_map(|(kind, replications, min, extra, wave, rel)| match kind {
            0 => (replications, None),
            _ => (
                1,
                Some(PrecisionSpec {
                    rel_ci: Some(rel),
                    min_replications: min,
                    max_replications: min + extra,
                    wave,
                    ..PrecisionSpec::default()
                }),
            ),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The one sweep loop on generated scenarios: the parallel loop equals
    /// its serial twin field by field, and a precision point's first wave
    /// is the fixed-mode sweep at the same seeds.
    #[test]
    fn one_sweep_loop_holds_on_generated_scenarios(
        spec in arb_system(),
        rates in prop::collection::vec(2e-5f64..3e-4, 1..4),
        budget in arb_budget(),
        seed in 0u64..1000,
        per_point in 0u32..2,
    ) {
        let (replications, precision) = budget;
        let seeding = [Seeding::Shared, Seeding::PerPoint][per_point as usize];
        let mut s = Scenario::new("generated", spec)
            .with_workload("Lm=256", Workload::new(0.0, 8, 256.0).unwrap())
            .with_rates(rates)
            .with_seeding(seeding)
            .with_replications(replications)
            .with_sim(SimConfig {
                warmup: 50,
                measured: 300,
                drain: 50,
                seed,
                // A saturated corner gives up quickly.
                max_events: 200_000,
                ..SimConfig::default()
            });
        s.precision = precision;
        prop_assert!(s.validate().is_ok());
        let detailed = s.run_sim_detailed();
        prop_assert_eq!(&detailed, &s.run_sim_detailed_serial());
        if let Some(p) = precision {
            let mut fixed = s.clone();
            fixed.precision = None;
            fixed.replications = p.min_replications;
            let fixed = fixed.run_sim_detailed();
            for (point, first) in detailed.iter().flatten().zip(fixed.iter().flatten()) {
                prop_assert_eq!((point.rate, point.seed), (first.rate, first.seed));
                prop_assert_eq!(&point.runs[..p.min_replications], &first.runs[..]);
            }
        }
    }
}
