//! End-to-end validation: the analytical model against the discrete-event
//! simulator, the heart of the paper's §4.
//!
//! Tolerances reflect what the reproduction actually achieves, as
//! `cocnet run validation` prints it: intra-cluster latency matches to
//! well under 5 %; inter-cluster latency carries a documented
//! rate-conversion offset, so the whole-system comparison is held to a
//! looser bound; the qualitative shape (monotonicity, saturation
//! ordering) must match exactly.

use cocnet::prelude::*;

fn netchar(bw: f64, a_n: f64, a_s: f64) -> NetworkCharacteristics {
    NetworkCharacteristics::new(bw, a_n, a_s).unwrap()
}

/// A heterogeneous 4-cluster system small enough for fast simulation.
fn small_spec() -> SystemSpec {
    let net1 = netchar(500.0, 0.01, 0.02);
    let net2 = netchar(250.0, 0.05, 0.01);
    let c = |n| ClusterSpec {
        n,
        icn1: net1,
        ecn1: net2,
        topology: Default::default(),
    };
    SystemSpec::new(4, vec![c(2), c(2), c(3), c(3)], net1).unwrap()
}

fn sim_cfg(seed: u64) -> SimConfig {
    SimConfig {
        warmup: 1_000,
        measured: 15_000,
        drain: 1_000,
        seed,
        ..SimConfig::default()
    }
}

#[test]
fn intra_cluster_latency_matches_within_5_percent() {
    let spec = small_spec();
    let opts = ModelOptions::default();
    for rate in [1e-4, 5e-4] {
        let wl = Workload::new(rate, 32, 256.0).unwrap();
        let out = evaluate(&spec, &wl, &opts).unwrap();
        let sim = run_simulation(&spec, &wl, Pattern::Uniform, &sim_cfg(3));
        assert!(sim.completed);
        // Population-weighted model intra mean.
        let n = spec.total_nodes() as f64;
        let mut w = 0.0;
        let mut m_in = 0.0;
        for c in &out.per_cluster {
            let share = spec.cluster_nodes(c.cluster) as f64 / n;
            w += share * (1.0 - c.outgoing_probability);
            m_in += share * (1.0 - c.outgoing_probability) * c.intra.total();
        }
        m_in /= w;
        let err = (m_in - sim.intra.mean) / sim.intra.mean;
        assert!(
            err.abs() < 0.05,
            "rate {rate}: model intra {m_in:.2} vs sim {:.2} ({:+.1}%)",
            sim.intra.mean,
            err * 100.0
        );
    }
}

#[test]
fn system_latency_matches_within_documented_bound() {
    let spec = small_spec();
    let opts = ModelOptions::default();
    let wl = Workload::new(2e-4, 32, 256.0).unwrap();
    let model = evaluate(&spec, &wl, &opts).unwrap().latency;
    let sim = run_simulation(&spec, &wl, Pattern::Uniform, &sim_cfg(4));
    assert!(sim.completed);
    let err = (model - sim.latency.mean) / sim.latency.mean;
    // The model is optimistic on inter-cluster paths by the rate-conversion
    // delay; the documented bound is 35 %.
    assert!(
        err.abs() < 0.35,
        "model {model:.2} vs sim {:.2} ({:+.1}%)",
        sim.latency.mean,
        err * 100.0
    );
    // And the model must be the *optimistic* side (it ignores the
    // concentrator's rate-conversion serialization).
    assert!(model < sim.latency.mean);
}

#[test]
fn both_rank_message_lengths_identically() {
    let spec = small_spec();
    let opts = ModelOptions::default();
    let mut model_lat = Vec::new();
    let mut sim_lat = Vec::new();
    for (m_flits, flit_bytes) in [(32, 256.0), (32, 512.0), (64, 256.0)] {
        let wl = Workload::new(1e-4, m_flits, flit_bytes).unwrap();
        model_lat.push(evaluate(&spec, &wl, &opts).unwrap().latency);
        let sim = run_simulation(&spec, &wl, Pattern::Uniform, &sim_cfg(5));
        assert!(sim.completed);
        sim_lat.push(sim.latency.mean);
    }
    // Heavier messages cost more in both worlds, in the same order.
    let rank = |v: &[f64]| {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
        idx
    };
    assert_eq!(rank(&model_lat), rank(&sim_lat));
    assert!(model_lat[1] > model_lat[0]);
    assert!(sim_lat[1] > sim_lat[0]);
}

#[test]
fn simulation_saturates_no_later_than_twice_model_prediction() {
    // The paper's figures show simulation bending up slightly before the
    // analysis. Check the ordering: at the model's saturation rate the sim
    // is already exploding, and at a third of it the sim is still calm.
    let spec = small_spec();
    let opts = ModelOptions::default();
    let wl = Workload::new(0.0, 32, 256.0).unwrap();
    let sat = saturation_point(&spec, &wl, &opts, 1e-3).unwrap();

    let calm = run_simulation(
        &spec,
        &wl.with_rate(sat / 3.0),
        Pattern::Uniform,
        &sim_cfg(6),
    );
    let wild = run_simulation(&spec, &wl.with_rate(sat), Pattern::Uniform, &sim_cfg(6));
    assert!(calm.completed);
    assert!(
        wild.latency.mean > 3.0 * calm.latency.mean,
        "at the model's saturation point ({sat:.2e}) the sim should be exploding: {} vs {}",
        wild.latency.mean,
        calm.latency.mean
    );
}

#[test]
fn model_tracks_simulation_trend_across_load() {
    let spec = small_spec();
    let opts = ModelOptions::default();
    let wl = Workload::new(0.0, 32, 256.0).unwrap();
    let rates = [5e-5, 2e-4, 6e-4];
    let mut prev_model = 0.0;
    let mut prev_sim = 0.0;
    for (i, &rate) in rates.iter().enumerate() {
        let model = evaluate(&spec, &wl.with_rate(rate), &opts).unwrap().latency;
        let sim = run_simulation(&spec, &wl.with_rate(rate), Pattern::Uniform, &sim_cfg(7));
        assert!(sim.completed);
        if i > 0 {
            assert!(model > prev_model);
            assert!(sim.latency.mean > prev_sim);
        }
        prev_model = model;
        prev_sim = sim.latency.mean;
    }
}

#[test]
fn generation_throughput_matches_offered_load() {
    // Open-loop sanity: the simulator must generate at N·λ_g overall.
    let spec = small_spec();
    let wl = Workload::new(2e-4, 32, 256.0).unwrap();
    let sim = run_simulation(&spec, &wl, Pattern::Uniform, &sim_cfg(40));
    assert!(sim.completed);
    let offered = spec.total_nodes() as f64 * wl.lambda_g;
    let observed = sim.generated as f64 / sim.sim_time;
    let rel = (observed - offered).abs() / offered;
    assert!(
        rel < 0.05,
        "observed rate {observed:.3e} vs offered {offered:.3e}"
    );
}

#[test]
fn littles_law_holds_approximately() {
    // L̄·throughput ≈ mean messages in flight; with a stationary window the
    // product λ_total·L̄ must be consistent between model and simulation
    // up to the documented latency offset.
    let spec = small_spec();
    let wl = Workload::new(2e-4, 32, 256.0).unwrap();
    let sim = run_simulation(&spec, &wl, Pattern::Uniform, &sim_cfg(41));
    assert!(sim.completed);
    let lambda_total = spec.total_nodes() as f64 * wl.lambda_g;
    let in_flight_sim = lambda_total * sim.latency.mean;
    // The system is far from saturation here: a handful of messages in
    // flight, strictly positive and far below the population bound.
    assert!(in_flight_sim > 0.1, "{in_flight_sim}");
    assert!(in_flight_sim < 50.0, "{in_flight_sim}");
    let model = evaluate(&spec, &wl, &ModelOptions::default()).unwrap();
    let in_flight_model = lambda_total * model.latency;
    assert!(
        in_flight_model < in_flight_sim,
        "model is the optimistic side"
    );
    assert!(in_flight_model > 0.5 * in_flight_sim);
}

#[test]
fn non_uniform_traffic_shifts_latency_as_expected() {
    // Locality keeps messages on the fast intra network: the simulator must
    // show lower latency than uniform, and the generalised outgoing
    // probability must predict the observed inter fraction.
    let spec = small_spec();
    let wl = Workload::new(1e-4, 32, 256.0).unwrap();
    let uni = run_simulation(&spec, &wl, Pattern::Uniform, &sim_cfg(8));
    let local = run_simulation(
        &spec,
        &wl,
        Pattern::ClusterLocal { locality: 0.8 },
        &sim_cfg(8),
    );
    assert!(local.latency.mean < uni.latency.mean);
    assert!((local.inter_fraction() - 0.2).abs() < 0.02);
}
