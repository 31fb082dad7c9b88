//! Smoke tests for the unified `Scenario` runner: every figure/table path
//! of the paper goes through it in quick mode, producing non-empty series
//! that rise under load; the parallel path is bit-identical to the serial
//! reference; and on multicore hosts the parallel sweep is measurably
//! faster.

use cocnet::model::ModelOptions;
use cocnet::prelude::*;
use cocnet::presets;
use cocnet::registry::figures::{fig3, fig4, fig5, fig6, fig7_series};

/// The registry's Figs. 3–6 by name.
fn all_figures() -> [(&'static str, Scenario); 4] {
    [
        ("fig3", fig3()),
        ("fig4", fig4()),
        ("fig5", fig5()),
        ("fig6", fig6()),
    ]
}

/// A simulation config small enough for a test, quick-mode-shaped
/// (warmup/measured/drain ratios of the `--quick` flag).
fn tiny_sim() -> SimConfig {
    SimConfig {
        warmup: 200,
        measured: 2_000,
        drain: 200,
        seed: 2006,
        ..SimConfig::default()
    }
}

/// A figure scenario re-gridded to `points` rates under [`tiny_sim`].
fn tiny(scenario: Scenario, points: usize) -> Scenario {
    let mut scenario = scenario.with_sim(tiny_sim());
    scenario.rates = scenario.rates.with_steps(points);
    scenario
}

#[test]
fn every_figure_model_path_through_scenario() {
    for (fig, scenario) in all_figures() {
        let series = tiny(scenario, 4).run_model();
        assert_eq!(series.len(), 2, "{fig}: two flit sizes");
        for s in &series {
            assert!(!s.is_empty(), "{fig}: {} is empty", s.label);
            assert!(
                s.is_monotone_non_decreasing(),
                "{fig}: {} not monotone under load",
                s.label
            );
        }
    }
}

#[test]
fn every_figure_sim_path_through_scenario() {
    for (fig, scenario) in all_figures() {
        let series = tiny(scenario, 3).run_sim();
        assert_eq!(series.len(), 2, "{fig}: two flit sizes");
        for s in &series {
            assert!(!s.is_empty(), "{fig}: {} is empty", s.label);
            let first = s.points.first().unwrap();
            let last = s.points.last().unwrap();
            assert!(
                last.y >= first.y - 1e-9,
                "{fig}: {} latency fell under load ({} -> {})",
                s.label,
                first.y,
                last.y
            );
        }
    }
}

#[test]
fn fig7_design_space_series() {
    let series = fig7_series(&ModelOptions::default(), 6);
    assert_eq!(series.len(), 4);
    for s in &series {
        assert!(!s.is_empty(), "{} is empty", s.label);
        assert!(s.is_monotone_non_decreasing(), "{} not monotone", s.label);
    }
}

#[test]
fn table_paths_still_hold() {
    // Table 1: the two organizations' node algebra.
    for (spec, n) in [(presets::org_1120(), 1120), (presets::org_544(), 544)] {
        let sum: usize = (0..spec.num_clusters())
            .map(|i| spec.cluster_nodes(i))
            .sum();
        assert_eq!(sum, n);
        assert_eq!(spec.total_nodes(), n);
    }
    // Table 2: derived per-flit service times are positive and scale with
    // flit size.
    for net in [presets::net1(), presets::net2()] {
        for d_m in [256.0, 512.0] {
            assert!(net.t_cn(d_m) > 0.0);
            assert!(net.t_cs(d_m) > 0.0);
        }
        assert!(net.t_cn(512.0) > net.t_cn(256.0));
    }
}

#[test]
fn parallel_sweep_bit_identical_to_serial_reference() {
    let scenario = tiny(fig5(), 3).with_replications(2);
    let par = scenario.run_sim();
    let ser = scenario.run_sim_serial();
    assert_eq!(par, ser);

    // And with per-point seeding, which new studies should prefer.
    let scenario = scenario.with_seeding(Seeding::PerPoint);
    assert_eq!(scenario.run_sim(), scenario.run_sim_serial());
}

#[test]
fn parallel_sweep_faster_on_multicore() {
    // The rayon shim sizes its pool from RAYON_NUM_THREADS when set, so
    // honour that override here too — otherwise the parallel path would run
    // serial while this gate sees a multicore host.
    let threads = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    if threads < 4 {
        eprintln!("skipping speedup assertion: only {threads} worker thread(s) available");
        return;
    }
    // A sweep with plenty of independent jobs relative to the core count.
    let scenario = tiny(fig5(), 8);
    let t0 = std::time::Instant::now();
    let ser = scenario.run_sim_serial();
    let serial_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let par = scenario.run_sim();
    let parallel_time = t1.elapsed();
    assert_eq!(par, ser);
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
    assert!(
        speedup > 1.5,
        "expected >1.5x speedup on {threads} cores, got {speedup:.2}x \
         (serial {serial_time:.2?}, parallel {parallel_time:.2?})"
    );
}
