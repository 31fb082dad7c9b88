//! The paper's latency-vs-load figures as registry entries.
//!
//! Figs. 3–6 are fully declarative: each is a [`Scenario`] whose JSON twin
//! is committed under `scenarios/` (the golden test pins the two
//! bit-identical). Fig. 7 compares four *different* system specs in one
//! chart, which the one-spec scenario shape cannot express, so it stays a
//! custom entry. Two extension entries demonstrate what the declarative
//! layer buys: the same figures under non-uniform traffic or replicated
//! per-point seeding, with no new execution code.

use super::RunOpts;
use crate::report::{render_figure, to_json};
use crate::runner::{PrecisionSpec, Scenario, Seeding};
use cocnet_model::{rate_grid, sweep, ModelOptions, Workload};
use cocnet_sim::SimConfig;
use cocnet_stats::Series;
use cocnet_topology::SystemSpec;
use cocnet_workloads::{presets, Pattern};

/// The shared shape of Figs. 3–6: one `Lm=<flit bytes>` series per
/// workload over a 10-point grid up to `max_rate`, full §4 methodology,
/// the historical seed 2006.
fn figure(title: &str, spec: SystemSpec, workloads: [Workload; 2], max_rate: f64) -> Scenario {
    let sim = SimConfig {
        seed: 2006,
        ..SimConfig::default()
    };
    let mut scenario = Scenario::new(title, spec)
        .with_grid(max_rate, 10)
        .with_sim(sim);
    for wl in workloads {
        scenario = scenario.with_workload(format!("Lm={}", wl.flit_bytes as u64), wl);
    }
    scenario
}

/// Fig. 3: N=1120, M=32 flits, λ up to 5·10⁻⁴.
pub fn fig3() -> Scenario {
    figure(
        "N=1120, m=8, M=32",
        presets::org_1120(),
        [presets::wl_m32_l256(), presets::wl_m32_l512()],
        presets::rates::FIG3_MAX,
    )
}

/// Fig. 4: N=1120, M=64 flits, λ up to 2.5·10⁻⁴.
pub fn fig4() -> Scenario {
    figure(
        "N=1120, m=8, M=64",
        presets::org_1120(),
        [presets::wl_m64_l256(), presets::wl_m64_l512()],
        presets::rates::FIG4_MAX,
    )
}

/// Fig. 5: N=544, M=32 flits, λ up to 1·10⁻³.
pub fn fig5() -> Scenario {
    figure(
        "N=544, m=4, M=32",
        presets::org_544(),
        [presets::wl_m32_l256(), presets::wl_m32_l512()],
        presets::rates::FIG5_MAX,
    )
}

/// Fig. 6: N=544, M=64 flits, λ up to 5·10⁻⁴.
pub fn fig6() -> Scenario {
    figure(
        "N=544, m=4, M=64",
        presets::org_544(),
        [presets::wl_m64_l256(), presets::wl_m64_l512()],
        presets::rates::FIG6_MAX,
    )
}

/// Extension: Fig. 5 under cluster-local traffic (ψ = 0.8) — most
/// messages stay on the fast intra-cluster networks, so the simulation
/// series sits far below Fig. 5's. The analysis series is the *uniform*
/// model (a scenario's `run_model` is pattern-unaware); the gap between
/// the two is the point of the entry — the `nonuniform` custom entry
/// closes it with the generalized outgoing-probability profile.
pub fn fig5_local() -> Scenario {
    let mut scenario = fig5().with_pattern(Pattern::ClusterLocal { locality: 0.8 });
    scenario.name = "N=544, m=4, M=32, psi=0.8".to_string();
    scenario
}

/// Extension: Fig. 3 with statistically independent sweep points
/// ([`Seeding::PerPoint`]) and three replications per point.
pub fn fig3_perpoint() -> Scenario {
    let mut scenario = fig3().with_seeding(Seeding::PerPoint).with_replications(3);
    scenario.name = "N=1120, m=8, M=32 (3 reps, per-point seeds)".to_string();
    scenario
}

/// Extension: Fig. 5 under a 5 % relative-CI precision target. Instead of
/// a fixed replication count, every sweep point spends replications in
/// deterministic waves until its latency CI half-width is within 5 % of
/// the mean at 95 % confidence (cap 16), with per-point seeds so the
/// points are statistically independent and MSER-5 warm-up auditing on
/// every run. The CLI reports CI bounds and per-point replications spent.
pub fn fig5_precision() -> Scenario {
    let mut scenario = fig5()
        .with_seeding(Seeding::PerPoint)
        .with_precision(PrecisionSpec {
            rel_ci: Some(0.05),
            max_replications: 16,
            wave: 2,
            ..PrecisionSpec::default()
        });
    scenario.sim.audit_warmup = true;
    scenario.name = "N=544, m=4, M=32 (5% rel CI)".to_string();
    scenario
}

/// Fig. 7's four analysis series over a `points`-rate grid: base and +20 %
/// ICN2 bandwidth for both Table 1 organizations, with the paper's
/// `M=128`, `d_m=256` workload.
pub fn fig7_series(opts: &ModelOptions, points: usize) -> Vec<Series> {
    let wl = presets::wl_m128_l256();
    let rates = rate_grid(presets::rates::FIG7_MAX, points);
    [
        ("N=544, Base", presets::org_544()),
        (
            "N=544, Increased",
            presets::with_boosted_icn2(&presets::org_544(), 1.2),
        ),
        ("N=1120, Base", presets::org_1120()),
        (
            "N=1120, Increased",
            presets::with_boosted_icn2(&presets::org_1120(), 1.2),
        ),
    ]
    .into_iter()
    .map(|(label, spec)| sweep(&spec, &wl, &rates, opts, label))
    .collect()
}

/// Fig. 7: the ICN2 bandwidth design-space study (analysis only; four
/// specs in one chart, hence custom).
pub fn fig7(opts: &RunOpts) {
    let series = fig7_series(&Default::default(), opts.points.unwrap_or(10));
    println!(
        "{}",
        render_figure("Fig. 7 — ICN2 bandwidth +20% (M=128, Lm=256)", &series)
    );
    if opts.json {
        println!("{}", to_json(&series));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RateGrid;

    #[test]
    fn figure_configs_match_paper() {
        let f3 = fig3();
        assert_eq!(f3.spec.total_nodes(), 1120);
        assert_eq!(f3.workloads.len(), 2);
        assert_eq!(f3.workloads[0].workload.msg_flits, 32);
        assert_eq!(f3.workloads[0].label, "Lm=256");
        assert_eq!(f3.workloads[1].label, "Lm=512");
        assert_eq!(
            f3.rates,
            RateGrid::Range {
                start: 0.0,
                stop: 5e-4,
                steps: 10
            }
        );

        let f6 = fig6();
        assert_eq!(f6.spec.total_nodes(), 544);
        assert_eq!(f6.workloads[0].workload.msg_flits, 64);
        assert_eq!(f6.rates.values().last(), Some(&5e-4));
    }

    #[test]
    fn model_series_have_points_and_monotonicity() {
        let series = fig5().run_model();
        assert_eq!(series.len(), 2);
        for s in &series {
            assert!(!s.is_empty());
            assert!(s.is_monotone_non_decreasing(), "{}", s.label);
        }
        // The 512-byte-flit series must sit above the 256-byte one.
        let l256 = &series[0];
        let l512 = &series[1];
        let x = l512.points[0].x;
        assert!(l512.points[0].y > l256.interpolate(x).unwrap());
    }

    #[test]
    fn fig7_boost_reduces_latency() {
        let series = fig7_series(&ModelOptions::default(), 8);
        assert_eq!(series.len(), 4);
        // At every shared x, "Increased" must not exceed "Base".
        for pair in [(0usize, 1usize), (2, 3)] {
            let base = &series[pair.0];
            let boosted = &series[pair.1];
            for p in &boosted.points {
                if let Some(base_y) = base.interpolate(p.x) {
                    assert!(p.y <= base_y + 1e-9, "boost must help at x={}", p.x);
                }
            }
            // And strictly helps at the highest common rate.
            let last = boosted.points.last().unwrap();
            if let Some(base_y) = base.interpolate(last.x) {
                assert!(last.y < base_y);
            }
        }
    }
}
