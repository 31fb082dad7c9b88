//! The paper's latency-vs-load figures.
//!
//! Figs. 3–6 and their three extensions (`fig5_local`, `fig3_perpoint`,
//! `fig5_precision`) are declarative registry entries: each is its
//! committed `scenarios/<name>.json`, and the tests below pin those files
//! to the paper's Table 1 organizations and §4 methodology. Fig. 7
//! compares four *different* system specs in one chart, which the
//! one-spec scenario shape cannot express, so it is the custom entry
//! defined here.

use super::RunOpts;
use crate::report::{render_figure, to_json};
use cocnet_model::{rate_grid, sweep, ModelOptions};
use cocnet_stats::Series;
use cocnet_workloads::presets;

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
    use crate::runner::{PrecisionSpec, Scenario, Seeding};
    use cocnet_sim::SimConfig;
    use cocnet_workloads::Pattern;

    /// A declarative entry's scenario, parsed from its committed file.
    fn entry(name: &str) -> Scenario {
        crate::registry::find(name)
            .and_then(|e| e.scenario())
            .unwrap_or_else(|| panic!("{name} is a declarative entry"))
    }

    /// The scenario as JSON without its title, to compare whole scenarios.
    fn untitled(s: &Scenario) -> String {
        let mut s = s.clone();
        s.name.clear();
        serde_json::to_string_pretty(&s).unwrap()
    }

    #[test]
    fn figure_configs_match_paper() {
        use presets::rates::{FIG3_MAX, FIG4_MAX, FIG5_MAX, FIG6_MAX};
        // Each figure runs a Table 1 organization with its two preset
        // workloads over a 10-step grid up to the figure's axis, at the
        // historical seed 2006, with every other setting at its default.
        let m32 = [presets::wl_m32_l256(), presets::wl_m32_l512()];
        let m64 = [presets::wl_m64_l256(), presets::wl_m64_l512()];
        for (name, spec, workloads, max) in [
            ("fig3", presets::org_1120(), m32, FIG3_MAX),
            ("fig4", presets::org_1120(), m64, FIG4_MAX),
            ("fig5", presets::org_544(), m32, FIG5_MAX),
            ("fig6", presets::org_544(), m64, FIG6_MAX),
        ] {
            let mut paper = Scenario::new("", spec)
                .with_grid(max, 10)
                .with_sim(SimConfig {
                    seed: 2006,
                    ..SimConfig::default()
                });
            for wl in workloads {
                paper = paper.with_workload(format!("Lm={}", wl.flit_bytes as u64), wl);
            }
            assert_eq!(untitled(&entry(name)), untitled(&paper), "{name}");
        }

        // The extensions differ from their figure only where they say so.
        let mut local = entry("fig5");
        local.pattern = Pattern::ClusterLocal { locality: 0.8 };
        assert_eq!(untitled(&entry("fig5_local")), untitled(&local));

        let mut perpoint = entry("fig3");
        perpoint.seeding = Seeding::PerPoint;
        perpoint.replications = 3;
        assert_eq!(untitled(&entry("fig3_perpoint")), untitled(&perpoint));

        let precise = entry("fig5_precision");
        let target: PrecisionSpec = precise.precision.expect("a precision block");
        assert_eq!(target.rel_ci, Some(0.05));
        let mut precision = entry("fig5");
        precision.seeding = Seeding::PerPoint;
        precision.precision = Some(target);
        precision.sim.audit_warmup = true;
        assert_eq!(untitled(&precise), untitled(&precision));
    }

    #[test]
    fn model_series_have_points_and_monotonicity() {
        let series = entry("fig5").run_model();
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
