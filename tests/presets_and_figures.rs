//! The paper's presets (Tables 1–2) and the figure harness: configuration
//! shapes, qualitative curve properties, and rendering.

use cocnet::prelude::*;
use cocnet::presets;
use cocnet::registry::{self, figures::fig7_series};
use cocnet::report::{from_json, render_figure, to_json};
use cocnet::runner::Scenario;

/// A figure's registry entry, parsed from its committed scenario file.
fn fig(name: &str) -> Scenario {
    registry::find(name).and_then(|e| e.scenario()).unwrap()
}

#[test]
fn table1_organizations_are_exact() {
    let s = presets::org_1120();
    assert_eq!((s.total_nodes(), s.num_clusters(), s.m), (1120, 32, 8));
    let heights: Vec<u32> = s.clusters.iter().map(|c| c.n).collect();
    assert_eq!(&heights[..12], &[1; 12]);
    assert_eq!(&heights[12..28], &[2; 16]);
    assert_eq!(&heights[28..], &[3; 4]);

    let s = presets::org_544();
    assert_eq!((s.total_nodes(), s.num_clusters(), s.m), (544, 16, 4));
    let heights: Vec<u32> = s.clusters.iter().map(|c| c.n).collect();
    assert_eq!(&heights[..8], &[3; 8]);
    assert_eq!(&heights[8..11], &[4; 3]);
    assert_eq!(&heights[11..], &[5; 5]);
}

#[test]
fn table2_network_wiring() {
    for spec in [presets::org_1120(), presets::org_544()] {
        for c in &spec.clusters {
            assert_eq!(c.icn1, presets::net1(), "ICN1 uses Net.1");
            assert_eq!(c.ecn1, presets::net2(), "ECN1 uses Net.2");
        }
        assert_eq!(spec.icn2, presets::net1(), "ICN2 uses Net.1");
        // The relaxing factor δ = β_I2/β_E1 = 0.5 for this wiring.
        assert!((spec.relaxing_factor(0) - 0.5).abs() < 1e-12);
    }
}

#[test]
fn all_four_figures_produce_monotone_analysis_curves() {
    for name in ["fig3", "fig4", "fig5", "fig6"] {
        let scenario = fig(name);
        assert_eq!(scenario.rates.len(), 10, "{name}");
        let series = scenario.run_model();
        assert_eq!(series.len(), 2, "{name}");
        for s in &series {
            assert!(!s.is_empty(), "{name} {}", s.label);
            assert!(s.is_monotone_non_decreasing(), "{name} {}", s.label);
        }
    }
}

#[test]
fn figure_shape_m64_saturates_at_half_the_m32_rate() {
    // Fig. 3 vs Fig. 4 (and Fig. 5 vs Fig. 6): doubling the message length
    // halves the saturation rate (the concentrator service doubles).
    let opts = ModelOptions::default();
    for (spec, wl32, wl64) in [
        (
            presets::org_1120(),
            presets::wl_m32_l256(),
            presets::wl_m64_l256(),
        ),
        (
            presets::org_544(),
            presets::wl_m32_l256(),
            presets::wl_m64_l256(),
        ),
    ] {
        let s32 = saturation_point(&spec, &wl32, &opts, 1e-4).unwrap();
        let s64 = saturation_point(&spec, &wl64, &opts, 1e-4).unwrap();
        let ratio = s32 / s64;
        assert!((ratio - 2.0).abs() < 0.15, "ratio {ratio}");
    }
}

#[test]
fn figure_shape_small_system_sustains_higher_per_node_load() {
    // Figs. 3/5: the N=544 system's x-axis extends twice as far as the
    // N=1120 one before saturation.
    let opts = ModelOptions::default();
    let wl = presets::wl_m32_l256();
    let sat_small = saturation_point(&presets::org_544(), &wl, &opts, 1e-4).unwrap();
    let sat_big = saturation_point(&presets::org_1120(), &wl, &opts, 1e-4).unwrap();
    assert!(
        sat_small > 1.5 * sat_big,
        "small {sat_small:.2e} vs big {sat_big:.2e}"
    );
}

#[test]
fn figure_shape_lm512_curve_sits_roughly_2x_above_lm256() {
    // In every figure the Lm=512 series is about twice the Lm=256 one at
    // light load (service times are dominated by d_m·β).
    let series = fig("fig3").run_model();
    let x = series[0].points[0].x;
    let y256 = series[0].points[0].y;
    let y512 = series[1].interpolate(x).unwrap();
    let ratio = y512 / y256;
    assert!((1.6..=2.4).contains(&ratio), "ratio {ratio}");
}

#[test]
fn fig7_series_and_ordering() {
    let series = fig7_series(&ModelOptions::default(), 6);
    assert_eq!(series.len(), 4);
    assert_eq!(series[0].label, "N=544, Base");
    assert_eq!(series[3].label, "N=1120, Increased");
    // The boosted N=544 system reaches the farthest rate of the four.
    let max_x = |s: &Series| s.points.last().map(|p| p.x).unwrap_or(0.0);
    assert!(max_x(&series[1]) >= max_x(&series[0]));
    assert!(max_x(&series[3]) >= max_x(&series[2]));
    assert!(max_x(&series[1]) >= max_x(&series[3]));
}

#[test]
fn report_renders_and_round_trips() {
    let mut scenario = fig("fig5");
    scenario.rates = scenario.rates.with_steps(5);
    let series = scenario.run_model();
    let text = render_figure(&scenario.name, &series);
    assert!(text.contains("N=544"));
    assert!(text.contains("Analysis (Lm=256)"));
    // Title + header + rule + one row per distinct rate.
    let distinct_rates = {
        let mut xs: Vec<f64> = series.iter().flat_map(|s| s.xs()).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        xs.len()
    };
    assert_eq!(text.lines().count(), 3 + distinct_rates);
    let json = to_json(&series);
    assert_eq!(from_json(&json).unwrap(), series);
}
