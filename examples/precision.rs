//! Precision-driven experiments: declare *how precise* each point must be
//! instead of *how many* replications to run, and let the runner spend
//! exactly as many seeds as each point needs.
//!
//! The scenario below targets a 5 % relative CI half-width at 95 %
//! confidence. Light-load points are cheap (replication means agree
//! quickly); points near saturation are noisy and spend more — the
//! per-point `reps` column makes that visible.
//!
//! ```text
//! cargo run --release --example precision            # demo populations
//! cargo run --release --example precision -- --quick # CI-smoke populations
//! ```

use cocnet::prelude::*;
use cocnet::runner::PrecisionSpec;
use cocnet::sim::SimConfig;
use cocnet::stats::Table;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // A 48-node system (four m=4 clusters on the Table 2 networks) swept
    // to saturation under a 5 % relative-CI target: at most 12
    // replications per point, added in waves of 2 after the initial 2.
    let spec = cocnet::registry::small_spec_48();
    let scenario = Scenario::new("precision demo (N=48, M=32, Lm=256)", spec)
        .with_workload("Lm=256", Workload::new(0.0, 32, 256.0).unwrap())
        .with_grid(1.2e-3, if quick { 3 } else { 5 })
        .with_seeding(Seeding::PerPoint)
        .with_precision(PrecisionSpec {
            rel_ci: Some(0.05),
            max_replications: 12,
            wave: 2,
            ..PrecisionSpec::default()
        })
        .with_sim(SimConfig {
            warmup: if quick { 200 } else { 1_000 },
            measured: if quick { 2_000 } else { 10_000 },
            drain: if quick { 200 } else { 1_000 },
            seed: 7,
            ..SimConfig::default()
        });
    scenario.validate().expect("scenario validates");

    // The one sweep loop: a precision scenario adds waves per point until
    // it converges, saturates or reaches the cap.
    let precision = scenario.precision.expect("the scenario sets a target");
    let detailed = scenario.run_sim_detailed();
    let mut table = Table::new([
        "rate",
        "mean latency",
        "ci lo",
        "ci hi",
        "reps",
        "converged",
    ]);
    for point in &detailed[0] {
        let ci = point.ci(precision.level);
        table.push_row([
            format!("{:.2e}", point.rate),
            format!("{:.2}", point.summary().mean),
            format!("{:.2}", ci.lo()),
            format!("{:.2}", ci.hi()),
            point.runs.len().to_string(),
            if point.has_latency() {
                point.converged(&precision).to_string()
            } else {
                "saturated".into()
            },
        ]);
    }
    println!("{}", table.render());

    let spent: usize = detailed[0].iter().map(|p| p.runs.len()).sum();
    let fixed_cost = detailed[0].len() * 12;
    println!(
        "adaptive control spent {spent} simulations where a fixed worst-case \
         count would spend {fixed_cost};\nevery converged point's CI half-width \
         is within 5% of its mean.\n\nThe same experiment needs no Rust: add \
         \"precision\": {{\"rel_ci\": 0.05}} to any scenario JSON,\nor run \
         `cocnet run <name> --rel-ci 0.05`."
    );
}
