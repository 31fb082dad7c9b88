//! Declarative scenarios: load a committed scenario file, shrink it to a
//! demo-sized population, and run both the analytical model and the
//! simulator through the unified runner — the same path `cocnet run
//! scenarios/fig5.json` takes.
//!
//! ```text
//! cargo run --release --example declarative
//! ```

use cocnet::prelude::*;
use cocnet::report::render_figure;
use cocnet::sim::SimConfig;

fn main() {
    // The committed file that the Fig. 5 registry entry runs.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/fig5.json");
    let text = std::fs::read_to_string(&path).expect("committed scenario file");
    let mut scenario: Scenario = serde_json::from_str(&text).expect("scenario parses");
    scenario.validate().expect("scenario validates");

    // Everything is plain data — adjust it like any other value. Here:
    // a demo-sized population and a 5-point grid.
    scenario.sim = SimConfig {
        warmup: 500,
        measured: 5_000,
        drain: 500,
        ..scenario.sim
    };
    scenario.rates = scenario.rates.with_steps(5);

    let mut series = scenario.run_model();
    series.extend(scenario.run_sim());
    println!("{}", render_figure(&scenario.name, &series));

    // Authoring a brand-new scenario needs no Rust either: serialize any
    // Scenario value to JSON and `cocnet run` the file.
    let json = serde_json::to_string_pretty(&scenario).expect("serialises");
    println!(
        "(this exact experiment as a runnable scenario file: {} bytes of JSON)",
        json.len()
    );
}
