//! Full model-vs-simulation validation of one paper figure from the public
//! API — a scaled-down version of what `cocnet run fig5` does with the
//! paper's full message counts.
//!
//! ```text
//! cargo run --release --example validate [fig3|fig4|fig5|fig6]
//! ```

use cocnet::prelude::*;
use cocnet::registry;
use cocnet::report::render_figure;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "fig5".into());
    let mut scenario = match which.as_str() {
        "fig3" | "fig4" | "fig5" | "fig6" => registry::find(&which)
            .and_then(|e| e.scenario())
            .expect("a declarative registry entry"),
        other => {
            eprintln!("unknown figure {other:?}; use fig3|fig4|fig5|fig6");
            std::process::exit(1);
        }
    };

    println!("reproducing {} …", scenario.name);

    scenario.rates = scenario.rates.with_steps(8);
    let model_series = scenario.run_model();

    // Scaled-down simulation so the example finishes in seconds; the
    // registry entries use the paper's full 10k/100k/10k methodology.
    scenario.sim = SimConfig {
        warmup: 1_000,
        measured: 10_000,
        drain: 1_000,
        seed: 2006,
        ..SimConfig::default()
    };
    let sim_series = scenario.run_sim();

    let mut all = model_series.clone();
    all.extend(sim_series.clone());
    println!("{}", render_figure(&scenario.name, &all));

    for (m, s) in model_series.iter().zip(&sim_series) {
        let rows = compare_series(m, s);
        if rows.is_empty() {
            println!("{} — no overlapping stable points", m.label);
            continue;
        }
        let light = cocnet::compare::light_load_error(&rows, 3).unwrap();
        println!(
            "{} vs {}: {} overlapping points, light-load |err| = {light:.1} %",
            m.label,
            s.label,
            rows.len()
        );
    }
}
