//! Ablations: switching individual model/simulator mechanisms off to
//! quantify what each contributes (and where the paper's approximations
//! bite).

use super::{scaled, RunOpts};
use crate::runner::{par_map, Scenario};
use cocnet_model::{evaluate, ModelOptions, VarianceApprox, Workload};
use cocnet_sim::{run_simulation, run_simulation_built, BuiltSystem, SimConfig};
use cocnet_stats::Table;
use cocnet_topology::AscentPolicy;
use cocnet_workloads::{presets, Pattern};

/// Ablation: the relaxing factor δ of Eqs. (27)–(28).
///
/// The paper discounts ICN2-stage waits by δ = β_ICN2/β_ECN1 because "when
/// the message flow comes into the ICN2 (with usually more bandwidth) the
/// waiting time will be decreased proportional to the capacity". This
/// ablation quantifies how much that term matters, and on which side of
/// the simulation the model lands with and without it.
pub fn ablation_relax(opts: &RunOpts) {
    let with = ModelOptions::default();
    let without = ModelOptions {
        relaxing_factor: false,
        ..ModelOptions::default()
    };
    let sim_cfg = scaled(
        &SimConfig {
            warmup: 2_000,
            measured: 20_000,
            drain: 2_000,
            seed: 17,
            ..SimConfig::default()
        },
        opts,
    );
    for (name, spec, wl, rates) in [
        (
            "N=1120, M=32, Lm=256",
            presets::org_1120(),
            presets::wl_m32_l256(),
            [1e-4, 2e-4, 3e-4, 4e-4],
        ),
        (
            "N=544, M=32, Lm=256",
            presets::org_544(),
            presets::wl_m32_l256(),
            [2e-4, 4e-4, 6e-4, 8e-4],
        ),
    ] {
        println!("## {name}");
        let mut table = Table::new([
            "rate",
            "with delta",
            "without delta",
            "delta effect%",
            "sim",
        ]);
        let scenario = Scenario::new(name, spec.clone())
            .with_workload("Lm=256", wl)
            .with_rates(rates.to_vec())
            .with_sim(sim_cfg.clone());
        let points = scenario.run_sim_detailed().remove(0);
        for point in points {
            let rate = point.rate;
            let w = Workload {
                lambda_g: rate,
                ..wl
            };
            let a = evaluate(&spec, &w, &with).map(|o| o.latency);
            let b = evaluate(&spec, &w, &without).map(|o| o.latency);
            let fmt = |r: &Result<f64, _>| {
                r.as_ref()
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_else(|_| "saturated".into())
            };
            let effect = match (&a, &b) {
                (Ok(x), Ok(y)) => format!("{:+.2}", (y - x) / x * 100.0),
                _ => "-".into(),
            };
            table.push_row([
                format!("{rate:.2e}"),
                fmt(&a),
                fmt(&b),
                effect,
                format!("{:.2}", point.first().latency.mean),
            ]);
        }
        println!("{}", table.render());
    }
}

/// Ablation: the Up*/Down* ascent policy under skewed destination mass.
///
/// The analytical model assumes uniformly loaded channels (Eqs. (10),
/// (24)–(25)). That only holds if the deterministic routing spreads ascent
/// traffic across the parallel ancestors. This experiment quantifies what
/// happens when it doesn't: the `MirrorDescent` policy funnels all traffic
/// toward the four big clusters of the N=1120 organization through one ICN2
/// root, saturating it at a quarter of the predicted rate; this entry
/// prints that measurement beside the model.
///
/// The rate points run concurrently via the runner's [`par_map`]; each
/// job evaluates all three routing configurations for its rate.
pub fn ablation_routing(opts: &RunOpts) {
    let spec = presets::org_1120();
    let cfg = scaled(
        &SimConfig {
            warmup: 2_000,
            measured: 20_000,
            drain: 2_000,
            seed: 9,
            collect_channel_busy: true,
            ..SimConfig::default()
        },
        opts,
    );
    println!("## N=1120, M=32, Lm=256 — ascent-policy ablation");
    let mut table = Table::new([
        "rate",
        "trailing-digits",
        "max util",
        "mirror-descent",
        "max util",
        "adaptive (random)",
        "max util",
    ]);
    let rates = [1e-4, 1.5e-4, 2e-4, 3e-4];
    let rows = par_map(&rates, |&rate| {
        let wl = Workload {
            lambda_g: rate,
            ..presets::wl_m32_l256()
        };
        let mut cells = vec![format!("{rate:.2e}")];
        let push_run = |built: &BuiltSystem, cfg: &SimConfig, cells: &mut Vec<String>| {
            let r = run_simulation_built(built, &wl, Pattern::Uniform, cfg);
            let max_icn2 = r
                .channel_busy
                .iter()
                .enumerate()
                .filter(|(i, _)| built.network_of(*i as u32).0 == "ICN2")
                .map(|(_, &b)| b / r.sim_time)
                .fold(0.0f64, f64::max);
            cells.push(format!("{:.2}", r.latency.mean));
            cells.push(format!("{max_icn2:.3}"));
        };
        let [trailing, mirror] =
            [AscentPolicy::TrailingDigits, AscentPolicy::MirrorDescent].map(|policy| {
                BuiltSystem::try_build_full(
                    &spec,
                    wl.flit_bytes,
                    policy,
                    &cfg.faults,
                    cfg.interning,
                )
                .unwrap_or_else(|e| panic!("{e}"))
            });
        push_run(&trailing, &cfg, &mut cells);
        push_run(&mirror, &cfg, &mut cells);
        // Oblivious-adaptive: random ascent digits per message, on the
        // default (trailing-digits) system.
        let adaptive_cfg = SimConfig {
            adaptive_routing: true,
            ..cfg.clone()
        };
        push_run(&trailing, &adaptive_cfg, &mut cells);
        cells
    });
    for row in rows {
        table.push_row(row);
    }
    println!("{}", table.render());
    println!(
        "mirror-descent funnels every message bound for the four n=3 clusters\n\
         (~45% of inter-cluster traffic) through one root switch; the balanced\n\
         trailing-digits policy is what the model's uniform channel rates assume."
    );
}

/// Ablation: the service-variance approximation of Eq. (17)/(36).
///
/// The paper singles out the variance approximation ("a factor of the model
/// inaccuracy") when explaining the discrepancy near saturation. This
/// ablation compares the Draper–Ghosh-style approximation against a
/// deterministic-service (σ² = 0) model across the load range.
pub fn ablation_variance(_opts: &RunOpts) {
    let dg = ModelOptions::default();
    let zero = ModelOptions {
        variance: VarianceApprox::Zero,
        ..ModelOptions::default()
    };
    for (name, spec, wl, max) in [
        (
            "N=1120, M=32, Lm=256",
            presets::org_1120(),
            presets::wl_m32_l256(),
            presets::rates::FIG3_MAX,
        ),
        (
            "N=544, M=64, Lm=256",
            presets::org_544(),
            presets::wl_m64_l256(),
            presets::rates::FIG6_MAX,
        ),
    ] {
        println!("## {name}");
        let mut table = Table::new(["rate", "DraperGhosh", "sigma2=0", "gap%"]);
        for i in 1..=8 {
            let rate = max * i as f64 / 8.0;
            let w = Workload {
                lambda_g: rate,
                ..wl
            };
            let a = evaluate(&spec, &w, &dg).map(|o| o.latency);
            let b = evaluate(&spec, &w, &zero).map(|o| o.latency);
            let fmt = |r: &Result<f64, _>| {
                r.as_ref()
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_else(|_| "saturated".into())
            };
            let gap = match (&a, &b) {
                (Ok(x), Ok(y)) => format!("{:+.2}", (x - y) / y * 100.0),
                _ => "-".into(),
            };
            table.push_row([format!("{rate:.2e}"), fmt(&a), fmt(&b), gap]);
        }
        println!("{}", table.render());
    }
    println!(
        "note: the variance term only affects the M/G/1 waits (source queues and\n\
         concentrators); it grows with load, which is exactly where the paper\n\
         reports its model diverging from simulation."
    );
}

/// Ablation: the simulator's network-boundary coupling modes.
///
/// The paper's model is ambivalent about what happens at the
/// concentrator/dispatcher (see [`cocnet_sim::Coupling`]): Eq. (20) merges
/// the three networks into one wormhole pipe, while Eqs. (36)–(37) assume
/// full-message buffering. This experiment runs the same workload under
/// all three couplings the simulator implements and prints them against
/// the model, making the trade-off measurable.
///
/// All (rate × coupling) simulations run concurrently via the runner's
/// [`par_map`].
pub fn coupling_modes(opts: &RunOpts) {
    use cocnet_sim::Coupling;
    let spec = presets::org_544();
    let wl = presets::wl_m32_l256();
    let model_opts = ModelOptions::default();
    let base = scaled(
        &SimConfig {
            warmup: 2_000,
            measured: 20_000,
            drain: 2_000,
            seed: 31,
            ..SimConfig::default()
        },
        opts,
    );
    let rates = [1e-4, 2e-4, 4e-4, 6e-4, 8e-4];
    let couplings = [
        Coupling::CutThrough,
        Coupling::VirtualCutThrough,
        Coupling::StoreAndForward,
    ];
    // One job per (rate, coupling); results come back in job order.
    let jobs: Vec<(f64, Coupling)> = rates
        .iter()
        .flat_map(|&rate| couplings.iter().map(move |&c| (rate, c)))
        .collect();
    let results = par_map(&jobs, |&(rate, coupling)| {
        let w = Workload {
            lambda_g: rate,
            ..wl
        };
        let cfg = SimConfig {
            coupling,
            ..base.clone()
        };
        let r = run_simulation(&spec, &w, Pattern::Uniform, &cfg);
        if r.has_latency() {
            format!("{:.2}", r.latency.mean)
        } else {
            "incomplete".into()
        }
    });

    println!("## N=544, M=32, Lm=256 — coupling-mode comparison");
    let mut table = Table::new(["rate", "model", "cut-through", "virtual-ct", "store&fwd"]);
    for (i, &rate) in rates.iter().enumerate() {
        let w = Workload {
            lambda_g: rate,
            ..wl
        };
        let model = evaluate(&spec, &w, &model_opts)
            .map(|o| format!("{:.2}", o.latency))
            .unwrap_or_else(|_| "saturated".into());
        let row = &results[i * couplings.len()..(i + 1) * couplings.len()];
        table.push_row([
            format!("{rate:.2e}"),
            model,
            row[0].clone(),
            row[1].clone(),
            row[2].clone(),
        ]);
    }
    println!("{}", table.render());
}
