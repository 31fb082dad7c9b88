//! `cocnet` — command-line front end for the model, the simulator and the
//! scenario registry.
//!
//! ```text
//! cocnet model    [spec flags] --rate 2e-4            analytic evaluation
//! cocnet sim      [spec flags] --rate 2e-4 [--seed N] discrete-event run
//! cocnet saturate [spec flags]                        stability boundary
//! cocnet sweep    [spec flags] --max-rate 1e-3        latency-vs-load table+plot
//!
//! cocnet list                                         every registry entry
//! cocnet describe <name> [--json]                     one entry (+ scenario JSON)
//! cocnet validate <path>                              check scenario file(s)
//! cocnet run <name|path> [--quick] [--points N] [--replications N]
//!                        [--rel-ci X] [--max-replications N] [--rate λ]
//!                        [--shards off|auto|K] [--fail-links F]
//!                        [--interning classed|eager]
//!                        [--serial] [--json] [--no-sim] [--out json|csv]
//!                                                     run a registry entry or a
//!                                                     scenario JSON file
//!                                                     (--rel-ci X replicates each
//!                                                     point adaptively until the
//!                                                     latency CI is within X;
//!                                                     --shards runs the cluster-
//!                                                     sharded parallel engine —
//!                                                     results are bit-identical,
//!                                                     only speed changes)
//!
//! spec flags:
//!   --org 1120|544          a Table 1 organization (default: 544), or
//!   --m M --heights 2,2,3,3 a custom system (ICN1/ICN2 = Net.1, ECN1 = Net.2)
//! workload flags:
//!   --rate λ  --flits M  --flit-bytes D   (defaults 1e-4, 32, 256;
//!                                          `sim` needs λ > 0)
//! model flags:  --locality ψ
//! sim flags:    --seed S  --measured N  --locality ψ
//! sweep flags:  --max-rate λ  --points P
//! ```
//!
//! Every subcommand rejects a flag it does not read (exit 2).

use cocnet::model::{
    evaluate_with_profile, saturation_point, sweep, ModelOptions, OutgoingProfile, Workload,
};
use cocnet::presets;
use cocnet::registry::{self, RunOpts};
use cocnet::runner::Scenario;
use cocnet::sim::{run_simulation, SimConfig};
use cocnet::stats::{scatter, Series, Table};
use cocnet::topology::{ClusterSpec, SystemSpec};
use cocnet_workloads::Pattern;
use std::collections::HashMap;
use std::path::Path;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: cocnet <model|sim|saturate|sweep> [--org 1120|544] \
         [--m M --heights a,b,c] [--rate λ] [--flits M] [--flit-bytes D] \
         [--seed S] [--measured N] [--locality ψ] [--max-rate λ] [--points P]\n\
         \x20      cocnet list\n\
         \x20      cocnet describe <name> [--json]\n\
         \x20      cocnet validate <path>\n\
         \x20      cocnet run <name|path> [--quick] [--points N] [--replications N] \
         [--rel-ci X] [--max-replications N] [--rate λ] [--shards off|auto|K] \
         [--fail-links F] [--interning classed|eager] [--serial] [--json] [--no-sim] \
         [--out json|csv]"
    );
    exit(2);
}

/// A classic subcommand's `--name value` pairs, keyed by name.
type Flags = HashMap<String, String>;

/// The spec and workload flags every classic subcommand reads.
const SPEC_FLAGS: [&str; 6] = ["org", "m", "heights", "rate", "flits", "flit-bytes"];

/// Parses the `--name value` pairs of classic subcommand `cmd`, which
/// reads [`SPEC_FLAGS`] and `own`. Any other flag exits 2, listing the
/// valid ones: a misspelt flag silently ignored is a run with the wrong
/// parameters.
fn parse_flags(cmd: &str, own: &[&str], args: &[String]) -> Flags {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            eprintln!("unexpected argument {a:?}");
            usage()
        };
        if !SPEC_FLAGS.contains(&name) && !own.contains(&name) {
            let valid: Vec<String> = SPEC_FLAGS
                .iter()
                .chain(own)
                .map(|f| format!("--{f}"))
                .collect();
            eprintln!(
                "unknown flag --{name} for `cocnet {cmd}` (flags: {})",
                valid.join(" ")
            );
            exit(2);
        }
        let value = it.next().cloned().unwrap_or_else(|| {
            eprintln!("flag --{name} needs a value");
            usage()
        });
        flags.insert(name.to_string(), value);
    }
    flags
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("could not parse --{key} value {v:?}");
            usage()
        }),
    }
}

fn build_spec(flags: &HashMap<String, String>) -> SystemSpec {
    if let Some(org) = flags.get("org") {
        return match org.as_str() {
            "1120" => presets::org_1120(),
            "544" => presets::org_544(),
            other => {
                eprintln!("unknown --org {other:?}; use 1120 or 544");
                usage();
            }
        };
    }
    if let Some(heights) = flags.get("heights") {
        let m: u32 = get(flags, "m", 4);
        let clusters: Vec<ClusterSpec> = heights
            .split(',')
            .map(|h| {
                let n = h.trim().parse().unwrap_or_else(|_| {
                    eprintln!("bad height {h:?}");
                    usage()
                });
                ClusterSpec {
                    n,
                    icn1: presets::net1(),
                    ecn1: presets::net2(),
                    topology: Default::default(),
                }
            })
            .collect();
        return SystemSpec::new(m, clusters, presets::net1()).unwrap_or_else(|e| {
            eprintln!("invalid system: {e}");
            exit(2);
        });
    }
    presets::org_544()
}

fn build_workload(flags: &HashMap<String, String>) -> Workload {
    Workload::new(
        get(flags, "rate", 1e-4),
        get(flags, "flits", 32),
        get(flags, "flit-bytes", 256.0),
    )
    .unwrap_or_else(|e| {
        eprintln!("invalid workload: {e}");
        exit(2);
    })
}

fn profile(flags: &HashMap<String, String>, spec: &SystemSpec) -> OutgoingProfile {
    match flags.get("locality") {
        None => OutgoingProfile::uniform(spec),
        Some(v) => {
            let psi: f64 = v.parse().unwrap_or_else(|_| usage());
            OutgoingProfile::cluster_local(spec, psi).unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(2);
            })
        }
    }
}

fn cmd_model(flags: &HashMap<String, String>) {
    let spec = build_spec(flags);
    let wl = build_workload(flags);
    let prof = profile(flags, &spec);
    match evaluate_with_profile(&spec, &wl, &ModelOptions::default(), &prof) {
        Ok(out) => {
            println!(
                "system: C={} N={} m={}   workload: λ={:.3e} M={} d_m={}",
                spec.num_clusters(),
                spec.total_nodes(),
                spec.m,
                wl.lambda_g,
                wl.msg_flits,
                wl.flit_bytes
            );
            println!("mean message latency: {:.4}", out.latency);
            let mut table = Table::new(["cluster", "N_i", "U_i", "L_in", "L_out", "mean"]);
            for c in &out.per_cluster {
                table.push_row([
                    c.cluster.to_string(),
                    spec.cluster_nodes(c.cluster).to_string(),
                    format!("{:.4}", c.outgoing_probability),
                    format!("{:.2}", c.intra.total()),
                    format!("{:.2}", c.inter.total()),
                    format!("{:.2}", c.mean),
                ]);
            }
            println!("{}", table.render());
        }
        Err(e) => {
            eprintln!("model: {e}");
            exit(1);
        }
    }
}

fn cmd_sim(flags: &HashMap<String, String>) {
    // The model accepts λ = 0 (zero-load latency); a simulation needs
    // traffic to generate.
    let rate: f64 = get(flags, "rate", 1e-4);
    if !(rate.is_finite() && rate > 0.0) {
        eprintln!("--rate must be finite and > 0 to simulate (got {rate})");
        usage();
    }
    let spec = build_spec(flags);
    let wl = build_workload(flags);
    let pattern = match flags.get("locality") {
        None => Pattern::Uniform,
        Some(v) => Pattern::ClusterLocal {
            locality: v.parse().unwrap_or_else(|_| usage()),
        },
    };
    let cfg = SimConfig {
        warmup: get(flags, "measured", 20_000u64) / 10,
        measured: get(flags, "measured", 20_000u64),
        drain: get(flags, "measured", 20_000u64) / 10,
        seed: get(flags, "seed", 1u64),
        ..SimConfig::default()
    };
    let r = run_simulation(&spec, &wl, pattern, &cfg);
    println!(
        "completed={}  generated={}  sim_time={:.1}",
        r.completed, r.generated, r.sim_time
    );
    println!("latency: {}", r.latency);
    println!("intra:   {}", r.intra);
    println!("inter:   {}", r.inter);
    if !r.completed {
        exit(1);
    }
}

fn cmd_saturate(flags: &HashMap<String, String>) {
    let spec = build_spec(flags);
    let wl = build_workload(flags);
    match saturation_point(&spec, &wl, &ModelOptions::default(), 1e-5) {
        Ok(sat) => println!("saturation rate: {sat:.6e} messages/node/time-unit"),
        Err(e) => {
            eprintln!("saturate: {e}");
            exit(1);
        }
    }
}

fn cmd_sweep(flags: &HashMap<String, String>) {
    let spec = build_spec(flags);
    let wl = build_workload(flags);
    let max: f64 = get(flags, "max-rate", 1e-3);
    let points: usize = get(flags, "points", 12);
    let rates: Vec<f64> = (1..=points)
        .map(|i| max * i as f64 / points as f64)
        .collect();
    let series: Series = sweep(&spec, &wl, &rates, &ModelOptions::default(), "Analysis");
    let mut table = Table::new(["rate", "latency"]);
    for p in &series.points {
        table.push_row([format!("{:.3e}", p.x), format!("{:.2}", p.y)]);
    }
    println!("{}", table.render());
    println!("{}", scatter(std::slice::from_ref(&series), 60, 16));
}

/// `cocnet list`: every registry entry, grouped the way the paper groups
/// its artefacts.
fn cmd_list() {
    let mut table = Table::new(["name", "group", "paper", "kind", "summary"]);
    for entry in registry::all() {
        table.push_row([
            entry.name.to_string(),
            entry.group.to_string(),
            entry.paper_ref.to_string(),
            match entry.kind {
                registry::Kind::Declarative(_) => "scenario".to_string(),
                registry::Kind::Custom(_) => "custom".to_string(),
            },
            entry.summary.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "run one with `cocnet run <name>`; scenario-kind entries also live as\n\
         JSON twins under scenarios/ and run via `cocnet run scenarios/<name>.json`."
    );
}

/// `cocnet describe <name> [--json]`: one entry's metadata; for
/// declarative entries also (or, with `--json`, only) the scenario JSON —
/// the exact content of its committed `scenarios/` twin.
fn cmd_describe(name: &str, json_only: bool) {
    let Some(entry) = registry::find(name) else {
        eprintln!("unknown registry entry {name:?}; `cocnet list` shows all");
        exit(2);
    };
    let scenario = entry.scenario();
    if json_only {
        match &scenario {
            Some(s) => {
                println!("{}", serde_json::to_string_pretty(s).expect("serialisable"));
                return;
            }
            None => {
                eprintln!("{name} is a custom entry: it has no scenario JSON form");
                exit(1);
            }
        }
    }
    println!("name:     {}", entry.name);
    println!("group:    {}", entry.group);
    println!("paper:    {}", entry.paper_ref);
    println!("summary:  {}", entry.summary);
    match &scenario {
        Some(s) => {
            println!(
                "kind:     declarative scenario (twin: scenarios/{}.json)",
                entry.name
            );
            match cocnet::model::coverage(&s.spec) {
                cocnet::model::ModelCoverage::Full => {
                    println!("coverage: analytical model + simulation");
                }
                cocnet::model::ModelCoverage::SimOnly { reason } => {
                    println!("coverage: simulation only ({reason})");
                }
            }
            println!("{}", serde_json::to_string_pretty(s).expect("serialisable"));
        }
        None => println!("kind:     custom experiment code"),
    }
}

/// Loads and validates one scenario file.
fn load_scenario(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let scenario: Scenario =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    scenario
        .validate()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(scenario)
}

/// `cocnet validate <path>`: parse + validate one scenario file, or every
/// `*.json` under a directory. Exit 1 if any file fails.
fn cmd_validate(path: &str) {
    let path = Path::new(path);
    let files: Vec<std::path::PathBuf> = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .unwrap_or_else(|e| {
                eprintln!("{}: {e}", path.display());
                exit(2);
            })
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    if files.is_empty() {
        eprintln!("{}: no scenario files found", path.display());
        exit(2);
    }
    let mut failures = 0usize;
    for file in &files {
        match load_scenario(file) {
            Ok(scenario) => println!(
                "ok    {} ({:?}: {} workloads x {} rates x {} reps)",
                file.display(),
                scenario.name,
                scenario.workloads.len(),
                scenario.rates.len(),
                scenario.replications,
            ),
            Err(e) => {
                println!("FAIL  {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} of {} scenario file(s) invalid", files.len());
        exit(1);
    }
}

/// `cocnet run <name|path> [flags]`: a registry entry by name, or any
/// scenario JSON file through the same declarative execution path.
fn cmd_run(target: &str, opt_args: &[String]) {
    let opts = RunOpts::parse(opt_args).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    let result = if let Some(entry) = registry::find(target) {
        registry::run(entry, &opts)
    } else if Path::new(target).exists() {
        load_scenario(Path::new(target)).and_then(|s| registry::run_scenario(&s, &opts))
    } else {
        eprintln!(
            "{target:?} is neither a registry entry nor a scenario file; \
             `cocnet list` shows the entries"
        );
        exit(2);
    };
    if let Err(e) = result {
        eprintln!("{e}");
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    // Registry subcommands take a positional argument; the classic
    // model/sim commands are pure-flag.
    match cmd.as_str() {
        "list" => {
            if !rest.is_empty() {
                usage();
            }
            return cmd_list();
        }
        "describe" => {
            let Some((name, flags)) = rest.split_first() else {
                usage()
            };
            let json_only = match flags {
                [] => false,
                [flag] if flag == "--json" => true,
                _ => usage(),
            };
            return cmd_describe(name, json_only);
        }
        "validate" => {
            let [path] = rest else { usage() };
            return cmd_validate(path);
        }
        "run" => {
            let Some((target, opt_args)) = rest.split_first() else {
                usage()
            };
            return cmd_run(target, opt_args);
        }
        _ => {}
    }
    let (run, own): (fn(&Flags), &[&str]) = match cmd.as_str() {
        "model" => (cmd_model, &["locality"]),
        "sim" => (cmd_sim, &["seed", "measured", "locality"]),
        "saturate" => (cmd_saturate, &[]),
        "sweep" => (cmd_sweep, &["max-rate", "points"]),
        _ => usage(),
    };
    run(&parse_flags(cmd, own, rest));
}
