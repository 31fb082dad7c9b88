//! The scenario registry: every figure, table, ablation and extension
//! experiment of this repository, reified as a named entry behind one
//! uniform interface.
//!
//! The registry splits every experiment into its two real parts:
//!
//! * **what to run** — a declarative [`Scenario`], which *is* its
//!   committed file `scenarios/<name>.json` (compiled in, so `cocnet run
//!   fig5` and `cocnet run scenarios/fig5.json` read the same bytes), or,
//!   for the studies whose sweep axis is not a rate grid (coupling modes,
//!   buffer depth, burstiness…), a parameterised run function;
//! * **how to present it** — the unified output writer in
//!   [`crate::report`] plus each entry's renderer.
//!
//! The `cocnet` CLI exposes the registry as `list` / `describe <name>` /
//! `run <name|path>`. Entirely new latency-vs-load scenarios need no Rust
//! at all: author a JSON file and `cocnet run path/to/file.json`.

pub mod ablations;
pub mod diagnostics;
pub mod extensions;
pub mod figures;
pub mod scale;
pub mod tables;
pub mod validation;

use crate::report::{
    render_figure, render_figure_ci, render_machine, render_machine_ci, to_json, to_json_ci,
    OutputFormat,
};
use crate::runner::{PointSim, Scenario, MAX_SWEEP_RUNS};
use cocnet_sim::{InternMode, ShardMode, SimConfig};
use cocnet_topology::{ClusterSpec, SystemSpec};
use cocnet_workloads::presets;

/// Paper-facing grouping of registry entries (drives `cocnet list`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The paper's latency-vs-load figures (Figs. 3–7).
    Figure,
    /// The paper's parameter tables (Tables 1–2).
    Table,
    /// Model-vs-simulation accuracy studies.
    Validation,
    /// Ablations of individual model/simulator mechanisms.
    Ablation,
    /// Beyond-the-paper extension experiments (§5 future work).
    Extension,
    /// Single-run diagnostics and model decompositions.
    Diagnostic,
    /// Performance measurement of the simulator itself.
    Perf,
}

impl std::fmt::Display for Group {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Group::Figure => "figure",
            Group::Table => "table",
            Group::Validation => "validation",
            Group::Ablation => "ablation",
            Group::Extension => "extension",
            Group::Diagnostic => "diagnostic",
            Group::Perf => "perf",
        })
    }
}

/// Options of `cocnet run`. An entry reads only the flags its registry
/// row lists ([`Entry::reads`]), and [`run`] refuses any other (e.g.
/// `--points` on a table) rather than ignore it.
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Scaled-down simulation populations for a fast smoke run.
    pub quick: bool,
    /// Also print the series as JSON after the human-readable output.
    pub json: bool,
    /// Skip the simulation series (analysis only).
    pub no_sim: bool,
    /// Override the number of x-axis points.
    pub points: Option<usize>,
    /// Override the per-point replication count.
    pub replications: Option<usize>,
    /// Relative CI half-width target: switches a declarative scenario to
    /// adaptive replication control (or overrides its `precision.rel_ci`).
    /// A scenario with a fixed count above one refuses it.
    pub rel_ci: Option<f64>,
    /// Override the adaptive replication cap (`precision.max_replications`).
    pub max_replications: Option<usize>,
    /// Emit *only* machine-readable output in this format.
    pub out: Option<OutputFormat>,
    /// Traffic rate override for single-run diagnostics
    /// (`hotspots`, `utilization`); finite and positive.
    pub rate: Option<f64>,
    /// Intra-run sharding override (`--shards off|auto|<k>`): partitions
    /// the worm event loop by cluster with conservative lookahead sync.
    /// Meant to change only speed; measured, some seeds stop one event
    /// from the serial run, and on 2 vCPUs it runs 17–40× slower (see
    /// [`ShardMode`] and ROADMAP item 1).
    pub shards: Option<ShardMode>,
    /// Static fault injection: fail this fraction of links (drawn
    /// deterministically from the schedule's `fault_seed`) in every
    /// simulation the entry runs (`--fail-links 0.1`). Two simulating
    /// entries keep their own schedules and refuse it: `degradation`,
    /// whose sweep axis is the failed fraction, and `org_scale`, which
    /// times fault-free builds.
    pub fail_links: Option<f64>,
    /// Route-interning mode override (`--interning classed|eager`):
    /// classed (the default) materializes routes lazily per equivalence
    /// class; eager is the all-pairs golden oracle (≤ 65535 nodes).
    /// Never changes results — only build time and resident bytes.
    pub interning: Option<InternMode>,
}

impl RunOpts {
    /// Parses a flag list. Unknown flags are an error — a typo silently
    /// ignored is a benchmark silently run with the wrong parameters.
    pub fn parse(args: &[String]) -> Result<RunOpts, String> {
        let mut opts = RunOpts::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--json" => opts.json = true,
                "--no-sim" => opts.no_sim = true,
                "--points" => {
                    opts.points = Some(parse_num(&take("--points", &mut it)?, "--points")?)
                }
                "--replications" => {
                    opts.replications = Some(parse_num(
                        &take("--replications", &mut it)?,
                        "--replications",
                    )?)
                }
                "--rel-ci" => {
                    opts.rel_ci = Some(parse_num(&take("--rel-ci", &mut it)?, "--rel-ci")?)
                }
                "--max-replications" => {
                    opts.max_replications = Some(parse_num(
                        &take("--max-replications", &mut it)?,
                        "--max-replications",
                    )?)
                }
                "--out" => opts.out = Some(take("--out", &mut it)?.parse()?),
                "--rate" => opts.rate = Some(parse_num(&take("--rate", &mut it)?, "--rate")?),
                "--shards" => {
                    opts.shards = Some(take("--shards", &mut it)?.parse()?);
                }
                "--fail-links" => {
                    opts.fail_links =
                        Some(parse_num(&take("--fail-links", &mut it)?, "--fail-links")?)
                }
                "--interning" => {
                    opts.interning = Some(take("--interning", &mut it)?.parse()?);
                }
                other => {
                    return Err(format!(
                        "unknown argument {other:?} (flags: --quick --json --no-sim \
                         --points N --replications N --rel-ci X --max-replications N \
                         --out json|csv --rate λ --shards off|auto|K --fail-links F \
                         --interning classed|eager)"
                    ))
                }
            }
        }
        // Zero overrides would silently degenerate list-grid scenarios
        // (a range grid at least fails validation); reject them here so
        // both grid kinds behave the same. Oversized ones are refused
        // before any entry sizes a sweep by them.
        for (flag, count) in [
            ("--points", opts.points),
            ("--replications", opts.replications),
            ("--max-replications", opts.max_replications),
        ] {
            match count {
                Some(0) => return Err(format!("{flag} must be >= 1")),
                Some(n) if n > MAX_SWEEP_RUNS => {
                    return Err(format!("{flag} must be <= {MAX_SWEEP_RUNS} (got {n})"))
                }
                _ => {}
            }
        }
        if let Some(rel) = opts.rel_ci {
            if !(rel.is_finite() && rel > 0.0) {
                return Err(format!("--rel-ci must be finite and > 0 (got {rel})"));
            }
        }
        if let Some(rate) = opts.rate {
            // The simulator cannot run without traffic: reject here rather
            // than let the engine abort on its positive-rate precondition.
            if !(rate.is_finite() && rate > 0.0) {
                return Err(format!("--rate must be finite and > 0 (got {rate})"));
            }
        }
        if let Some(f) = opts.fail_links {
            if !(f.is_finite() && (0.0..=1.0).contains(&f)) {
                return Err(format!(
                    "--fail-links is a link fraction in [0, 1] (got {f})"
                ));
            }
        }
        Ok(opts)
    }

    /// The flags these options set, by name, in usage order.
    pub fn given(&self) -> impl Iterator<Item = &'static str> {
        [
            ("--quick", self.quick),
            ("--json", self.json),
            ("--no-sim", self.no_sim),
            ("--points", self.points.is_some()),
            ("--replications", self.replications.is_some()),
            ("--rel-ci", self.rel_ci.is_some()),
            ("--max-replications", self.max_replications.is_some()),
            ("--out", self.out.is_some()),
            ("--rate", self.rate.is_some()),
            ("--shards", self.shards.is_some()),
            ("--fail-links", self.fail_links.is_some()),
            ("--interning", self.interning.is_some()),
        ]
        .into_iter()
        .filter_map(|(flag, set)| set.then_some(flag))
    }

    /// The flag transformation of a simulation config: `--quick` caps the
    /// population sizes at the historical 2k/20k/2k smoke values, then
    /// `--shards`, `--fail-links` and `--interning` apply; everything else
    /// (seed, coupling…) stays untouched.
    pub fn sim_config(&self, base: &SimConfig) -> SimConfig {
        self.override_engine(if self.quick {
            quick_sim(base)
        } else {
            base.clone()
        })
    }

    /// The overrides every simulation an entry runs honours, on both of
    /// the config paths ([`RunOpts::sim_config`] and [`scaled`]).
    fn override_engine(&self, mut cfg: SimConfig) -> SimConfig {
        if let Some(shards) = self.shards {
            cfg.shards = shards;
        }
        if let Some(fraction) = self.fail_links {
            cfg.faults.link_fraction = fraction;
        }
        if let Some(interning) = self.interning {
            cfg.interning = interning;
        }
        cfg
    }
}

/// The flags every scenario reads — a declarative entry or a scenario
/// file: all but `--rate`, since a scenario sweeps its own rate grid.
pub const SCENARIO: &[&str] = &[
    "--quick",
    "--json",
    "--no-sim",
    "--points",
    "--replications",
    "--rel-ci",
    "--max-replications",
    "--out",
    "--shards",
    "--fail-links",
    "--interning",
];

/// The flags a custom entry's worm-engine runs read through [`scaled`].
const SIMULATES: &[&str] = &["--quick", "--shards", "--fail-links", "--interning"];

/// The same plus `--rate`: the single-run diagnostics.
const SIMULATES_AT_RATE: &[&str] = &[
    "--quick",
    "--rate",
    "--shards",
    "--fail-links",
    "--interning",
];

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("could not parse {flag} value {s:?}"))
}

/// Consumes one flag value from the argument iterator.
fn take<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("flag {flag} needs a value"))
}

/// `--quick`: populations *capped* at the 2k/20k/2k smoke sizes (the
/// historical quick figures, 1/5 of the paper's 10k/100k/10k). Scenarios
/// already smaller than the cap are left alone — quick never makes a run
/// larger.
pub fn quick_sim(base: &SimConfig) -> SimConfig {
    SimConfig {
        warmup: base.warmup.min(2_000),
        measured: base.measured.min(20_000),
        drain: base.drain.min(2_000),
        ..base.clone()
    }
}

/// Scales a custom experiment's fixed simulation config down 10× under
/// `--quick` (the custom entries already run reduced populations by
/// default; `--quick` makes them CI-smoke cheap) and applies the same
/// `--shards`, `--fail-links` and `--interning` overrides as
/// [`RunOpts::sim_config`].
pub fn scaled(base: &SimConfig, opts: &RunOpts) -> SimConfig {
    opts.override_engine(if opts.quick {
        SimConfig {
            warmup: (base.warmup / 10).max(1),
            measured: (base.measured / 10).max(1),
            drain: (base.drain / 10).max(1),
            ..base.clone()
        }
    } else {
        base.clone()
    })
}

/// The 48-node system shared by `engine_agreement`, `buffer_depth` and
/// `degradation`: four m=4 clusters (two of 8 nodes, two of 16) on the
/// Table 2 networks — big enough to exercise every network tier, small
/// enough that a sweep costs seconds.
pub fn small_spec_48() -> SystemSpec {
    let cluster = |n| ClusterSpec {
        n,
        icn1: presets::net1(),
        ecn1: presets::net2(),
        topology: Default::default(),
    };
    SystemSpec::new(
        4,
        vec![cluster(2), cluster(2), cluster(3), cluster(3)],
        presets::net1(),
    )
    .expect("static spec is valid")
}

/// How a registry entry executes.
pub enum Kind {
    /// The entry *is* a [`Scenario`]: pure data run by [`run_scenario`].
    /// The text is the committed `scenarios/<name>.json`, compiled in, so
    /// the file is the experiment's one definition.
    Declarative(&'static str),
    /// A code-backed experiment whose sweep axis or report does not fit
    /// the generic latency-vs-load shape.
    Custom(fn(&RunOpts)),
}

/// The [`Kind::Declarative`] of the committed file `scenarios/<name>.json`;
/// a missing file fails the build.
macro_rules! committed {
    ($name:literal) => {
        Kind::Declarative(include_str!(concat!(
            "../../../../scenarios/",
            $name,
            ".json"
        )))
    };
}

/// One named experiment.
pub struct Entry {
    /// Registry key (`cocnet run <name>`).
    pub name: &'static str,
    /// Grouping for `cocnet list`.
    pub group: Group,
    /// Which paper artefact the entry reproduces (`-` for extensions).
    pub paper_ref: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Execution behind the name.
    pub kind: Kind,
    /// The `cocnet run` flags the run reads ([`SCENARIO`] for a
    /// declarative entry); [`run`] refuses any other.
    pub reads: &'static [&'static str],
}

impl Entry {
    /// The declarative scenario behind the entry, parsed from its
    /// committed file, if it has one.
    ///
    /// # Panics
    /// If the committed file does not parse; `every_declarative_entry_validates`
    /// checks each one.
    pub fn scenario(&self) -> Option<Scenario> {
        match self.kind {
            Kind::Declarative(text) => Some(
                serde_json::from_str(text)
                    .unwrap_or_else(|e| panic!("scenarios/{}.json: {e}", self.name)),
            ),
            Kind::Custom(_) => None,
        }
    }
}

/// Every registry entry, in `cocnet list` order.
pub static ENTRIES: &[Entry] = &[
    Entry {
        name: "fig3",
        group: Group::Figure,
        paper_ref: "Fig. 3",
        summary: "N=1120, M=32: latency vs load, analysis + simulation, Lm=256/512",
        kind: committed!("fig3"),
        reads: SCENARIO,
    },
    Entry {
        name: "fig4",
        group: Group::Figure,
        paper_ref: "Fig. 4",
        summary: "N=1120, M=64: latency vs load, analysis + simulation, Lm=256/512",
        kind: committed!("fig4"),
        reads: SCENARIO,
    },
    Entry {
        name: "fig5",
        group: Group::Figure,
        paper_ref: "Fig. 5",
        summary: "N=544, M=32: latency vs load, analysis + simulation, Lm=256/512",
        kind: committed!("fig5"),
        reads: SCENARIO,
    },
    Entry {
        name: "fig6",
        group: Group::Figure,
        paper_ref: "Fig. 6",
        summary: "N=544, M=64: latency vs load, analysis + simulation, Lm=256/512",
        kind: committed!("fig6"),
        reads: SCENARIO,
    },
    Entry {
        name: "fig7",
        group: Group::Figure,
        paper_ref: "Fig. 7",
        summary: "ICN2 bandwidth +20% design-space study (analysis only)",
        kind: Kind::Custom(figures::fig7),
        reads: &["--json", "--points"],
    },
    Entry {
        name: "fig5_local",
        group: Group::Figure,
        paper_ref: "-",
        summary: "Fig. 5 under cluster-local traffic (psi=0.8) — declarative extension",
        kind: committed!("fig5_local"),
        reads: SCENARIO,
    },
    Entry {
        name: "fig3_perpoint",
        group: Group::Figure,
        paper_ref: "-",
        summary: "Fig. 3 with per-point seeds and 3 replications — declarative extension",
        kind: committed!("fig3_perpoint"),
        reads: SCENARIO,
    },
    Entry {
        name: "fig5_precision",
        group: Group::Figure,
        paper_ref: "-",
        summary: "Fig. 5 with a 5% relative-CI target — adaptive replications per point",
        kind: committed!("fig5_precision"),
        reads: SCENARIO,
    },
    Entry {
        name: "table1",
        group: Group::Table,
        paper_ref: "Table 1",
        summary: "the two validated system organizations, node algebra checked",
        kind: Kind::Custom(tables::table1),
        reads: &[],
    },
    Entry {
        name: "table2",
        group: Group::Table,
        paper_ref: "Table 2",
        summary: "network characteristics + derived per-flit service times",
        kind: Kind::Custom(tables::table2),
        reads: &[],
    },
    Entry {
        name: "validation",
        group: Group::Validation,
        paper_ref: "§4",
        summary: "model vs simulation error across rates, intra/inter split",
        kind: Kind::Custom(validation::validation),
        reads: SIMULATES,
    },
    Entry {
        name: "baseline",
        group: Group::Validation,
        paper_ref: "§1",
        summary: "flat homogeneous queueing baseline vs hierarchical model vs sim",
        kind: Kind::Custom(validation::baseline),
        reads: SIMULATES,
    },
    Entry {
        name: "engine_agreement",
        group: Group::Validation,
        paper_ref: "§4",
        summary: "worm engine vs flit-level reference (deliberately serial)",
        kind: Kind::Custom(validation::engine_agreement),
        reads: SIMULATES,
    },
    Entry {
        name: "ablation_relax",
        group: Group::Ablation,
        paper_ref: "Eqs. 27-28",
        summary: "the relaxing factor delta: model with/without vs simulation",
        kind: Kind::Custom(ablations::ablation_relax),
        reads: SIMULATES,
    },
    Entry {
        name: "ablation_routing",
        group: Group::Ablation,
        paper_ref: "Eq. 10",
        summary: "Up*/Down* ascent policy under skewed destination mass",
        kind: Kind::Custom(ablations::ablation_routing),
        reads: SIMULATES,
    },
    Entry {
        name: "ablation_variance",
        group: Group::Ablation,
        paper_ref: "Eqs. 17/36",
        summary: "Draper-Ghosh service-variance approximation vs sigma²=0",
        kind: Kind::Custom(ablations::ablation_variance),
        reads: &[],
    },
    Entry {
        name: "coupling_modes",
        group: Group::Ablation,
        paper_ref: "Eq. 20 vs 36-37",
        summary: "concentrator coupling: cut-through / virtual-ct / store&forward",
        kind: Kind::Custom(ablations::coupling_modes),
        reads: SIMULATES,
    },
    Entry {
        name: "buffer_depth",
        group: Group::Extension,
        paper_ref: "assumption 6",
        summary: "flit-buffer-depth sweep in the flit-level engine",
        kind: Kind::Custom(extensions::buffer_depth),
        // The flit engine has no sharded form.
        reads: &["--quick", "--fail-links", "--interning"],
    },
    Entry {
        name: "bursty",
        group: Group::Extension,
        paper_ref: "§5",
        summary: "interrupted-Poisson traffic at fixed mean rate (duty sweep)",
        kind: Kind::Custom(extensions::bursty),
        reads: SIMULATES,
    },
    Entry {
        name: "nonuniform",
        group: Group::Extension,
        paper_ref: "§5",
        summary: "cluster-locality sweep: generalized model vs simulation",
        kind: Kind::Custom(extensions::nonuniform),
        reads: SIMULATES,
    },
    Entry {
        name: "scaling",
        group: Group::Extension,
        paper_ref: "-",
        summary: "cluster-count scaling: latency and saturation vs system size",
        kind: Kind::Custom(extensions::scaling),
        reads: &[],
    },
    Entry {
        name: "degradation",
        group: Group::Extension,
        paper_ref: "-",
        summary: "graceful degradation: latency and delivered fraction vs failed-link fraction",
        kind: Kind::Custom(extensions::degradation),
        // Each run sets its own failed fraction, the sweep axis.
        reads: &["--quick", "--shards", "--interning"],
    },
    Entry {
        name: "torus_sweep",
        group: Group::Extension,
        paper_ref: "-",
        summary: "4x 4x4-torus clusters under an m=4 ICN2 tree: sim-only latency vs load",
        kind: committed!("torus_sweep"),
        reads: SCENARIO,
    },
    Entry {
        name: "hotspots",
        group: Group::Diagnostic,
        paper_ref: "§4",
        summary: "hottest channels of one run (ICN2 bottleneck evidence)",
        kind: Kind::Custom(diagnostics::hotspots),
        reads: SIMULATES_AT_RATE,
    },
    Entry {
        name: "utilization",
        group: Group::Diagnostic,
        paper_ref: "§4",
        summary: "predicted vs measured channel utilisation per network class",
        kind: Kind::Custom(diagnostics::utilization),
        reads: SIMULATES_AT_RATE,
    },
    Entry {
        name: "breakdown",
        group: Group::Diagnostic,
        paper_ref: "Eqs. 4/39",
        summary: "latency decomposition: where the time goes as load grows",
        kind: Kind::Custom(diagnostics::breakdown),
        reads: &[],
    },
    Entry {
        name: "pairwise",
        group: Group::Diagnostic,
        paper_ref: "Eq. 32",
        summary: "pairwise inter-cluster latency matrix by cluster class",
        kind: Kind::Custom(diagnostics::pairwise),
        reads: &[],
    },
    Entry {
        name: "org_scale",
        group: Group::Perf,
        paper_ref: "-",
        summary:
            "route-interning scale sweep: build ms / table bytes / events/sec, 1k to 10^6 endpoints",
        kind: Kind::Custom(scale::org_scale),
        // It times fault-free builds in both interning modes.
        reads: &["--quick", "--json", "--shards"],
    },
];

/// All entries, in listing order.
pub fn all() -> &'static [Entry] {
    ENTRIES
}

/// Looks an entry up by its registry key.
pub fn find(name: &str) -> Option<&'static Entry> {
    ENTRIES.iter().find(|e| e.name == name)
}

/// Why [`run`] or [`run_scenario`] refused to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A flag the target does not read, or cannot read with the others
    /// given: `cocnet run` exits 2, as for an unknown flag.
    Usage(String),
    /// The scenario, with the flags applied, fails validation: exit 1.
    Invalid(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Usage(e) | Self::Invalid(e) => f.write_str(e),
        }
    }
}

/// Executes one entry under the given options, after refusing any flag
/// the entry does not read ([`Entry::reads`]).
pub fn run(entry: &Entry, opts: &RunOpts) -> Result<(), RunError> {
    match entry.kind {
        Kind::Declarative(_) => {
            refuse_unread(&format!("entry {}", entry.name), entry.reads, opts)?;
            run_scenario(&entry.scenario().expect("declarative"), opts)
        }
        Kind::Custom(f) => {
            refuse_unread(&format!("custom entry {}", entry.name), entry.reads, opts)?;
            f(opts);
            Ok(())
        }
    }
}

/// Refuses the first flag `opts` sets that `reads` does not list, naming
/// it, what `target` reads and which runs read it: a flag silently
/// ignored is a run with other parameters than the command line says
/// (machine output over a human table, a precision target never applied).
fn refuse_unread(target: &str, reads: &[&str], opts: &RunOpts) -> Result<(), RunError> {
    let Some(flag) = opts.given().find(|f| !reads.contains(f)) else {
        return Ok(());
    };
    let reads = if reads.is_empty() {
        "no flag".into()
    } else {
        reads.join(" ")
    };
    let customs = ENTRIES
        .iter()
        .filter(|e| matches!(e.kind, Kind::Custom(_)) && e.reads.contains(&flag));
    let readers: Vec<&str> = SCENARIO
        .contains(&flag)
        .then_some("every scenario")
        .into_iter()
        .chain(customs.map(|e| e.name))
        .collect();
    Err(RunError::Usage(format!(
        "{target} does not read {flag} (it reads {reads}); {flag} is read by {}",
        readers.join(", ")
    )))
}

/// The analytical series of a scenario, or an empty set when the spec uses
/// a topology backend outside the paper's model coverage (the caveat goes
/// to stderr so machine output stays parseable). The simulation series are
/// unaffected: every backend simulates; only the equations are tree-only.
fn model_series(scenario: &Scenario) -> Vec<cocnet_stats::Series> {
    match cocnet_model::coverage(&scenario.spec) {
        cocnet_model::ModelCoverage::Full => scenario.run_model(),
        cocnet_model::ModelCoverage::SimOnly { reason } => {
            eprintln!("[sim-only scenario: {reason}; skipping the analytical series]");
            Vec::new()
        }
    }
}

/// Refuses a flag a scenario run would ignore beside another: `--json`
/// beside `--out`, which prints only machine output, and beside
/// `--no-sim` any flag that shapes the simulation it skips.
fn refuse_ignored(opts: &RunOpts) -> Result<(), RunError> {
    if opts.json && opts.out.is_some() {
        return Err(RunError::Usage(
            "--json adds JSON after the tables, and --out prints only machine output: \
             pass one of them"
                .into(),
        ));
    }
    // What a `--no-sim` run still reads: the grid and the writers.
    const ANALYSIS: &[&str] = &["--no-sim", "--points", "--json", "--out"];
    match opts.given().find(|f| opts.no_sim && !ANALYSIS.contains(f)) {
        Some(flag) => Err(RunError::Usage(format!(
            "{flag} shapes the simulation, which --no-sim skips: pass one of them"
        ))),
        None => Ok(()),
    }
}

/// Executes a declarative scenario: the analytical series, the simulation
/// sweep over the rayon pool (unless `--no-sim`), and the unified output
/// writer — the CI-bearing one for a precision scenario. This is the
/// single execution path behind every `Declarative` entry *and* every
/// user-authored scenario file.
pub fn run_scenario(scenario: &Scenario, opts: &RunOpts) -> Result<(), RunError> {
    refuse_unread(&format!("scenario {:?}", scenario.name), SCENARIO, opts)?;
    refuse_ignored(opts)?;
    let mut scenario = scenario.clone();
    if let Some(points) = opts.points {
        match &scenario.rates {
            crate::runner::RateGrid::Range { .. } => {
                scenario.rates = scenario.rates.with_steps(points);
            }
            // An explicit list has no generating rule — re-gridding it
            // would silently run a different sweep than the file says.
            crate::runner::RateGrid::List(rates) if rates.len() != points => {
                return Err(RunError::Usage(format!(
                    "scenario {:?}: --points {points} cannot re-grid an explicit \
                     {}-rate list; edit the file or use a {{start, stop, steps}} range",
                    scenario.name,
                    rates.len()
                )));
            }
            crate::runner::RateGrid::List(_) => {}
        }
    }
    if let Some(rel) = opts.rel_ci {
        if scenario.replications != 1 {
            return Err(RunError::Usage(format!(
                "scenario {:?}: --rel-ci sets a precision target, which conflicts with the \
                 scenario's fixed {} replications; drop --rel-ci or edit the file",
                scenario.name, scenario.replications
            )));
        }
        let mut precision = scenario.precision.unwrap_or_default();
        precision.rel_ci = Some(rel);
        scenario.precision = Some(precision);
    }
    if let Some(cap) = opts.max_replications {
        match &mut scenario.precision {
            Some(precision) => precision.max_replications = cap,
            None => {
                return Err(RunError::Usage(
                    "--max-replications needs a precision target: pass --rel-ci or declare \
                     a `precision` field in the scenario"
                        .into(),
                ))
            }
        }
    }
    if opts.replications.is_some() && scenario.precision.is_some() {
        return Err(RunError::Usage(format!(
            "scenario {:?}: --replications fixes the replication count, which conflicts \
             with adaptive precision control; use --max-replications to bound the spend",
            scenario.name
        )));
    }
    if let Some(replications) = opts.replications {
        scenario.replications = replications;
    }
    scenario.sim = opts.sim_config(&scenario.sim);
    scenario
        .validate()
        .map_err(|e| RunError::Invalid(format!("scenario {:?}: {e}", scenario.name)))?;

    let analysis = model_series(&scenario);
    let detailed = if opts.no_sim {
        Vec::new()
    } else {
        sweep(&scenario)
    };
    let mut plotted = analysis.clone();
    // A precision run prints each simulated point with its CI and spend.
    let (figure, machine, json) = match scenario.precision.filter(|_| !opts.no_sim) {
        Some(precision) => {
            let simulation = scenario.ci_series(&detailed, &precision);
            plotted.extend(simulation.iter().map(cocnet_stats::CiSeries::mean_series));
            (
                render_figure_ci(&scenario.name, &analysis, &simulation),
                opts.out
                    .map(|format| render_machine_ci(&analysis, &simulation, format)),
                opts.json.then(|| to_json_ci(&analysis, &simulation)),
            )
        }
        None => {
            plotted.extend(scenario.sim_series(&detailed));
            (
                render_figure(&scenario.name, &plotted),
                opts.out.map(|format| render_machine(&plotted, format)),
                opts.json.then(|| to_json(&plotted)),
            )
        }
    };
    if let Some(machine) = machine {
        print!("{machine}");
        return Ok(());
    }
    println!("{figure}");
    println!("{}", cocnet_stats::scatter(&plotted, 64, 20));
    if !scenario.sim.faults.is_inert() && !detailed.is_empty() {
        println!("{}", fault_report(&scenario, &detailed));
    }
    if let Some(json) = json {
        println!("{json}");
    }
    Ok(())
}

/// Runs a scenario's simulation sweep, then reports on stderr what it
/// spent and how many runs the MSER-5 warm-up audit flagged.
fn sweep(scenario: &Scenario) -> Vec<Vec<PointSim>> {
    let start = std::time::Instant::now();
    let detailed = scenario.run_sim_detailed();
    let elapsed = start.elapsed();
    let threads = rayon::current_num_threads();
    let points: Vec<&PointSim> = detailed.iter().flatten().collect();
    let runs: usize = points.iter().map(|point| point.runs.len()).sum();
    match &scenario.precision {
        None => eprintln!("[sweep: {runs} simulations in {elapsed:.2?} ({threads} threads)]"),
        Some(precision) => eprintln!(
            "[adaptive sweep: {runs} simulations over {} points ({} converged) \
             in {elapsed:.2?} ({threads} threads)]",
            points.len(),
            points.iter().filter(|p| p.converged(precision)).count(),
        ),
    }
    let flagged: usize = points.iter().map(|point| point.warmup_flagged()).sum();
    if flagged > 0 {
        eprintln!(
            "[warning: the MSER-5 audit flagged {flagged} replication(s) whose transient \
             outlasted the configured warm-up — consider raising sim.warmup]"
        );
    }
    detailed
}

/// Fault-accounting table for a faulted scenario run: one row per
/// (workload, rate) point with the delivered fraction and the
/// drop/retry/write-off counters — the graceful-degradation view the
/// latency series alone cannot show (undelivered messages have no
/// latency).
fn fault_report(scenario: &Scenario, detailed: &[Vec<PointSim>]) -> String {
    let mut table = cocnet_stats::Table::new([
        "workload",
        "rate",
        "delivered frac",
        "dropped",
        "retransmits",
        "unreachable",
        "stop",
    ]);
    for (entry, points) in scenario.workloads.iter().zip(detailed) {
        for point in points {
            table.push_row([
                entry.label.clone(),
                format!("{:.3e}", point.rate),
                format!("{:.3}", point.delivered_fraction()),
                point.dropped_total().to_string(),
                point.retransmits_total().to_string(),
                point.unreachable_total().to_string(),
                point.first().stop.to_string(),
            ]);
        }
    }
    format!("fault accounting (per sweep point):\n{}", table.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_find_works() {
        let mut seen = std::collections::HashSet::new();
        for entry in all() {
            assert!(seen.insert(entry.name), "duplicate entry {}", entry.name);
            assert!(std::ptr::eq(find(entry.name).unwrap(), entry));
        }
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn every_declarative_entry_validates() {
        for entry in all() {
            if let Some(scenario) = entry.scenario() {
                scenario
                    .validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            }
        }
    }

    #[test]
    fn run_opts_parse_and_reject() {
        let ok = RunOpts::parse(&["--quick".into(), "--points".into(), "6".into()]).unwrap();
        assert!(ok.quick);
        assert_eq!(ok.points, Some(6));
        assert!(RunOpts::parse(&["--pionts".into(), "6".into()]).is_err());
        assert!(RunOpts::parse(&["--points".into()]).is_err());
        assert!(RunOpts::parse(&["--out".into(), "yaml".into()]).is_err());
    }

    #[test]
    fn quick_scales_populations_only() {
        let base = SimConfig {
            seed: 99,
            ..SimConfig::default()
        };
        let q = quick_sim(&base);
        assert_eq!((q.warmup, q.measured, q.drain), (2_000, 20_000, 2_000));
        assert_eq!(q.seed, 99);
        // Quick never makes a run larger than its scenario asked for.
        let small = SimConfig {
            warmup: 200,
            measured: 2_000,
            drain: 200,
            ..SimConfig::default()
        };
        assert_eq!(quick_sim(&small), small);
        let quick = RunOpts {
            quick: true,
            ..RunOpts::default()
        };
        let s = scaled(&base, &quick);
        assert_eq!((s.warmup, s.measured, s.drain), (1_000, 10_000, 1_000));
        assert_eq!(scaled(&base, &RunOpts::default()), base);
    }

    #[test]
    fn engine_flags_thread_into_both_config_paths() {
        let opts = RunOpts::parse(&[
            "--fail-links".into(),
            "0.25".into(),
            "--interning".into(),
            "eager".into(),
        ])
        .unwrap();
        let base = SimConfig::default();
        for cfg in [opts.sim_config(&base), scaled(&base, &opts)] {
            assert_eq!(cfg.faults.link_fraction, 0.25);
            assert_eq!(cfg.interning, InternMode::Eager);
            // Everything else stays untouched.
            assert_eq!(cfg.seed, base.seed);
        }
        // No flag means no override.
        assert_eq!(RunOpts::default().sim_config(&base), base);
        assert!(RunOpts::parse(&["--interning".into(), "lazy".into()]).is_err());
    }

    #[test]
    fn shards_flag_threads_into_sim_configs() {
        let opts = RunOpts::parse(&["--shards".into(), "auto".into()]).unwrap();
        assert_eq!(opts.shards, Some(ShardMode::Auto));
        let base = SimConfig::default();
        assert_eq!(opts.sim_config(&base).shards, ShardMode::Auto);
        assert_eq!(scaled(&base, &opts).shards, ShardMode::Auto);
        let k = RunOpts::parse(&["--shards".into(), "4".into()]).unwrap();
        assert_eq!(scaled(&base, &k).shards, ShardMode::N(4));
        // No flag means no override: serial stays the default engine.
        assert_eq!(RunOpts::default().sim_config(&base).shards, ShardMode::Off);
        assert!(RunOpts::parse(&["--shards".into(), "many".into()]).is_err());
    }

    #[test]
    fn zero_overrides_rejected_at_parse_time() {
        assert!(RunOpts::parse(&["--points".into(), "0".into()]).is_err());
        assert!(RunOpts::parse(&["--replications".into(), "0".into()]).is_err());
    }

    #[test]
    fn rate_must_be_finite_and_positive() {
        let ok = RunOpts::parse(&["--rate".into(), "2e-4".into()]).unwrap();
        assert_eq!(ok.rate, Some(2e-4));
        for bad in ["0", "-1", "nan", "inf", "-0"] {
            let err = RunOpts::parse(&["--rate".into(), bad.into()]).unwrap_err();
            assert!(err.contains("--rate"), "{bad}: {err}");
        }
    }
}
