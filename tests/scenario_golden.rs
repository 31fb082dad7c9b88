//! The committed `scenarios/*.json` files. A declarative registry entry
//! *is* its file (compiled in with `include_str!`), so there is no second
//! definition to keep in step; these tests check that every file parses,
//! validates and belongs to a registry entry, and pin the guarantees of
//! the files that run the same engines in other modes: faulted runs, the
//! torus backend and both route-interning modes.

use cocnet::registry::{self, Kind};
use cocnet::runner::Scenario;
use cocnet::sim::SimConfig;
use std::path::{Path, PathBuf};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn committed_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "scenarios/ holds committed files");
    files
}

fn load(path: &Path) -> Scenario {
    let text = std::fs::read_to_string(path).unwrap();
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_committed_file_parses_validates_and_names_an_entry() {
    for path in committed_files() {
        let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
        let entry = registry::find(&stem)
            .unwrap_or_else(|| panic!("{}: no registry entry named {stem:?}", path.display()));
        load(&path)
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // A declarative entry runs these very bytes; a custom entry's file
        // is a standalone profile, pinned by its own test below.
        if let Kind::Declarative(text) = entry.kind {
            assert_eq!(
                text,
                std::fs::read_to_string(&path).unwrap(),
                "{}: registry entry {stem} compiles in another file",
                path.display()
            );
        }
    }
}

/// A test-sized population: small enough to run every committed scenario.
fn tiny(sim: &SimConfig) -> SimConfig {
    SimConfig {
        warmup: 200,
        measured: 2_000,
        drain: 200,
        ..sim.clone()
    }
}

/// The committed `degradation.json` is the standalone faulted profile of
/// the *custom* `degradation` registry entry (its fraction sweep is not a
/// rate grid). This pins that a faulted scenario run is deterministic —
/// serial == parallel, f64-bit-identically — degrades delivery without
/// silently losing a single message, and terminates by draining its event
/// queue instead of hanging.
#[test]
fn degradation_file_is_deterministic_and_degrades_gracefully() {
    use cocnet::sim::StopReason;

    let path = scenarios_dir().join("degradation.json");
    let mut scenario = load(&path);
    scenario.validate().unwrap();
    assert!(
        !scenario.sim.faults.is_inert(),
        "degradation.json must carry an active faults block"
    );
    scenario.sim = tiny(&scenario.sim);
    scenario.rates = scenario.rates.with_steps(3);
    scenario.replications = 1;

    let dump = |detailed: &[Vec<cocnet::runner::PointSim>]| -> Vec<String> {
        detailed
            .iter()
            .flatten()
            .flat_map(|p| p.runs.iter())
            .map(|r| serde_json::to_string(r).unwrap())
            .collect()
    };

    let parallel = scenario.run_sim_detailed();
    let serial = scenario.run_sim_detailed_serial();
    assert_eq!(
        dump(&parallel),
        dump(&serial),
        "faulted runs must be bit-identical between serial and parallel execution"
    );

    for point in parallel.iter().flatten() {
        for r in &point.runs {
            assert_eq!(r.stop, StopReason::Drained, "faulted run exits by draining");
            assert!(!r.completed);
            assert_eq!(
                r.generated,
                r.delivered_total + r.unreachable,
                "no message may be silently lost"
            );
            assert!(r.unreachable > 0, "10% failed links partition some pairs");
            assert!(r.delivered_total > 0, "most pairs still deliver");
        }
    }
}

/// The committed `torus_sweep.json` is the first non-tree registry entry:
/// four 4×4 torus clusters under an m=4 ICN2 tree. This pins the
/// determinism contract of the torus backend itself — the sweep is
/// f64-bit-identical across the serial and cluster-sharded engines, and
/// (being sim-only) the spec is outside the analytical model's coverage.
#[test]
fn torus_file_is_bit_identical_across_engines() {
    use cocnet::model::{coverage, ModelCoverage};
    use cocnet::sim::ShardMode;

    let path = scenarios_dir().join("torus_sweep.json");
    let mut scenario = load(&path);
    scenario.validate().unwrap();
    assert!(
        matches!(coverage(&scenario.spec), ModelCoverage::SimOnly { .. }),
        "torus_sweep.json must be a sim-only scenario"
    );
    scenario.sim = tiny(&scenario.sim);
    scenario.rates = scenario.rates.with_steps(3);
    scenario.replications = 1;

    // `peak_live_msgs` is documented shard-local (the sharded engine
    // reports its largest per-shard slab, the serial engine the global
    // one); every other field must match to the bit.
    let dump = |detailed: &[Vec<cocnet::runner::PointSim>]| -> Vec<String> {
        detailed
            .iter()
            .flatten()
            .flat_map(|p| p.runs.iter())
            .map(|r| {
                let mut r = r.clone();
                r.peak_live_msgs = 0;
                serde_json::to_string(&r).unwrap()
            })
            .collect()
    };

    let run = |shards| {
        let mut s = scenario.clone();
        s.sim.shards = shards;
        dump(&s.run_sim_detailed())
    };
    let serial = run(ShardMode::Off);
    assert!(
        serial.iter().any(|r| !r.is_empty()),
        "tiny torus run produced no points at all"
    );
    assert_eq!(
        serial,
        run(ShardMode::Auto),
        "torus sweep must be bit-identical between the serial and sharded engines"
    );
}

/// The committed `org_scale.json` is the standalone 2048-endpoint profile
/// of the *custom* `org_scale` registry entry (its sweep axis is org
/// size, not rate). It pins the route-interning guarantee end to end:
/// the class-keyed table (the file's explicit `"interning": "Classed"`)
/// and the eager all-pairs oracle produce f64-bit-identical simulation
/// output on an organization an order of magnitude larger than the
/// golden-regression specs.
#[test]
fn org_scale_file_runs_bit_identical_across_intern_modes() {
    use cocnet::sim::InternMode;

    let path = scenarios_dir().join("org_scale.json");
    let mut scenario = load(&path);
    scenario.validate().unwrap();
    assert_eq!(scenario.spec.total_nodes(), 2048);
    assert_eq!(scenario.sim.interning, InternMode::Classed);
    scenario.sim = tiny(&scenario.sim);
    scenario.rates = scenario.rates.with_steps(2);
    scenario.replications = 1;

    let dump = |detailed: &[Vec<cocnet::runner::PointSim>]| -> Vec<String> {
        detailed
            .iter()
            .flatten()
            .flat_map(|p| p.runs.iter())
            .map(|r| serde_json::to_string(r).unwrap())
            .collect()
    };

    let classed = scenario.run_sim_detailed();
    let mut eager = scenario.clone();
    eager.sim.interning = InternMode::Eager;
    assert_eq!(
        dump(&classed),
        dump(&eager.run_sim_detailed()),
        "classed and eager interning must be bit-identical end to end"
    );
    assert!(
        classed.iter().flatten().any(|p| !p.runs.is_empty()),
        "tiny org_scale run produced no points at all"
    );
}
