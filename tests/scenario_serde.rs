//! Serde round-trips and hygiene for the declarative scenario layer:
//! every spec type survives JSON, missing optional fields take their
//! documented defaults, and unknown fields fail loudly (the
//! `deny_unknown_fields` contract that keeps committed scenario files
//! honest).

use cocnet::model::{ModelOptions, VarianceApprox, Workload};
use cocnet::prelude::*;
use cocnet::presets;
use cocnet::runner::{RateGrid, WorkloadEntry};
use cocnet::sim::Coupling;
use cocnet_workloads::ArrivalSpec;

fn round_trip<T: serde::Serialize + serde::Deserialize>(value: &T) -> T {
    let json = serde_json::to_string_pretty(value).expect("serialises");
    serde_json::from_str(&json).expect("parses back")
}

/// The paper-shaped scenario used throughout this file.
fn scenario() -> Scenario {
    Scenario::new("test scenario", presets::org_544())
        .with_workload("Lm=256", presets::wl_m32_l256())
        .with_workload("Lm=512", presets::wl_m32_l512())
        .with_grid(1e-3, 10)
        .with_replications(2)
        .with_seeding(Seeding::PerPoint)
        .with_pattern(Pattern::ClusterLocal { locality: 0.4 })
}

#[test]
fn workload_round_trips() {
    let wl = Workload::new(2e-4, 32, 256.0).unwrap();
    assert_eq!(round_trip(&wl), wl);
}

#[test]
fn workload_rejects_unknown_field() {
    let err = serde_json::from_str::<Workload>(
        r#"{"lambda_g": 1e-4, "msg_flits": 32, "flit_bytes": 256.0, "flit_byts": 1}"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("flit_byts"), "{err}");
}

#[test]
fn model_options_round_trip_and_default() {
    for opts in [
        ModelOptions::default(),
        ModelOptions {
            relaxing_factor: false,
            variance: VarianceApprox::Zero,
        },
    ] {
        assert_eq!(round_trip(&opts), opts);
    }
    // Container-level #[serde(default)]: {} is the paper's options.
    let parsed: ModelOptions = serde_json::from_str("{}").unwrap();
    assert_eq!(parsed, ModelOptions::default());
    let parsed: ModelOptions = serde_json::from_str(r#"{"relaxing_factor": false}"#).unwrap();
    assert!(!parsed.relaxing_factor);
    assert_eq!(parsed.variance, VarianceApprox::DraperGhosh);
}

#[test]
fn sim_config_round_trip_default_and_unknown() {
    let cfg = SimConfig {
        seed: 7,
        coupling: Coupling::StoreAndForward,
        collect_percentiles: true,
        ..SimConfig::default()
    };
    assert_eq!(round_trip(&cfg), cfg);
    // Missing fields come from the paper's §4 methodology defaults.
    let parsed: SimConfig = serde_json::from_str(r#"{"seed": 9}"#).unwrap();
    assert_eq!(parsed.seed, 9);
    assert_eq!(parsed.warmup, SimConfig::default().warmup);
    assert_eq!(parsed.measured, SimConfig::default().measured);
    // Typos fail loudly.
    let err = serde_json::from_str::<SimConfig>(r#"{"sede": 9}"#).unwrap_err();
    assert!(err.to_string().contains("sede"), "{err}");
}

#[test]
fn retired_scheduler_field_is_rejected_by_name() {
    // The engines run on one future-event list, so there is no backend to
    // pick: a config that still names one fails loudly, naming the field.
    for json in [r#"{"scheduler": "Heap"}"#, r#"{"scheduler": "Calendar"}"#] {
        let err = serde_json::from_str::<SimConfig>(json).unwrap_err();
        assert!(err.to_string().contains("scheduler"), "{json}: {err}");
    }
    // So does a whole scenario file that carries the old line.
    let json = serde_json::to_string_pretty(&scenario()).unwrap();
    let stale = json.replacen(r#""sim": {"#, r#""sim": {"scheduler": "Heap","#, 1);
    assert_ne!(stale, json, "the scenario serialises a sim block");
    let err = serde_json::from_str::<Scenario>(&stale).unwrap_err();
    assert!(err.to_string().contains("scheduler"), "{err}");
}

#[test]
fn shards_field_round_trips_and_defaults_to_off() {
    use cocnet::sim::ShardMode;
    // Files predating the field stay on the serial engine.
    let parsed: SimConfig = serde_json::from_str(r#"{"seed": 9}"#).unwrap();
    assert_eq!(parsed.shards, ShardMode::Off);
    // Bare variant name for the symbolic modes, {"N": k} for a count.
    let parsed: SimConfig = serde_json::from_str(r#"{"shards": "Auto"}"#).unwrap();
    assert_eq!(parsed.shards, ShardMode::Auto);
    let parsed: SimConfig = serde_json::from_str(r#"{"shards": {"N": 4}}"#).unwrap();
    assert_eq!(parsed.shards, ShardMode::N(4));
    let cfg = SimConfig {
        shards: ShardMode::Auto,
        ..SimConfig::default()
    };
    assert_eq!(round_trip(&cfg), cfg);
    assert!(serde_json::to_string(&cfg).unwrap().contains(r#""Auto""#));
    // An unknown mode fails loudly.
    assert!(serde_json::from_str::<SimConfig>(r#"{"shards": "Many"}"#).is_err());
    // And a scenario threads it through validation unchanged.
    let mut s = scenario();
    s.sim.shards = ShardMode::N(2);
    let json = serde_json::to_string_pretty(&s).unwrap();
    let back: Scenario = serde_json::from_str(&json).unwrap();
    assert_eq!(back.sim.shards, ShardMode::N(2));
    back.validate().unwrap();
}

#[test]
fn pattern_variants_round_trip() {
    for pattern in [
        Pattern::Uniform,
        Pattern::Hotspot {
            hotspot: 3,
            fraction: 0.25,
        },
        Pattern::ClusterLocal { locality: 0.8 },
        Pattern::ClusterShift { shift: 2 },
        Pattern::Complement,
    ] {
        assert_eq!(round_trip(&pattern), pattern);
    }
    assert_eq!(Pattern::default(), Pattern::Uniform);
}

#[test]
fn pattern_variant_rejects_unknown_field() {
    let err =
        serde_json::from_str::<Pattern>(r#"{"ClusterLocal": {"locallity": 0.8}}"#).unwrap_err();
    assert!(err.to_string().contains("locallity"), "{err}");
}

#[test]
fn arrival_spec_round_trips() {
    for spec in [
        ArrivalSpec::Poisson { rate: 2e-4 },
        ArrivalSpec::bursty(2e-4, 0.25, 8.0),
    ] {
        assert_eq!(round_trip(&spec), spec);
    }
}

#[test]
fn seeding_round_trips_as_bare_strings() {
    for seeding in [Seeding::Shared, Seeding::PerPoint] {
        assert_eq!(round_trip(&seeding), seeding);
    }
    assert_eq!(
        serde_json::to_string(&Seeding::PerPoint).unwrap(),
        "\"PerPoint\""
    );
}

#[test]
fn rate_grid_list_and_range_forms() {
    let list = RateGrid::List(vec![1e-4, 2e-4, 3e-4]);
    assert_eq!(round_trip(&list), list);
    let range = RateGrid::Range {
        start: 0.0,
        stop: 5e-4,
        steps: 10,
    };
    assert_eq!(round_trip(&range), range);
    // A bare array is a list; an object is a range; start defaults to 0.
    let parsed: RateGrid = serde_json::from_str("[1e-4, 2e-4]").unwrap();
    assert_eq!(parsed, RateGrid::List(vec![1e-4, 2e-4]));
    let parsed: RateGrid = serde_json::from_str(r#"{"stop": 5e-4, "steps": 4}"#).unwrap();
    assert_eq!(
        parsed,
        RateGrid::Range {
            start: 0.0,
            stop: 5e-4,
            steps: 4
        }
    );
    let err = serde_json::from_str::<RateGrid>(r#"{"stop": 5e-4, "stepz": 4}"#).unwrap_err();
    assert!(err.to_string().contains("stepz"), "{err}");
    let err = serde_json::from_str::<RateGrid>("3.5").unwrap_err();
    assert!(err.to_string().contains("rate list"), "{err}");
}

#[test]
fn range_grid_resolves_bit_identical_to_rate_grid() {
    let range = RateGrid::Range {
        start: 0.0,
        stop: 5e-4,
        steps: 10,
    };
    let classic = cocnet::model::rate_grid(5e-4, 10);
    assert_eq!(range.values(), classic);
    assert_eq!(range.len(), 10);
    // Non-zero start: steps evenly spaced points in (start, stop].
    let shifted = RateGrid::Range {
        start: 1e-4,
        stop: 3e-4,
        steps: 4,
    };
    let values = shifted.values();
    assert_eq!(values.len(), 4);
    assert!(values[0] > 1e-4);
    assert_eq!(*values.last().unwrap(), 3e-4);
}

#[test]
fn rate_grid_with_steps() {
    let range = RateGrid::Range {
        start: 0.0,
        stop: 5e-4,
        steps: 10,
    };
    assert_eq!(range.with_steps(4).len(), 4);
    let list = RateGrid::List(vec![1e-4, 2e-4, 3e-4]);
    // Lists have no generating rule: truncated, never extended.
    assert_eq!(list.with_steps(2), RateGrid::List(vec![1e-4, 2e-4]));
    assert_eq!(list.with_steps(9), list);
}

#[test]
fn workload_entry_round_trips_and_denies_unknown() {
    let entry = WorkloadEntry {
        label: "Lm=256".into(),
        workload: presets::wl_m32_l256(),
    };
    assert_eq!(round_trip(&entry), entry);
    let err = serde_json::from_str::<WorkloadEntry>(
        r#"{"label": "x", "workload": {"lambda_g": 0.0, "msg_flits": 1, "flit_bytes": 1.0}, "lable": 3}"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("lable"), "{err}");
}

#[test]
fn scenario_round_trips_structurally() {
    let s = scenario();
    let json = serde_json::to_string_pretty(&s).unwrap();
    let back: Scenario = serde_json::from_str(&json).unwrap();
    // Scenario has no PartialEq (SimResults chains); structural equality
    // via the serialised form is exactly what the golden files rely on.
    assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    back.validate().unwrap();
}

#[test]
fn minimal_scenario_file_takes_documented_defaults() {
    let json = r#"{
        "spec": {
            "m": 4,
            "clusters": [
                {"n": 1, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                          "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}},
                {"n": 1, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                          "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}},
                {"n": 2, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                          "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}},
                {"n": 2, "icn1": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02},
                          "ecn1": {"bandwidth": 250.0, "network_latency": 0.05, "switch_latency": 0.01}}
            ],
            "icn2": {"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02}
        },
        "workloads": [{"label": "Lm=256", "workload": {"lambda_g": 0.0, "msg_flits": 32, "flit_bytes": 256.0}}],
        "rates": [2e-4]
    }"#;
    let s: Scenario = serde_json::from_str(json).unwrap();
    assert_eq!(s.name, "");
    assert_eq!(s.pattern, Pattern::Uniform);
    assert_eq!(s.replications, 1);
    assert_eq!(s.seeding, Seeding::Shared);
    assert_eq!(s.opts, ModelOptions::default());
    assert_eq!(s.sim, SimConfig::default());
    s.validate().unwrap();
}

#[test]
fn scenario_rejects_unknown_and_missing_fields() {
    let err = serde_json::from_str::<Scenario>(r#"{"nmae": "typo"}"#).unwrap_err();
    assert!(err.to_string().contains("nmae"), "{err}");
    // Required fields stay required despite the defaults.
    let err = serde_json::from_str::<Scenario>(r#"{"name": "no spec"}"#).unwrap_err();
    assert!(err.to_string().contains("spec"), "{err}");
}

#[test]
fn validate_catches_broken_scenarios() {
    let base = scenario();

    let mut s = base.clone();
    s.workloads.clear();
    assert!(s.validate().unwrap_err().contains("workload"));

    let mut s = base.clone();
    s.rates = RateGrid::List(vec![1e-4, -2e-4]);
    assert!(s.validate().unwrap_err().contains("finite and > 0"));

    let mut s = base.clone();
    s.rates = RateGrid::Range {
        start: 2e-4,
        stop: 1e-4,
        steps: 4,
    };
    assert!(s.validate().unwrap_err().contains("start < stop"));

    let mut s = base.clone();
    s.rates = RateGrid::List(Vec::new());
    assert!(s.validate().unwrap_err().contains("at least one rate"));

    let mut s = base.clone();
    s.replications = 0;
    assert!(s.validate().unwrap_err().contains("replications"));

    let mut s = base.clone();
    s.pattern = Pattern::ClusterLocal { locality: 1.5 };
    assert!(s.validate().unwrap_err().contains("[0, 1]"));

    let mut s = base.clone();
    s.pattern = Pattern::Hotspot {
        hotspot: 544,
        fraction: 0.2,
    };
    assert!(s.validate().unwrap_err().contains("hotspot"));

    let mut s = base.clone();
    s.pattern = Pattern::ClusterShift { shift: 16 };
    assert!(s.validate().unwrap_err().contains("shift"));

    let mut s = base.clone();
    s.workloads[0].workload.msg_flits = 0;
    assert!(s.validate().unwrap_err().contains("workload"));

    let mut s = base.clone();
    s.sim.measured = 0;
    assert!(s.validate().unwrap_err().contains("measured"));

    // Deserialization bypasses NetworkCharacteristics::new, so validate()
    // must catch physically impossible networks too.
    let mut s = base.clone();
    s.spec.clusters[0].ecn1.bandwidth = 0.0;
    assert!(s.validate().unwrap_err().contains("bandwidth"));
    let mut s = base.clone();
    s.spec.icn2.network_latency = f64::NAN;
    assert!(s.validate().unwrap_err().contains("network_latency"));

    base.validate().unwrap();
}

#[test]
fn unsigned_fields_reject_integers_past_u64_max() {
    // 1.89e19 is past u64::MAX, so the JSON parser reads it as a float: the
    // seed field must refuse it by name, not clamp it to u64::MAX.
    let mut s = scenario();
    s.sim.seed = 7;
    let json = serde_json::to_string_pretty(&s).unwrap();
    let edited = json.replacen(r#""seed": 7,"#, r#""seed": 18900000000000000000,"#, 1);
    assert_ne!(edited, json, "the scenario serialises its seed");
    let err = serde_json::from_str::<Scenario>(&edited).unwrap_err();
    assert!(err.to_string().contains("seed"), "{err}");
}

/// Where each distinct key path's first numeric literal sits, in document
/// order. A key path elides array positions (`spec.clusters.n`); a
/// location keeps them, one child index per level.
fn numeric_paths(
    v: &serde::Value,
    path: &str,
    at: &mut Vec<usize>,
    out: &mut Vec<(String, Vec<usize>)>,
) {
    let children: Vec<(String, &serde::Value)> = match v {
        serde::Value::I64(_) | serde::Value::U64(_) | serde::Value::F64(_) => {
            if out.iter().all(|(seen, _)| seen != path) {
                out.push((path.to_string(), at.clone()));
            }
            return;
        }
        serde::Value::Obj(fields) => fields
            .iter()
            .map(|(key, child)| (format!("{path}.{key}"), child))
            .collect(),
        serde::Value::Arr(items) => items
            .iter()
            .map(|child| (path.to_string(), child))
            .collect(),
        _ => return,
    };
    for (i, (child_path, child)) in children.into_iter().enumerate() {
        at.push(i);
        numeric_paths(child, &child_path, at, out);
        at.pop();
    }
}

#[test]
fn edited_committed_scenarios_fail_typed_never_panic() {
    // Each committed file, with one numeric literal per distinct key path
    // swapped for each edge value below, either fails to parse or parses
    // to a scenario that `validate()` accepts or refuses: never a panic,
    // never an aborted allocation, and never an unsigned field the parser
    // clamped to u64::MAX.
    let edges = "-1 0 1.5 1e400 1e-320 65536 4294967296 1125899906842624 18446744073709551616";
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let (mut cases, mut failures) = (0, Vec::new());
    for file in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if file.extension().is_none_or(|ext| ext != "json") {
            continue;
        }
        let value: serde::Value = serde_json::from_str(&std::fs::read_to_string(&file).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        let mut located = Vec::new();
        numeric_paths(&value, "", &mut Vec::new(), &mut located);
        for (path, at) in &located {
            // A string marks the literal, so the edge goes in as JSON text.
            let mut marked = value.clone();
            let leaf = at.iter().fold(&mut marked, |v, &i| match v {
                serde::Value::Obj(fields) => &mut fields[i].1,
                serde::Value::Arr(items) => &mut items[i],
                _ => unreachable!("a location runs through objects and arrays"),
            });
            *leaf = serde::Value::Str("@edge".into());
            let template = serde_json::to_string(&marked).unwrap();
            for edge in edges.split(' ') {
                cases += 1;
                let json = template.replacen("\"@edge\"", edge, 1);
                let outcome = std::panic::catch_unwind(|| {
                    serde_json::from_str::<Scenario>(&json).map(|s| {
                        let _ = s.validate();
                        serde_json::to_string(&s).unwrap()
                    })
                });
                let case = format!("{} {path} = {edge}", file.display());
                match outcome {
                    Err(_) => failures.push(format!("{case}: panicked")),
                    Ok(Ok(back)) if back.contains("18446744073709551615") => {
                        failures.push(format!("{case}: clamped to u64::MAX"))
                    }
                    Ok(_) => {}
                }
            }
        }
    }
    // 265 distinct key paths over the ten committed files.
    assert_eq!(cases, 265 * 9, "edited cases");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
