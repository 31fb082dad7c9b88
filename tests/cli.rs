//! End-to-end tests of the `cocnet` command-line binary (spawned via the
//! `CARGO_BIN_EXE_cocnet` path cargo provides to integration tests).

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let (stdout, stderr, code) = run_code(args);
    (stdout, stderr, code == Some(0))
}

/// Like [`run`], with the exit code (`None` if a signal ended the process).
fn run_code(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_cocnet"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn model_subcommand_prints_breakdown() {
    let (stdout, _, ok) = run(&["model", "--org", "544", "--rate", "2e-4"]);
    assert!(ok);
    assert!(stdout.contains("C=16 N=544"));
    assert!(stdout.contains("mean message latency"));
    assert!(stdout.contains("L_out"));
    // All 16 clusters listed.
    assert!(stdout.matches('\n').count() >= 16 + 4);
}

#[test]
fn model_subcommand_custom_spec() {
    let (stdout, _, ok) = run(&[
        "model",
        "--m",
        "4",
        "--heights",
        "2,2,3,3",
        "--rate",
        "1e-4",
    ]);
    assert!(ok);
    assert!(stdout.contains("C=4 N=48"));
}

#[test]
fn saturate_subcommand() {
    let (stdout, _, ok) = run(&["saturate", "--org", "544"]);
    assert!(ok);
    assert!(stdout.contains("saturation rate"));
    // The figure-axis check: the N=544 / M=32 boundary sits near 1e-3.
    let value: f64 = stdout
        .split(':')
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!((5e-4..2e-3).contains(&value), "saturation {value}");
}

#[test]
fn sweep_subcommand_renders_plot() {
    let (stdout, _, ok) = run(&[
        "sweep",
        "--m",
        "4",
        "--heights",
        "2,2,2,2",
        "--max-rate",
        "1e-3",
        "--points",
        "5",
    ]);
    assert!(ok);
    assert!(stdout.contains("latency"));
    assert!(stdout.contains("o Analysis"));
}

#[test]
fn sim_subcommand_runs_small() {
    let (stdout, _, ok) = run(&[
        "sim",
        "--m",
        "4",
        "--heights",
        "1,1,2,2",
        "--rate",
        "2e-4",
        "--measured",
        "2000",
        "--seed",
        "5",
    ]);
    assert!(ok);
    assert!(stdout.contains("completed=true"));
    assert!(stdout.contains("latency: n=2000"));
}

#[test]
fn model_subcommand_rejects_a_misspelt_flag() {
    // A typo must not evaluate silently at the default λ: the flag is
    // named, and the flags `model` reads are listed.
    let (stdout, stderr, code) = run_code(&["model", "--ratee", "3e-4"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("unknown flag --ratee "), "{stderr}");
    for flag in ["--org", "--heights", "--flit-bytes", "--locality"] {
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
    // Another subcommand's flag is just as unread here.
    let (_, stderr, code) = run_code(&["model", "--seed", "3"]);
    assert_eq!(code, Some(2), "{stderr}");
}

#[test]
fn sweep_subcommand_rejects_a_misspelt_flag() {
    let (stdout, stderr, code) = run_code(&["sweep", "--max-rat", "5e-4"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("unknown flag --max-rat "), "{stderr}");
    for flag in ["--max-rate", "--points"] {
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
}

#[test]
fn saturated_model_reports_error_exit() {
    let (_, stderr, ok) = run(&["model", "--org", "544", "--rate", "1.0"]);
    assert!(!ok);
    assert!(stderr.contains("saturated"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn figure_subcommand_prints_analysis_series() {
    // A paper figure's analysis side is the registry entry run without
    // its simulation series.
    let (stdout, stderr, ok) = run(&["run", "fig5", "--no-sim", "--points", "6"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("N=544, m=4, M=32"));
    assert!(stdout.contains("Analysis (Lm=256)"));
    assert!(stdout.contains("Analysis (Lm=512)"));
    assert!(!stdout.contains("Simulation"), "{stdout}");
}

#[test]
fn bad_rates_are_usage_errors() {
    // The simulator needs traffic: a rate that is zero, negative or not
    // finite is rejected up front, naming the flag, instead of aborting
    // inside the engine.
    for rate in ["0", "-1", "nan", "inf"] {
        for entry in ["hotspots", "utilization"] {
            let (_, stderr, code) = run_code(&["run", entry, "--quick", "--rate", rate]);
            assert_eq!(code, Some(2), "{entry} --rate {rate}: {stderr}");
            assert!(stderr.contains("--rate"), "{entry} --rate {rate}: {stderr}");
        }
        let (_, stderr, code) = run_code(&["sim", "--rate", rate]);
        assert_eq!(code, Some(2), "sim --rate {rate}: {stderr}");
        assert!(stderr.contains("--rate"), "sim --rate {rate}: {stderr}");
    }
}

#[test]
fn list_subcommand_shows_registry() {
    let (stdout, _, ok) = run(&["list"]);
    assert!(ok);
    for name in ["fig3", "table1", "validation", "org_scale", "nonuniform"] {
        assert!(stdout.contains(name), "missing {name}");
    }
    assert!(stdout.contains("scenario"));
    assert!(stdout.contains("custom"));
}

#[test]
fn describe_subcommand_prints_scenario_json() {
    let (stdout, _, ok) = run(&["describe", "fig5"]);
    assert!(ok);
    assert!(stdout.contains("paper:    Fig. 5"));
    assert!(stdout.contains("scenarios/fig5.json"));
    assert!(stdout.contains("\"workloads\""));
    // --json prints the bare scenario (parseable).
    let (json, _, ok) = run(&["describe", "fig5", "--json"]);
    assert!(ok);
    assert!(json.trim_start().starts_with('{'));
    assert!(json.contains("\"rates\""));
    // Custom entries have no JSON form.
    let (_, stderr, ok) = run(&["describe", "table1", "--json"]);
    assert!(!ok);
    assert!(stderr.contains("custom"));
    let (_, stderr, ok) = run(&["describe", "no_such_thing"]);
    assert!(!ok);
    assert!(stderr.contains("unknown registry entry"));
}

fn scenarios_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[test]
fn validate_subcommand_accepts_committed_dir_and_rejects_typos() {
    let dir = scenarios_dir();
    let (stdout, _, ok) = run(&["validate", dir.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("ok    "));
    assert!(!stdout.contains("FAIL"));

    // A file with a typo'd field fails loudly, naming the field.
    let bad = std::env::temp_dir().join("cocnet_cli_bad_scenario.json");
    let mut text =
        std::fs::read_to_string(dir.join("fig5.json")).expect("committed fig5.json exists");
    text = text.replacen("\"replications\"", "\"replicatoins\"", 1);
    std::fs::write(&bad, text).unwrap();
    let (stdout, stderr, ok) = run(&["validate", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stdout.contains("replicatoins"), "{stdout} {stderr}");
    std::fs::remove_file(&bad).unwrap();
}

#[test]
fn bad_histograms_are_typed_errors() {
    // A `sim.histogram` with no bins, more bins than the sinks may
    // allocate, or an upper bound that is not a finite positive number
    // fails validation, naming the field, in both `validate` and `run`,
    // instead of panicking (or aborting on allocation) inside the sinks.
    let text = std::fs::read_to_string(scenarios_dir().join("fig5.json")).unwrap();
    assert!(text.contains("\"histogram\": null"), "fixture edit failed");
    let bad_values = [
        "[100.0, 0]",
        "[-5.0, 10]",
        "[0.0, 10]",
        "[100.0, 1000000000000000]",
    ];
    for (i, bad) in bad_values.iter().enumerate() {
        let path = std::env::temp_dir().join(format!("cocnet_cli_bad_histogram_{i}.json"));
        let edited = text.replacen("\"histogram\": null", &format!("\"histogram\": {bad}"), 1);
        std::fs::write(&path, edited).unwrap();
        let file = path.to_str().unwrap();
        let (stdout, stderr, code) = run_code(&["validate", file]);
        assert_eq!(code, Some(1), "validate {bad}: {stdout} {stderr}");
        assert!(stdout.contains("sim.histogram"), "validate {bad}: {stdout}");
        let (_, stderr, code) = run_code(&["run", file, "--quick", "--points", "1"]);
        assert_eq!(code, Some(1), "run {bad}: {stderr}");
        assert!(stderr.contains("sim.histogram"), "run {bad}: {stderr}");
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn oversized_populations_are_typed_errors() {
    // Populations whose count overflows, or whose latency samples the
    // sinks would reserve up front beyond their cap, fail validation
    // naming the field, in both `validate` and `run`: never a wrapped
    // count that records nothing, never an aborted allocation.
    let text = std::fs::read_to_string(scenarios_dir().join("fig5.json")).unwrap();
    let huge_measured = ("\"measured\": 100000", "\"measured\": 1000000000000000");
    let cases = [
        (
            "sim.warmup",
            vec![("\"warmup\": 10000", "\"warmup\": 18446744073709551615")],
        ),
        (
            "sim.measured",
            vec![
                huge_measured,
                (
                    "\"collect_percentiles\": false",
                    "\"collect_percentiles\": true",
                ),
            ],
        ),
        (
            "sim.measured",
            vec![
                huge_measured,
                ("\"audit_warmup\": false", "\"audit_warmup\": true"),
            ],
        ),
    ];
    for (i, (field, edits)) in cases.iter().enumerate() {
        let mut edited = text.clone();
        for (from, to) in edits {
            assert!(edited.contains(from), "fixture edit failed: {from}");
            edited = edited.replacen(from, to, 1);
        }
        let path = std::env::temp_dir().join(format!("cocnet_cli_oversized_{i}.json"));
        std::fs::write(&path, edited).unwrap();
        let file = path.to_str().unwrap();
        let (stdout, stderr, code) = run_code(&["validate", file]);
        assert_eq!(code, Some(1), "validate {edits:?}: {stdout} {stderr}");
        assert!(stdout.contains(field), "validate {edits:?}: {stdout}");
        let (_, stderr, code) = run_code(&["run", file, "--points", "1", "--serial"]);
        assert_eq!(code, Some(1), "run {edits:?}: {stderr}");
        assert!(stderr.contains(field), "run {edits:?}: {stderr}");
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn run_subcommand_executes_a_brand_new_scenario_file() {
    // A scenario that exists nowhere in the registry: custom 48-node
    // system, one workload, explicit rates, test-sized population —
    // end-to-end through the CLI with no Rust changes.
    let net = |bw: f64, nl: f64, sl: f64| {
        format!(r#"{{"bandwidth": {bw}, "network_latency": {nl}, "switch_latency": {sl}}}"#)
    };
    let cluster = |n: u32| {
        format!(
            r#"{{"n": {n}, "icn1": {}, "ecn1": {}}}"#,
            net(500.0, 0.01, 0.02),
            net(250.0, 0.05, 0.01)
        )
    };
    let json = format!(
        r#"{{
            "name": "brand-new e2e scenario",
            "spec": {{"m": 4, "clusters": [{}, {}, {}, {}], "icn2": {}}},
            "workloads": [
                {{"label": "Lm=256", "workload": {{"lambda_g": 0.0, "msg_flits": 16, "flit_bytes": 256.0}}}}
            ],
            "rates": [2e-4, 4e-4],
            "sim": {{"warmup": 200, "measured": 2000, "drain": 200, "seed": 11}}
        }}"#,
        cluster(1),
        cluster(1),
        cluster(2),
        cluster(2),
        net(500.0, 0.01, 0.02)
    );
    let path = std::env::temp_dir().join("cocnet_cli_new_scenario.json");
    std::fs::write(&path, &json).unwrap();

    let (stdout, stderr, ok) = run(&["run", path.to_str().unwrap()]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("## brand-new e2e scenario"));
    assert!(stdout.contains("Analysis (Lm=256)"));
    assert!(stdout.contains("Simulation (Lm=256)"));

    // The same file through the unified machine writer.
    let (csv, _, ok) = run(&["run", path.to_str().unwrap(), "--out", "csv"]);
    assert!(ok);
    let header = csv.lines().next().unwrap();
    assert_eq!(header, "rate,Analysis (Lm=256),Simulation (Lm=256)");
    assert!(csv.lines().count() >= 3);

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn run_subcommand_rejects_unknowns() {
    let (_, stderr, ok) = run(&["run", "not_an_entry_or_file"]);
    assert!(!ok);
    assert!(stderr.contains("neither a registry entry nor a scenario file"));
    let (_, stderr, ok) = run(&["run", "fig5", "--quikc"]);
    assert!(!ok);
    assert!(stderr.contains("--quikc"));
    // Machine output on a custom entry would hand a parser a human table
    // with exit 0 — rejected loudly instead.
    let (_, stderr, ok) = run(&["run", "table1", "--out", "json"]);
    assert!(!ok);
    assert!(stderr.contains("custom entry"), "{stderr}");
    // Zero-point overrides are rejected at parse time for every grid kind.
    let (_, stderr, ok) = run(&["run", "fig5", "--points", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--points"), "{stderr}");
}

#[test]
fn run_subcommand_refuses_to_regrid_explicit_rate_lists() {
    // --points on a range grid re-grids; on an explicit list it must fail
    // loudly rather than silently truncate the sweep.
    let dir = scenarios_dir();
    let mut text = std::fs::read_to_string(dir.join("fig5.json")).unwrap();
    text = text.replace(
        r#""rates": {
    "start": 0.0,
    "stop": 0.001,
    "steps": 10
  }"#,
        r#""rates": [1e-4, 2e-4, 3e-4]"#,
    );
    assert!(text.contains("[1e-4, 2e-4, 3e-4]"), "fixture edit failed");
    let path = std::env::temp_dir().join("cocnet_cli_list_rates.json");
    std::fs::write(&path, text).unwrap();
    let (_, stderr, ok) = run(&["run", path.to_str().unwrap(), "--points", "7", "--no-sim"]);
    assert!(!ok);
    assert!(stderr.contains("cannot re-grid"), "{stderr}");
    // Matching --points is fine (a no-op), and so is omitting it.
    let (_, _, ok) = run(&["run", path.to_str().unwrap(), "--points", "3", "--no-sim"]);
    assert!(ok);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn run_subcommand_adaptive_reports_ci_and_spend() {
    // The precision-preset entry through the CLI: the text table gains CI
    // bounds and a replications-spent column.
    let (stdout, stderr, ok) = run(&["run", "fig5_precision", "--quick", "--points", "2"]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("ci lo"), "{stdout}");
    assert!(stdout.contains("ci hi"));
    assert!(stdout.contains("reps"));
    assert!(stdout.contains("replications spent"));
    assert!(stderr.contains("adaptive sweep"), "{stderr}");

    // The CSV writer threads the same columns through with full precision.
    let (csv, _, ok) = run(&[
        "run",
        "fig5_precision",
        "--quick",
        "--points",
        "2",
        "--out",
        "csv",
    ]);
    assert!(ok);
    let header = csv.lines().next().unwrap();
    assert!(header.contains("Simulation (Lm=256) ci_lo"), "{header}");
    assert!(header.contains("Simulation (Lm=256) reps"));
    assert!(header.contains("Simulation (Lm=512) converged"));

    // And the JSON writer emits the {analysis, simulation} report shape.
    let (json, _, ok) = run(&[
        "run",
        "fig5_precision",
        "--quick",
        "--points",
        "2",
        "--out",
        "json",
    ]);
    assert!(ok);
    assert!(json.contains("\"analysis\""));
    assert!(json.contains("\"simulation\""));
    assert!(json.contains("\"replications\""));
    assert!(json.contains("\"converged\""));
    assert!(json.contains("\"lo\""));
}

#[test]
fn run_subcommand_rel_ci_flag_switches_any_scenario_adaptive() {
    // `describe` surfaces an entry's precision preset…
    let (stdout, _, ok) = run(&["describe", "fig5_precision"]);
    assert!(ok);
    assert!(stdout.contains("\"precision\""), "{stdout}");
    assert!(stdout.contains("\"rel_ci\": 0.05"));
    // …and --rel-ci forces adaptive mode onto a plain fixed entry.
    let (stdout, stderr, ok) = run(&[
        "run",
        "fig5",
        "--quick",
        "--points",
        "2",
        "--rel-ci",
        "0.2",
        "--max-replications",
        "6",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("reps"));
    assert!(stderr.contains("adaptive sweep"));
}

#[test]
fn run_subcommand_rejects_misused_precision_flags() {
    // Fixed replication count and adaptive precision are contradictory.
    let (_, stderr, ok) = run(&["run", "fig5_precision", "--quick", "--replications", "3"]);
    assert!(!ok);
    assert!(stderr.contains("--max-replications"), "{stderr}");
    // A cap without a target has nothing to bound.
    let (_, stderr, ok) = run(&["run", "fig5", "--max-replications", "4"]);
    assert!(!ok);
    assert!(stderr.contains("precision target"), "{stderr}");
    // Custom entries reject the flags loudly instead of ignoring them.
    let (_, stderr, ok) = run(&["run", "table1", "--rel-ci", "0.05"]);
    assert!(!ok);
    assert!(stderr.contains("custom entry"), "{stderr}");
    // Nonsense bounds die at parse time.
    let (_, stderr, ok) = run(&["run", "fig5", "--rel-ci", "-0.1"]);
    assert!(!ok);
    assert!(stderr.contains("--rel-ci"), "{stderr}");
    let (_, stderr, ok) = run(&["run", "fig5", "--max-replications", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--max-replications"), "{stderr}");
}

#[test]
fn run_subcommand_rejects_the_retired_scheduler_flag() {
    // The engines run on one future-event list, so there is no backend
    // to pick: the old flag is an unknown argument, named in the error.
    let (stdout, stderr, code) = run_code(&["run", "fig5", "--scheduler", "heap"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("--scheduler"), "{stderr}");
}

#[test]
fn run_subcommand_table_entry_matches_binary_output() {
    // The `table1` entry through the CLI prints the paper's Table 1.
    let (stdout, _, ok) = run(&["run", "table1"]);
    assert!(ok);
    assert!(stdout.contains("Table 1. System Organizations for Model Validation"));
    assert!(stdout.contains("1120"));
    assert!(stdout.contains("544"));
}

#[test]
fn locality_flag_lowers_latency() {
    let get = |extra: &[&str]| {
        let mut args = vec!["model", "--org", "544", "--rate", "4e-4"];
        args.extend_from_slice(extra);
        let (stdout, _, ok) = run(&args);
        assert!(ok);
        stdout
            .lines()
            .find(|l| l.contains("mean message latency"))
            .unwrap()
            .split(':')
            .nth(1)
            .unwrap()
            .trim()
            .parse::<f64>()
            .unwrap()
    };
    let uniform = get(&[]);
    let local = get(&["--locality", "0.8"]);
    assert!(local < uniform, "local {local} vs uniform {uniform}");
}
