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
fn sim_subcommand_validates_its_run_like_a_scenario() {
    // `cocnet sim` runs one rate of a scenario and takes the check `cocnet
    // run` applies: no run without a measured population, and a locality
    // within [0, 1]. Each rejection names the field.
    for (flag, value, field) in [
        ("--measured", "0", "measured"),
        ("--locality", "1.5", "locality"),
        ("--locality", "-0.5", "locality"),
    ] {
        let args = [
            "sim",
            "--heights",
            "1,1,2,2",
            "--measured",
            "200",
            flag,
            value,
        ];
        let (stdout, stderr, code) = run_code(&args);
        assert_eq!(code, Some(2), "{flag} {value}: {stderr}");
        assert!(stdout.is_empty(), "{flag} {value}: {stdout}");
        assert!(stderr.contains(field), "{flag} {value}: {stderr}");
    }
}

#[test]
fn sweep_subcommand_rejects_an_empty_or_invalid_grid() {
    for grid in [
        &["--points", "0"][..],
        &["--max-rate", "-1", "--points", "3"],
        &["--max-rate", "nan"],
        &["--max-rate", "inf"],
    ] {
        let args = [&["sweep", "--heights", "2,2,2,2"][..], grid].concat();
        let (stdout, stderr, code) = run_code(&args);
        assert_eq!(code, Some(2), "{grid:?}: {stderr}");
        assert!(stdout.is_empty(), "{grid:?}: {stdout}");
        assert!(stderr.contains(grid[0]), "{grid:?}: {stderr}");
    }
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
    // No run reads a latency histogram, so `sim.histogram` is not a
    // field: a file that still names it, with any value the retired knob
    // took, fails validation with the typed unknown-field error naming
    // it, in both `validate` and `run`, instead of being silently ignored.
    let text = std::fs::read_to_string(scenarios_dir().join("fig5.json")).unwrap();
    assert!(
        !text.contains("histogram"),
        "committed files do not name it"
    );
    for (i, value) in ["null", "[500.0, 32]", "[100.0, 0]"].iter().enumerate() {
        let path = std::env::temp_dir().join(format!("cocnet_cli_bad_histogram_{i}.json"));
        let edited = text.replacen(
            "\"sim\": {",
            &format!("\"sim\": {{\n    \"histogram\": {value},"),
            1,
        );
        assert_ne!(edited, text, "fixture edit failed");
        std::fs::write(&path, edited).unwrap();
        let file = path.to_str().unwrap();
        let (stdout, stderr, code) = run_code(&["validate", file]);
        assert_eq!(code, Some(1), "validate {value}: {stdout} {stderr}");
        assert!(
            stdout.contains("unknown field"),
            "validate {value}: {stdout}"
        );
        assert!(stdout.contains("histogram"), "validate {value}: {stdout}");
        let (_, stderr, code) = run_code(&["run", file, "--quick", "--points", "1"]);
        assert_eq!(code, Some(1), "run {value}: {stderr}");
        assert!(stderr.contains("histogram"), "run {value}: {stderr}");
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn oversized_populations_are_typed_errors() {
    // Populations and sweeps whose count overflows, or whose latency
    // samples or runs would be allocated up front beyond their cap, fail
    // validation naming the field, in both `validate` and `run`: never a
    // wrapped or clamped count, never an aborted allocation. Integers past
    // u64::MAX reach the parser as floats and must not clamp either.
    let text = std::fs::read_to_string(scenarios_dir().join("fig5.json")).unwrap();
    let huge_measured = ("\"measured\": 100000", "\"measured\": 1000000000000000");
    let steps = |to: &'static str| ("\"steps\": 10", to);
    let range = "\"rates\": {\n    \"start\": 0.0,\n    \"stop\": 0.001,\n    \"steps\": 10\n  }";
    let cases = [
        (
            "sim.warmup",
            vec![("\"warmup\": 10000", "\"warmup\": 18446744073709551615")],
        ),
        (
            "warmup",
            vec![("\"warmup\": 10000", "\"warmup\": 18446744073709551616")],
        ),
        (
            "seed",
            vec![("\"seed\": 2006", "\"seed\": 18900000000000000000")],
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
        ("rates.steps", vec![steps("\"steps\": 2305843009213693952")]),
        ("rates.steps", vec![steps("\"steps\": 1125899906842624")]),
        ("steps", vec![steps("\"steps\": 18446744073709551616")]),
        (
            "replications",
            vec![
                (range, "\"rates\": [1e-4]"),
                ("\"replications\": 1", "\"replications\": 1125899906842624"),
            ],
        ),
        (
            "precision.max_replications",
            vec![(
                "\"precision\": null",
                "\"precision\": {\"rel_ci\": 0.05, \"min_replications\": 1125899906842624, \
                 \"max_replications\": 1125899906842624}",
            )],
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
        // `--points 1` keeps a wrongly accepted run small, but it re-grids
        // a range, so the cases that edit the range's steps run without it.
        let regrids = edits.iter().any(|(_, to)| to.contains("steps"));
        let args = [
            &["run", file][..],
            if regrids { &[] } else { &["--points", "1"] },
        ]
        .concat();
        let (_, stderr, code) = run_code(&args);
        assert_eq!(code, Some(1), "run {edits:?}: {stderr}");
        assert!(stderr.contains(field), "run {edits:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "run {edits:?}: {stderr}");
        std::fs::remove_file(&path).unwrap();
    }
    // The same sizes given as flags are usage errors naming the flag.
    let huge = (1u64 << 50).to_string();
    for args in [
        &["run", "fig5", "--points", &huge, "--no-sim"][..],
        &["run", "fig5", "--quick", "--replications", &huge],
        &[
            "run",
            "fig5_precision",
            "--quick",
            "--max-replications",
            &huge,
        ],
        &["run", "fig7", "--points", &huge],
        &["sweep", "--points", &huge],
    ] {
        let (stdout, stderr, code) = run_code(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        let flag = args[args.iter().position(|&a| a == huge).unwrap() - 1];
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

#[test]
fn oversized_systems_are_typed_errors() {
    // Systems over an id budget the build encodes in a fixed width fail
    // validation from the spec's arithmetic, naming the field and the
    // budget, in both `validate` and `run`: never a panic inside the
    // build. The files are only validated, never built.
    let net = r#"{"bandwidth": 500.0, "network_latency": 0.01, "switch_latency": 0.02}"#;
    let scenario = |m: u32, clusters: usize, n: u32, sim: &str| {
        let cluster = format!(r#"{{"n": {n}, "icn1": {net}, "ecn1": {net}}}"#);
        format!(
            r#"{{
                "name": "oversized",
                "spec": {{"m": {m}, "clusters": [{}], "icn2": {net}}},
                "workloads": [
                    {{"label": "Lm=256", "workload": {{"lambda_g": 0.0, "msg_flits": 32, "flit_bytes": 256.0}}}}
                ],
                "rates": {{"start": 0.0, "stop": 1e-4, "steps": 4}},
                "sim": {{"warmup": 10, "measured": 100, "drain": 10, "seed": 1{sim}}}
            }}"#,
            vec![cluster; clusters].join(", ")
        )
    };
    let cases = [
        // 128 clusters of 2·8³ nodes: 131 072 nodes, twice the eager cap.
        (
            scenario(16, 128, 3, r#", "interning": "Eager""#),
            ["sim.interning", "65535"],
        ),
        // 64 clusters of 2·32⁵ nodes: 2³² nodes on ~8.6·10¹⁰ channels.
        (scenario(64, 64, 5, ""), ["spec", "u32 channel ids"]),
    ];
    for (i, (json, needles)) in cases.iter().enumerate() {
        let path = std::env::temp_dir().join(format!("cocnet_cli_oversized_system_{i}.json"));
        std::fs::write(&path, json).unwrap();
        let file = path.to_str().unwrap();
        let (stdout, stderr, code) = run_code(&["validate", file]);
        assert_eq!(code, Some(1), "validate case {i}: {stdout} {stderr}");
        let (_, run_err, run_code_) = run_code(&["run", file, "--quick", "--points", "1"]);
        assert_eq!(run_code_, Some(1), "run case {i}: {run_err}");
        for needle in needles {
            assert!(stdout.contains(needle), "validate case {i}: {stdout}");
            assert!(run_err.contains(needle), "run case {i}: {run_err}");
        }
        assert!(stdout.contains("2147483647 nodes") || i == 0, "{stdout}");
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
fn run_subcommand_refuses_flags_it_would_ignore() {
    // `--json` beside `--out`, which prints only machine output, and a
    // simulation flag beside `--no-sim` would each change nothing: both
    // are usage errors naming the flag, before anything runs.
    let mut cases = vec![(vec!["--out", "csv", "--json"], "--json")];
    for flag in [
        &["--quick"][..],
        &["--replications", "2"],
        &["--rel-ci", "0.2"],
        &["--max-replications", "4"],
        &["--shards", "auto"],
        &["--fail-links", "0.1"],
        &["--interning", "eager"],
    ] {
        cases.push((flag.to_vec(), flag[0]));
    }
    for (flags, named) in cases {
        let args = [&["run", "fig5", "--no-sim", "--points", "2"][..], &flags].concat();
        let (stdout, stderr, code) = run_code(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}

#[test]
fn precision_scenarios_budget_their_own_replications() {
    // A precision scenario spends min_replications to max_replications per
    // point: `validate` shows that budget, and a fixed count beside it is
    // refused rather than silently overruled by the cap.
    let dir = scenarios_dir();
    let committed = dir.join("fig5_precision.json");
    let (stdout, _, ok) = run(&["validate", committed.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("x 2-16 reps)"), "{stdout}");
    let text = std::fs::read_to_string(&committed).unwrap();
    let edited = text
        .replacen("\"replications\": 1", "\"replications\": 7", 1)
        .replacen("\"max_replications\": 16", "\"max_replications\": 3", 1);
    assert!(edited.contains("\"replications\": 7") && edited.contains("\"max_replications\": 3"));
    let path = std::env::temp_dir().join("cocnet_cli_precision_replications.json");
    std::fs::write(&path, edited).unwrap();
    let file = path.to_str().unwrap();
    let (stdout, stderr, code) = run_code(&["validate", file]);
    assert_eq!(code, Some(1), "{stdout} {stderr}");
    assert!(stdout.contains(": replications: "), "{stdout}");
    let (_, stderr, code) = run_code(&["run", file, "--quick", "--points", "1"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains(": replications: "), "{stderr}");
    std::fs::remove_file(&path).unwrap();
    // Forcing a target onto a scenario of 3 fixed replications conflicts
    // in the same way.
    let args = [
        "run",
        "fig3_perpoint",
        "--quick",
        "--points",
        "1",
        "--rel-ci",
        "0.2",
    ];
    let (stdout, stderr, code) = run_code(&args);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.contains("--rel-ci") && stderr.contains("3 replications"),
        "{stderr}"
    );
}

#[test]
fn faulted_precision_runs_print_fault_accounting() {
    // Fixed and precision scenarios share one sweep loop and one report:
    // a faulted precision run prints the fault-accounting table too.
    let text = std::fs::read_to_string(scenarios_dir().join("degradation.json")).unwrap();
    let mut edited = text.clone();
    for (from, to) in [
        (
            "\"precision\": null",
            "\"precision\": {\"rel_ci\": 0.2, \"max_replications\": 4}",
        ),
        ("\"warmup\": 2000", "\"warmup\": 200"),
        ("\"measured\": 20000", "\"measured\": 2000"),
        ("\"drain\": 2000", "\"drain\": 200"),
    ] {
        assert!(edited.contains(from), "fixture edit failed: {from}");
        edited = edited.replacen(from, to, 1);
    }
    let path = std::env::temp_dir().join("cocnet_cli_faulted_precision.json");
    std::fs::write(&path, edited).unwrap();
    let (stdout, stderr, ok) = run(&["run", path.to_str().unwrap(), "--points", "2"]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("ci lo"), "{stdout}");
    assert!(stdout.contains("fault accounting"), "{stdout}");
    assert!(stderr.contains("adaptive sweep"), "{stderr}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn audited_fixed_runs_warn_about_a_short_warm_up() {
    // A fixed scenario that audits its warm-up reports what the audit
    // flagged, as a precision one does: with no warm-up near saturation
    // the measured stream starts in the transient, and stderr says so.
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
            "name": "audited fixed scenario",
            "spec": {{"m": 4, "clusters": [{}, {}, {}, {}], "icn2": {}}},
            "workloads": [
                {{"label": "Lm=256", "workload": {{"lambda_g": 0.0, "msg_flits": 32, "flit_bytes": 256.0}}}}
            ],
            "rates": [8e-4],
            "replications": 4,
            "sim": {{"warmup": 0, "measured": 2000, "drain": 200, "seed": 18, "audit_warmup": true}}
        }}"#,
        cluster(1),
        cluster(1),
        cluster(2),
        cluster(2),
        net(500.0, 0.01, 0.02)
    );
    let path = std::env::temp_dir().join("cocnet_cli_audited_fixed.json");
    std::fs::write(&path, &json).unwrap();
    let (stdout, stderr, ok) = run(&["run", path.to_str().unwrap()]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stderr.contains("MSER-5 audit flagged"), "{stderr}");
    assert!(
        !stdout.contains("MSER-5"),
        "the warning belongs on stderr: {stdout}"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn run_subcommand_rejects_the_retired_scheduler_flag() {
    // The engines run on one future-event list, so there is no backend
    // to pick, and the sweep's thread count comes from the pool
    // (`RAYON_NUM_THREADS=1` runs it as a plain loop): each old flag is an
    // unknown argument, named in the error.
    for args in [&["--scheduler", "heap"][..], &["--serial"]] {
        let (stdout, stderr, code) = run_code(&[&["run", "fig5"][..], args].concat());
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(stderr.contains(args[0]), "{args:?}: {stderr}");
    }
}

#[test]
fn rate_flag_on_a_scenario_is_a_usage_error() {
    // A scenario sweeps its own rate grid; `--rate` is read only by the
    // single-run diagnostics, so on a registry scenario or a scenario file
    // it is refused, naming the flag and the entries that read it.
    let file = scenarios_dir().join("fig5.json");
    for target in ["fig5", file.to_str().unwrap()] {
        let args = ["run", target, "--no-sim", "--points", "3", "--rate", "3e-4"];
        let (stdout, stderr, code) = run_code(&args);
        assert_eq!(code, Some(2), "{target}: {stderr}");
        assert!(stdout.is_empty(), "{target}: {stdout}");
        for name in ["--rate", "hotspots", "utilization"] {
            assert!(stderr.contains(name), "{target}: {name}: {stderr}");
        }
    }
}

#[test]
fn every_entry_refuses_the_flags_it_does_not_read() {
    // Each registry entry lists the flags its run reads; any other flag
    // exits 2 before anything runs, naming the flag and the entry. A flag
    // the entry reads is passed beside one it does not, so the refusal
    // names only the unread one and no simulation starts.
    use cocnet::registry::{self, RunOpts, SCENARIO};
    let flags: [&[&str]; 12] = [
        &["--quick"],
        &["--json"],
        &["--no-sim"],
        &["--points", "3"],
        &["--replications", "2"],
        &["--rel-ci", "0.2"],
        &["--max-replications", "4"],
        &["--out", "csv"],
        &["--rate", "3e-4"],
        &["--shards", "auto"],
        &["--fail-links", "0.1"],
        &["--interning", "eager"],
    ];
    let args = |name: &str| *flags.iter().find(|f| f[0] == name).unwrap();
    for flag in flags {
        let opts = RunOpts::parse(&flag.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert_eq!(opts.unwrap().given().collect::<Vec<_>>(), [flag[0]]);
    }
    for entry in registry::all() {
        assert!(entry.reads.iter().all(|r| flags.iter().any(|f| f[0] == *r)));
        let unread = flags
            .iter()
            .map(|f| f[0])
            .find(|f| !entry.reads.contains(f));
        let unread = unread.expect("every entry refuses some flag");
        for flag in flags {
            let refused = if entry.reads.contains(&flag[0]) {
                unread
            } else {
                flag[0]
            };
            let mut argv = vec!["run", entry.name];
            argv.extend(flag);
            if refused != flag[0] {
                argv.extend(args(refused));
            }
            let (stdout, stderr, code) = run_code(&argv);
            assert_eq!(code, Some(2), "{argv:?}: {stderr}");
            assert!(stdout.is_empty(), "{argv:?} ran: {stdout}");
            let named = format!("entry {} does not read {refused} ", entry.name);
            assert!(stderr.contains(&named), "{argv:?}: {stderr}");
        }
    }
    // What each kind of run reads: a scenario everything but the one
    // rate of the single-run diagnostics; a table nothing; the sweeps over
    // their own fault schedules, or on the flit engine, less.
    let reads = |name: &str| registry::find(name).unwrap().reads;
    for entry in registry::all().iter().filter(|e| e.scenario().is_some()) {
        assert_eq!(entry.reads, SCENARIO, "{}", entry.name);
    }
    assert!(!SCENARIO.contains(&"--rate") && reads("hotspots").contains(&"--rate"));
    assert!(reads("table1").is_empty());
    assert!(!reads("degradation").contains(&"--fail-links"));
    assert!(!reads("org_scale").contains(&"--interning"));
    assert!(!reads("buffer_depth").contains(&"--shards"));
    // The same rule covers a scenario file.
    let file = scenarios_dir().join("fig5.json");
    let (stdout, stderr, code) = run_code(&["run", file.to_str().unwrap(), "--rate", "3e-4"]);
    assert_eq!((code, stdout.as_str()), (Some(2), ""), "{stderr}");
    assert!(stderr.contains("does not read --rate"), "{stderr}");
}

#[test]
fn fail_links_reaches_the_custom_entries_runs() {
    // A custom entry simulates the system its config describes, so the
    // failed links of `--fail-links` are failed in its run.
    for entry in ["hotspots", "nonuniform"] {
        let (healthy, stderr, ok) = run(&["run", entry, "--quick"]);
        assert!(ok, "{entry}: {stderr}");
        let (faulted, stderr, ok) = run(&["run", entry, "--quick", "--fail-links", "0.3"]);
        assert!(ok, "{entry} --fail-links 0.3: {stderr}");
        assert_ne!(
            healthy, faulted,
            "{entry}: --fail-links 0.3 changed nothing"
        );
    }
}

#[test]
fn busy_time_readers_ask_for_it() {
    // Per-channel busy time is kept only when a run asks for it, so a
    // reader that forgot to ask would print empty or all-zero tables.
    let (stdout, stderr, ok) = run(&["run", "hotspots", "--quick"]);
    assert!(ok, "{stderr}");
    let utils: Vec<f64> = stdout
        .lines()
        .filter_map(|l| l.trim().strip_prefix("util="))
        .map(|l| l.split_whitespace().next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(utils.len(), 15, "{stdout}");
    assert!(utils.iter().all(|&u| u > 0.0), "{stdout}");

    // One row per network class: name, height, then the simulated mean
    // and max utilisation. Every ECN1 and ICN2 class carries traffic; at
    // this population no intra-cluster message lands in an n=1 cluster,
    // so ICN1 is asked for one busy class.
    let (stdout, stderr, ok) = run(&["run", "utilization", "--quick"]);
    assert!(ok, "{stderr}");
    for net in ["ICN1", "ECN1", "ICN2"] {
        let busy: Vec<bool> = stdout
            .lines()
            .filter(|l| l.starts_with(net))
            .map(|l| {
                let cells: Vec<&str> = l.split_whitespace().collect();
                let (mean, max): (f64, f64) =
                    (cells[2].parse().unwrap(), cells[3].parse().unwrap());
                mean > 0.0 && max > 0.0
            })
            .collect();
        assert!(!busy.is_empty(), "no {net} class: {stdout}");
        if net == "ICN1" {
            assert!(busy.contains(&true), "{net}: {stdout}");
        } else {
            assert!(!busy.contains(&false), "{net}: {stdout}");
        }
    }

    // Rate, then latency and max ICN2 utilisation per routing policy.
    let (stdout, stderr, ok) = run(&["run", "ablation_routing", "--quick"]);
    assert!(ok, "{stderr}");
    let rows: Vec<Vec<f64>> = stdout
        .lines()
        .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
        .map(|l| l.split_whitespace().map(|c| c.parse().unwrap()).collect())
        .collect();
    assert_eq!(rows.len(), 4, "{stdout}");
    for row in rows {
        assert_eq!(row.len(), 7, "{stdout}");
        assert!(
            [row[2], row[4], row[6]].iter().all(|&u| u > 0.0),
            "{stdout}"
        );
    }
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
