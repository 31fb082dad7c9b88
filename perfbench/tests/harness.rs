//! Checks of the benchmark harness's own arithmetic and bookkeeping: the
//! quartile and pair-comparison rules, the metric-name grammar, agreement
//! between the catalogue and `BENCHMARK.json`, and that the measured
//! values fill every catalogued metric of the result line.

use perfbench::metrics::{
    end_to_end_values, model_err_pct, per_layer_values, result_line, valid_name, valid_unit,
    IterSample, LayerSample, MetricDef, Outcome, RunSample, END_TO_END, PER_LAYER, SPAN_LAYERS,
    WORKLOADS,
};
use perfbench::stats::{median, quartiles, rel_spread, t_crit_95, Better, PairComparison};
use perfbench::trace::{self_times, Span, Tracer};
use serde::Value;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * b.abs().max(1.0)
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from Python's statistics.quantiles(xs, n=4).
    let cases: [(&[f64], [f64; 3]); 4] = [
        (
            &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
            [2.75, 5.5, 8.25],
        ),
        (&[5., 1., 4., 2., 3.], [1.5, 3.0, 4.5]),
        (&[1., 2.], [0.75, 1.5, 2.25]),
        (&[7.], [7.0, 7.0, 7.0]),
    ];
    for (xs, want) in cases {
        let got = quartiles(xs);
        for (g, w) in got.iter().zip(want) {
            assert!(close(*g, w), "{xs:?}: got {got:?}, want {want:?}");
        }
    }
}

#[test]
fn median_and_spread() {
    assert_eq!(median(&[3., 1., 2.]), 2.0);
    assert_eq!(median(&[4., 1., 3., 2.]), 2.5);
    let xs = [10., 10., 10., 10.];
    assert_eq!(rel_spread(&xs), 0.0);
    // Quartiles 2.75 and 8.25 around a median of 5.5.
    let ys: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!(close(rel_spread(&ys), 1.0));
}

#[test]
fn student_critical_values() {
    assert_eq!(t_crit_95(1), 12.706);
    assert_eq!(t_crit_95(9), 2.262);
    assert!(t_crit_95(100) > 1.96 && t_crit_95(100) < t_crit_95(30));
    assert!(t_crit_95(0).is_infinite());
}

#[test]
fn worsening_follows_the_metric_direction() {
    assert!(close(Better::Lower.worsening(10.0, 11.0), 0.1));
    assert!(close(Better::Higher.worsening(10.0, 9.0), 0.1));
    assert!(Better::Higher.worsening(10.0, 11.0) < 0.0);
}

fn jitter(i: usize) -> f64 {
    // Deterministic ±0.5% noise.
    [
        0.0, 0.004, -0.003, 0.002, -0.005, 0.001, 0.003, -0.002, 0.005, -0.004,
    ][i % 10]
}

#[test]
fn pair_comparison_claims_a_clear_gain_only() {
    let parent: Vec<f64> = (0..10).map(|i| 10.0 * (1.0 + jitter(i))).collect();
    let faster: Vec<f64> = (0..10).map(|i| 9.0 * (1.0 + jitter(i + 3))).collect();
    let c = PairComparison::new(&parent, &faster, Better::Lower);
    assert_eq!((c.pairs, c.wins, c.losses), (10, 10, 0));
    assert!(c.gain() && !c.regressed(0.05));
    assert!(c.mean_log_gain > 0.0 && c.t > c.t_crit);

    // The same numbers read as a throughput are a regression.
    let c = PairComparison::new(&parent, &faster, Better::Higher);
    assert!(!c.gain() && c.regressed(0.05) && !c.regressed(0.15));

    // Identical runs: ties count for neither side.
    let c = PairComparison::new(&parent, &parent, Better::Lower);
    assert_eq!((c.wins, c.losses), (0, 0));
    assert!(!c.gain() && !c.regressed(0.0));
}

#[test]
fn pair_comparison_needs_nine_tenths_of_the_pairs() {
    let parent = vec![10.0; 10];
    let mut change = vec![9.0; 10];
    change[0] = 10.5;
    change[1] = 10.5;
    let c = PairComparison::new(&parent, &change, Better::Lower);
    assert_eq!((c.wins, c.losses), (8, 2));
    assert!(!c.gain(), "8 of 10 pairs is not enough");
    change[1] = 9.0;
    let c = PairComparison::new(&parent, &change, Better::Lower);
    assert_eq!(c.wins, 9);
    assert!(c.gain());
}

#[test]
fn pair_comparison_needs_more_than_the_parents_spread() {
    // The change wins every pair by 1%, but the parent's own runs spread
    // by far more than that.
    let parent: Vec<f64> = (0..10).map(|i| 10.0 + i as f64).collect();
    let change: Vec<f64> = parent.iter().map(|p| p * 0.99).collect();
    let c = PairComparison::new(&parent, &change, Better::Lower);
    assert_eq!(c.wins, 10);
    assert!(!c.gain());
}

#[test]
fn name_and_unit_grammar() {
    for ok in ["wall_s", "engine.ns_per_event", "a", "9x", "org_1m-uniform"] {
        assert!(valid_name(ok), "{ok}");
    }
    let long = "x".repeat(65);
    for bad in ["", "_s", ".a", "wall s", "wall/s", long.as_str()] {
        assert!(!valid_name(bad), "{bad}");
    }
    for ok in ["s", "ms", "1/s", "msg/s", "%", "count", "MiB"] {
        assert!(valid_unit(ok), "{ok}");
    }
    for bad in ["", "m s", "seventeen-letters"] {
        assert!(!valid_unit(bad), "{bad}");
    }
}

#[test]
fn catalogue_names_are_valid_and_unique() {
    let mut seen = std::collections::HashSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "{}", m.name);
        assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
        assert!(seen.insert(m.name), "{} listed twice", m.name);
    }
    for w in WORKLOADS {
        assert!(valid_name(w));
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn arr<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(a)) => a,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

fn s<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn num(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::F64(x)) => *x,
        Some(Value::I64(x)) => *x as f64,
        Some(Value::U64(x)) => *x as f64,
        other => panic!("{key}: expected a number, got {other:?}"),
    }
}

fn same_metrics(listed: &[Value], catalogue: &[MetricDef]) {
    let names: Vec<&str> = listed.iter().map(|m| s(m, "name")).collect();
    let want: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
    assert_eq!(names, want);
    for (m, def) in listed.iter().zip(catalogue) {
        assert_eq!(s(m, "unit"), def.unit, "{}", def.name);
        assert_eq!(s(m, "better"), def.better.as_str(), "{}", def.name);
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let b = benchmark_json();
    let Value::Obj(fields) = &b else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<&str> = arr(&b, "workloads").iter().map(|w| s(w, "name")).collect();
    assert_eq!(workloads, WORKLOADS);
    same_metrics(arr(&b, "end_to_end"), END_TO_END);
    same_metrics(arr(&b, "per_layer"), PER_LAYER);

    let bounds: Vec<(&str, f64)> = arr(&b, "end_to_end")
        .iter()
        .map(|m| (s(m, "name"), num(m, "bound")))
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| *n == "setup_s")
        .expect("setup_s")
        .1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
        assert!(
            *bound <= setup,
            "{name}: setup_s must have the largest bound"
        );
    }
    let seconds = num(&b, "run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
}

fn run_sample() -> RunSample {
    RunSample {
        setup_s: vec![0.01, 0.012, 0.011],
        iterations: vec![
            IterSample {
                wall_s: 10.0,
                sim_s: 9.5,
                delivered: 2_000_000,
                model_err_pct: Some(25.0),
            },
            IterSample {
                wall_s: 10.4,
                sim_s: 9.9,
                delivered: 2_000_000,
                model_err_pct: Some(25.0),
            },
        ],
        peak_rss_mib: 45.0,
        attempted: 40,
        failed: 0,
    }
}

#[test]
fn untraced_values_fill_every_end_to_end_metric() {
    let sample = run_sample();
    let values = end_to_end_values(&sample);
    let outcome = Outcome {
        attempted: 40,
        failed: 0,
    };
    let line = result_line(outcome, END_TO_END, &values).expect("complete metric set");
    let parsed: Value = serde_json::from_str(&line).expect("result line is JSON");
    let Some(Value::Obj(metrics)) = parsed.get("metrics") else {
        panic!("no metrics object")
    };
    assert_eq!(metrics.len(), END_TO_END.len());
    assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
    let wall = metrics.iter().find(|(k, _)| k == "wall_s").expect("wall_s");
    assert_eq!(num(&wall.1, "value"), 10.2);
    assert_eq!(model_err_pct(&sample), Some(25.0));
}

#[test]
fn traced_values_fill_every_per_layer_metric() {
    let mut sample = LayerSample {
        route_query_ns: 100.0,
        build_system_s: 0.08,
        route_ref_cold_ns: 3000.0,
        route_ref_warm_ns: 100.0,
        classes_touched: 1000.0,
        table_bytes: 1e6,
        gen_ns_per_msg: 50.0,
        hold_ns_heap: 40.0,
        hold_ns_calendar: 30.0,
        events: 3e6,
        generated: 1e5,
        recorded: 9e4,
        peak_live_msgs: 500.0,
        engine_s: 0.3,
        shard_speedup: 1.0,
        shard_sys_frac: 0.01,
        sink_ns_per_msg: 10.0,
        model_eval_us: 200.0,
        model_s: 0.004,
        wall_s: 0.31,
        untraced_wall_s: 0.30,
        ..LayerSample::default()
    };
    for layer in SPAN_LAYERS {
        sample.self_s.insert(layer, 0.1);
    }
    let values = per_layer_values(&sample);
    let line = result_line(
        Outcome {
            attempted: 2,
            failed: 1,
        },
        PER_LAYER,
        &values,
    )
    .expect("complete metric set");
    let parsed: Value = serde_json::from_str(&line).expect("result line is JSON");
    assert_eq!(parsed.get("correct"), Some(&Value::Bool(false)));
    let get = |name: &str| values.iter().find(|(n, _)| *n == name).expect(name).1;
    assert!(close(get("engine.ns_per_event"), 100.0));
    // 100 − (40 + (50 + 100)·1e5/3e6 + 10·9e4/3e6 + 3000·1000/3e6).
    assert!(close(
        get("engine.self_ns_per_event"),
        100.0 - (40.0 + 5.0 + 0.3 + 1.0)
    ));
    assert!(close(get("engine.events_per_msg"), 30.0));
}

#[test]
fn result_line_rejects_incomplete_or_invalid_metric_sets() {
    let outcome = Outcome {
        attempted: 1,
        failed: 0,
    };
    let full = end_to_end_values(&run_sample());
    assert!(
        result_line(outcome, END_TO_END, &full[1..]).is_err(),
        "missing"
    );
    let mut extra = full.clone();
    extra.push(("bogus", 1.0));
    assert!(result_line(outcome, END_TO_END, &extra).is_err(), "extra");
    let mut twice = full.clone();
    twice.push(full[0]);
    assert!(
        result_line(outcome, END_TO_END, &twice).is_err(),
        "duplicate"
    );
    let mut nan = full.clone();
    nan[0].1 = f64::NAN;
    assert!(result_line(outcome, END_TO_END, &nan).is_err(), "NaN");
    let none = Outcome {
        attempted: 0,
        failed: 0,
    };
    assert!(
        result_line(none, END_TO_END, &full).is_err(),
        "nothing attempted"
    );
}

fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        layer,
        name: "call",
        id: "w/p".into(),
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_direct_children() {
    let spans = [
        span("bench", 0, 1_000, None),
        span("build", 100, 300, Some(0)),
        span("engine", 300, 900, Some(0)),
        span("events", 400, 500, Some(2)),
    ];
    let t = self_times(&spans);
    assert!(close(t["bench"], 200e-9));
    assert!(close(t["build"], 200e-9));
    assert!(close(t["engine"], 500e-9));
    assert!(close(t["events"], 100e-9));
}

#[test]
fn tracer_nests_spans_and_writes_json_lines() {
    let mut tr = Tracer::new(true);
    let outer = tr.enter("bench", "pass", "w");
    let inner = tr.span("engine", "run", "w/p \"1\"", || 7);
    assert_eq!(inner, 7);
    tr.exit(outer);
    let spans = tr.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    let mut out = Vec::new();
    tr.write_jsonl(&mut out).expect("write to memory");
    let text = String::from_utf8(out).expect("utf-8");
    let lines: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("each line is JSON"))
        .collect();
    assert_eq!(lines.len(), 2);
    assert_eq!(lines[1].get("id"), Some(&Value::Str("w/p \"1\"".into())));
    assert_eq!(lines[1].get("parent"), Some(&Value::I64(0)));

    let mut off = Tracer::new(false);
    let o = off.enter("bench", "pass", "w");
    off.exit(o);
    assert!(off.spans().is_empty());
}
