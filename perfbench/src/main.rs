//! Paper-scale benchmark harness for cocnet; see `README.md` beside this
//! package for the workloads, the metrics and why they were chosen.
//!
//! ```text
//! perfbench --workload <fig5_sweep|org_1m_uniform>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload for about `--seconds` and reports the
//! end-to-end metrics as medians over the repetitions. `--trace 1` runs
//! the workload once untraced and once with spans around every call into
//! a layer, replays each layer's entry point on the workload's inputs,
//! runs the shard probe, writes the spans to
//! `out/spans-<workload>-seed<n>.jsonl` in this package, and reports the
//! per-layer metrics. Human-readable lines come first; the last line of
//! standard output is the JSON result. Exit code 0 means the run finished
//! (its checks may still have failed: see `correct`), 1 a harness error,
//! 2 a usage error.

mod layers;
mod workload;

use perfbench::metrics::{
    end_to_end_values, model_err_pct, per_layer_values, result_line, IterSample, LayerSample,
    Outcome, RunSample, END_TO_END, PER_LAYER,
};
use perfbench::stats::median;
use perfbench::trace::{self_times, Tracer};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Kind, Prepared};

/// Set-ups timed before each pass of an untraced run, besides the pass's
/// own: at least this many, and more while they add up to under 0.2 s.
/// Spreading them over the run keeps one slow stretch of the host from
/// deciding the median.
const MIN_SETUPS: usize = 3;

/// Times extra set-ups into `out`; see [`MIN_SETUPS`].
fn time_setups(args: &Args, out: &mut Vec<f64>) -> Result<(), String> {
    let mut tr = Tracer::new(false);
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_SETUPS || (start.elapsed() < Duration::from_millis(200) && n < 50) {
        let t = Instant::now();
        let prep = workload::setup(args.kind, args.seed, &mut tr)?;
        out.push(t.elapsed().as_secs_f64());
        drop(prep);
        n += 1;
    }
    Ok(())
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// User and system CPU clock ticks of this process, all threads
/// included, as `getrusage(RUSAGE_SELF)` counts them.
#[derive(Debug, Clone, Copy)]
struct CpuTicks {
    user: u64,
    sys: u64,
}

impl CpuTicks {
    fn now() -> Result<CpuTicks, String> {
        let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
        // Fields after the parenthesized command name start at field 3.
        let rest = &stat[stat.rfind(')').ok_or("malformed /proc/self/stat")? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| -> Result<u64, String> {
            fields
                .get(n - 3)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("no field {n} in /proc/self/stat"))
        };
        Ok(CpuTicks {
            user: field(14)?,
            sys: field(15)?,
        })
    }

    fn since(self, start: CpuTicks) -> CpuTicks {
        CpuTicks {
            user: self.user - start.user,
            sys: self.sys - start.sys,
        }
    }

    /// System CPU ÷ total CPU (0 when no tick elapsed).
    fn sys_frac(self) -> f64 {
        let total = self.user + self.sys;
        if total == 0 {
            0.0
        } else {
            self.sys as f64 / total as f64
        }
    }
}

/// Sharded-call timings of one point.
#[derive(Debug, Clone, Copy)]
struct ShardTiming {
    speedup: f64,
    sys_frac: f64,
}

/// One pass over a workload: set-up, then every point's simulation and
/// model call, with the checks outside the timed parts.
#[derive(Debug, Default)]
struct Pass {
    setup_s: f64,
    sim_s: f64,
    model_evals_s: Vec<f64>,
    model_errs_pct: Vec<f64>,
    delivered: u64,
    events: u64,
    generated: u64,
    recorded: u64,
    peak_live: u64,
    attempted: u64,
    failed: u64,
    classes_touched: usize,
    table_bytes: usize,
    busiest: Busiest,
}

/// The pass's point with the most events: the operating point of the
/// generation, scheduler and sink replays.
#[derive(Debug, Default, Clone, Copy)]
struct Busiest {
    events: u64,
    sim_time: f64,
    rate: f64,
    mean_latency: f64,
}

impl Pass {
    fn model_s(&self) -> f64 {
        self.model_evals_s.iter().sum()
    }

    fn wall_s(&self) -> f64 {
        self.setup_s + self.sim_s + self.model_s()
    }
}

fn run_pass(kind: Kind, seed: u64, tr: &mut Tracer) -> Result<(Pass, Prepared), String> {
    let pass_span = tr.enter("bench", "pass", kind.name());
    let start = Instant::now();
    let prep = workload::setup(kind, seed, tr)?;
    let mut pass = Pass {
        setup_s: start.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    for point in &prep.points {
        let point_span = tr.enter("bench", "point", &point.id);
        let start = Instant::now();
        let r = tr.span("engine", "run_simulation_built", &point.id, || {
            workload::simulate(&prep, point)
        });
        pass.sim_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let model = tr.span("model", "evaluate", &point.id, || {
            workload::model_latency(&prep, point)
        });
        pass.model_evals_s.push(start.elapsed().as_secs_f64());

        // Checks, outside the timed parts.
        let mut verdict = workload::check(point, &r, r.peak_live_msgs);
        if point.model_ref {
            match model {
                Some(m) => pass
                    .model_errs_pct
                    .push((m - r.latency.mean).abs() / r.latency.mean * 100.0),
                None => verdict = verdict.and(Err("model saturated at a reference point".into())),
            }
        }
        pass.attempted += 1;
        if let Err(e) = verdict {
            pass.failed += 1;
            eprintln!("perfbench: check failed at {}: {e}", point.id);
        }
        pass.delivered += r.delivered_total;
        pass.events += r.events_processed;
        pass.generated += r.generated;
        pass.recorded += r.delivered_recorded;
        pass.peak_live = pass.peak_live.max(r.peak_live_msgs);
        if r.events_processed > pass.busiest.events {
            pass.busiest = Busiest {
                events: r.events_processed,
                sim_time: r.sim_time,
                rate: point.wl.lambda_g,
                mean_latency: r.latency.mean,
            };
        }
        tr.exit(point_span);
    }
    for built in &prep.systems {
        pass.classes_touched += built.route_table().num_interned_segments();
        pass.table_bytes += built.route_table().resident_bytes();
    }
    tr.exit(pass_span);
    Ok((pass, prep))
}

fn mean_err(pass: &Pass) -> Option<f64> {
    let n = pass.model_errs_pct.len();
    (n > 0).then(|| pass.model_errs_pct.iter().sum::<f64>() / n as f64)
}

/// One human-readable metric line.
fn print_metric(name: &str, value: f64, unit: &str) {
    println!("{name:<28} {value:>16.6} {unit}");
}

/// A finished run: what it attempted and failed, and its metric values.
type RunResult = Result<(Outcome, Vec<(&'static str, f64)>), String>;

fn run_untraced(args: &Args) -> RunResult {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tr = Tracer::new(false);
    let mut sample = RunSample {
        setup_s: Vec::new(),
        iterations: Vec::new(),
        peak_rss_mib: 0.0,
        attempted: 0,
        failed: 0,
    };
    loop {
        time_setups(args, &mut sample.setup_s)?;
        let (pass, prep) = run_pass(args.kind, args.seed, &mut tr)?;
        drop(prep);
        eprintln!(
            "perfbench: {} pass {}: wall {:.3} s (setup {:.4} s, sim {:.3} s, model {:.4} s)",
            args.kind.name(),
            sample.iterations.len() + 1,
            pass.wall_s(),
            pass.setup_s,
            pass.sim_s,
            pass.model_s()
        );
        sample.setup_s.push(pass.setup_s);
        sample.attempted += pass.attempted;
        sample.failed += pass.failed;
        sample.iterations.push(IterSample {
            wall_s: pass.wall_s(),
            sim_s: pass.sim_s,
            delivered: pass.delivered,
            model_err_pct: mean_err(&pass),
        });
        let elapsed = start.elapsed();
        let per_pass = elapsed / sample.iterations.len() as u32;
        if elapsed + per_pass > budget {
            break;
        }
    }
    sample.peak_rss_mib = peak_rss_mib()?;
    if let Some(err) = model_err_pct(&sample) {
        print_metric("model_err_pct", err, "%");
    }
    let outcome = Outcome {
        attempted: sample.attempted,
        failed: sample.failed,
    };
    Ok((outcome, end_to_end_values(&sample)))
}

fn run_traced(args: &Args) -> RunResult {
    let id = args.kind.name();
    let (untraced, prep) = run_pass(args.kind, args.seed, &mut Tracer::new(false))?;
    drop(prep);
    let mut tr = Tracer::new(true);
    let root = tr.enter("bench", "traced_run", id);
    let (pass, prep) = run_pass(args.kind, args.seed, &mut tr)?;

    let busy = pass.busiest;
    let pairs = tr.span("workloads", "sample_pairs", id, || {
        layers::sample_pairs(&prep, args.seed)
    });
    let route_query_ns = tr.span("topology", "route_query", id, || {
        layers::route_query_ns(&prep, &pairs)
    });
    let fresh = workload::setup(args.kind, args.seed, &mut tr)?;
    let (cold, warm) = tr.span("build", "route_ref", id, || {
        layers::route_ref_ns(&fresh.systems[0], &pairs)
    });
    drop(fresh);
    let gen_ns = tr.span("workloads", "generate", id, || {
        layers::gen_ns_per_msg(&prep, args.seed, busy.rate)
    });
    // Every node keeps one generation event pending, the floor of the
    // future-event list; messages blocked on a channel wait in its queue,
    // not in the list.
    let pending = prep.systems[0].total_nodes();
    let (heap_ns, calendar_ns) = tr.span("events", "hold", id, || {
        layers::hold_pair_ns(pending, busy.sim_time / busy.events as f64, args.seed)
    });
    let sink_ns = tr.span("stats", "sinks", id, || {
        layers::sink_ns_per_msg(&prep, &pairs, busy.mean_latency)
    });
    let (shard, probe_verdict) = shard_probe(&mut tr)?;
    if let Err(e) = &probe_verdict {
        eprintln!("perfbench: check failed at the shard probe: {e}");
    }
    tr.exit(root);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{id}-seed{}.jsonl", args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| tr.write_jsonl(std::io::BufWriter::new(f)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tr.spans().len(),
        path.display()
    );

    let sample = LayerSample {
        route_query_ns,
        build_system_s: median(&prep.build_s),
        route_ref_cold_ns: cold,
        route_ref_warm_ns: warm,
        classes_touched: pass.classes_touched as f64,
        table_bytes: pass.table_bytes as f64,
        gen_ns_per_msg: gen_ns,
        hold_ns_heap: heap_ns,
        hold_ns_calendar: calendar_ns,
        events: pass.events as f64,
        generated: pass.generated as f64,
        recorded: pass.recorded as f64,
        peak_live_msgs: pass.peak_live as f64,
        engine_s: pass.sim_s,
        shard_speedup: shard.speedup,
        shard_sys_frac: shard.sys_frac,
        sink_ns_per_msg: sink_ns,
        model_eval_us: median(&pass.model_evals_s) * 1e6,
        model_s: pass.model_s(),
        wall_s: pass.wall_s(),
        untraced_wall_s: untraced.wall_s(),
        self_s: self_times(tr.spans()),
    };
    let outcome = Outcome {
        attempted: untraced.attempted + pass.attempted + 1,
        failed: untraced.failed + pass.failed + u64::from(probe_verdict.is_err()),
    };
    Ok((outcome, per_layer_values(&sample)))
}

/// The shard layer's probe. Neither workload runs sharded (README.md says
/// why), so every traced run times `run_sharded_workers` on org_1120 at
/// its simulated knee, at a tenth of the paper's population, against the
/// serial engine on the same point, and checks that the two agree bit for
/// bit. Returns the timings and the check's verdict.
fn shard_probe(tr: &mut Tracer) -> Result<(ShardTiming, Result<(), String>), String> {
    let prep = workload::setup_shard_probe(tr)?;
    let point = &prep.points[0];
    let start = Instant::now();
    let serial = tr.span("engine", "run_simulation_built", &point.id, || {
        workload::simulate_serial(&prep, point)
    });
    let serial_s = start.elapsed().as_secs_f64();
    let ticks = CpuTicks::now()?;
    let start = Instant::now();
    let sharded = tr.span("shard", "run_sharded_workers", &point.id, || {
        workload::simulate(&prep, point)
    });
    let sharded_s = start.elapsed().as_secs_f64();
    let ticks = CpuTicks::now()?.since(ticks);
    let verdict = workload::check(point, &sharded, serial.peak_live_msgs).and_then(|()| {
        if workload::identical_modulo_peak(&serial, &sharded) {
            Ok(())
        } else {
            Err("sharded results differ from the serial engine's".to_string())
        }
    });
    let timing = ShardTiming {
        speedup: serial_s / sharded_s,
        sys_frac: ticks.sys_frac(),
    };
    Ok((timing, verdict))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (catalogue, run) = if args.trace {
        (PER_LAYER, run_traced(&args))
    } else {
        (END_TO_END, run_untraced(&args))
    };
    let line = run.and_then(|(outcome, values)| {
        for m in catalogue {
            if let Some((_, v)) = values.iter().find(|(n, _)| *n == m.name) {
                print_metric(m.name, *v, m.unit);
            }
        }
        print_metric(
            "failed_frac",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            "ratio",
        );
        result_line(outcome, catalogue, &values)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
