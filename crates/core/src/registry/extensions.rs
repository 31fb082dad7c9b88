//! Beyond-the-paper extension experiments (the §5 future-work directions):
//! deeper buffers, bursty arrivals, non-uniform traffic, and system-size
//! scaling.

use super::{scaled, small_spec_48, RunOpts};
use crate::runner::{par_map, Scenario};
use cocnet_model::{
    evaluate, evaluate_with_profile, saturation_point, ModelOptions, OutgoingProfile, Workload,
};
use cocnet_sim::{
    run_simulation_arrivals, run_simulation_built, run_simulation_flit_built, BuiltSystem,
    Coupling, FaultAction, FaultEvent, FaultSchedule, SimConfig,
};
use cocnet_stats::Table;
use cocnet_topology::{AscentPolicy, ClusterSpec, SystemSpec, TopoSpec, TorusShape};
use cocnet_workloads::{presets, ArrivalSpec, Pattern};

/// Extension experiment: relaxing assumption 6 (single-flit buffers).
///
/// The paper's model assumes one flit of buffering per channel. Real
/// switches (Myrinet/InfiniBand/QsNet, the technologies §2 names) buffer
/// more. This experiment sweeps the flit-buffer depth in the flit-level
/// engine and reports latency across loads — quantifying how much of the
/// wormhole blocking the model describes is an artefact of minimal
/// buffering.
///
/// All (rate × depth) simulations run concurrently via the runner's
/// [`par_map`].
pub fn buffer_depth(opts: &RunOpts) {
    let spec = small_spec_48();
    let built = BuiltSystem::build(&spec, 256.0);
    let rates = [1e-3, 2e-3, 3e-3, 4e-3];
    let depths = [1u32, 2, 4, 32];
    let jobs: Vec<(f64, u32)> = rates
        .iter()
        .flat_map(|&rate| depths.iter().map(move |&d| (rate, d)))
        .collect();
    let base = scaled(
        &SimConfig {
            warmup: 1_000,
            measured: 10_000,
            drain: 1_000,
            seed: 23,
            coupling: Coupling::StoreAndForward,
            ..SimConfig::default()
        },
        opts,
    );
    let results = par_map(&jobs, |&(rate, depth)| {
        let wl = Workload::new(rate, 32, 256.0).unwrap();
        let cfg = SimConfig {
            flit_buffer_depth: depth,
            ..base.clone()
        };
        let r = run_simulation_flit_built(&built, &wl, Pattern::Uniform, &cfg);
        if r.completed {
            format!("{:.2}", r.latency.mean)
        } else {
            "incomplete".into()
        }
    });

    println!("## N=48, M=32, Lm=256 — flit-buffer-depth sweep (flit engine)");
    let mut table = Table::new(["rate", "depth=1", "depth=2", "depth=4", "depth=32"]);
    for (i, &rate) in rates.iter().enumerate() {
        let mut row = vec![format!("{rate:.2e}")];
        row.extend_from_slice(&results[i * depths.len()..(i + 1) * depths.len()]);
        table.push_row(row);
    }
    println!("{}", table.render());
    println!(
        "finding: buffer depth is irrelevant in this regime. With messages\n\
         (M=32 flits) much longer than any path (<= 14 hops), a worm spans its\n\
         entire route whether or not intermediate channels can buffer extra\n\
         flits: a blocked header holds the same set of channels, and deeper\n\
         buffers can only compress flits that would otherwise wait at the\n\
         source. The paper's single-flit-buffer assumption 6 is therefore\n\
         *not* a material simplification for its workloads -- buffer depth\n\
         would start to matter only for messages shorter than the path."
    );
}

/// Extension experiment: bursty (interrupted-Poisson) traffic at a fixed
/// mean rate.
///
/// The paper's assumption 1 is per-node Poisson generation. Real parallel
/// applications emit communication in phases; this experiment holds the
/// mean rate constant and shrinks the duty cycle, showing how far the
/// Poisson-based analytical model drifts as traffic becomes bursty —
/// the time-domain counterpart of the §5 "non-uniform traffic" future work.
///
/// The duty-cycle points run concurrently via the runner's [`par_map`].
pub fn bursty(opts: &RunOpts) {
    let spec = presets::org_544();
    let rate = 4e-4;
    let wl = Workload {
        lambda_g: rate,
        ..presets::wl_m32_l256()
    };
    let model_opts = ModelOptions::default();
    let model = evaluate(&spec, &wl, &model_opts).unwrap().latency;
    let built = BuiltSystem::build(&spec, wl.flit_bytes);
    let cfg = scaled(
        &SimConfig {
            warmup: 2_000,
            measured: 20_000,
            drain: 2_000,
            seed: 99,
            ..SimConfig::default()
        },
        opts,
    );
    println!(
        "## N=544, M=32, Lm=256, mean rate {rate:.1e} — burstiness sweep\n\
         (burst length 8 messages; duty 1.00 = the paper's Poisson assumption)"
    );
    println!("analytical model (Poisson assumption): {model:.2}\n");
    let duties = [1.0, 0.5, 0.25, 0.1];
    let runs = par_map(&duties, |&duty| {
        let arrival = ArrivalSpec::bursty(rate, duty, 8.0);
        run_simulation_arrivals(&built, &wl, Pattern::Uniform, &cfg, arrival)
    });
    let mut table = Table::new(["duty cycle", "sim latency", "vs Poisson sim", "model err%"]);
    let poisson_ref = runs[0].latency.mean;
    for (&duty, r) in duties.iter().zip(&runs) {
        let mean = r.latency.mean;
        table.push_row([
            format!("{duty:.2}"),
            if r.completed {
                format!("{mean:.2}")
            } else {
                "incomplete".into()
            },
            format!("{:+.1}%", (mean / poisson_ref - 1.0) * 100.0),
            format!("{:+.1}", (model - mean) / mean * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!(
        "burstiness raises contention at the same mean load; the Poisson-based\n\
         model grows increasingly optimistic as the duty cycle shrinks."
    );
}

/// Extension experiment (the paper's §5 future work): non-uniform traffic.
///
/// Sweeps the cluster-locality parameter ψ at a fixed generation rate and
/// compares the generalised analytical model (outgoing-probability profile)
/// against the simulator's cluster-local pattern, on the paper's N=544
/// organization.
///
/// The locality points run concurrently via the runner's [`par_map`].
pub fn nonuniform(opts: &RunOpts) {
    let spec = presets::org_544();
    let rate = 4e-4;
    let wl = Workload {
        lambda_g: rate,
        ..presets::wl_m32_l256()
    };
    let model_opts = ModelOptions::default();
    let cfg = scaled(
        &SimConfig {
            warmup: 2_000,
            measured: 20_000,
            drain: 2_000,
            seed: 55,
            ..SimConfig::default()
        },
        opts,
    );
    let built = BuiltSystem::build(&spec, wl.flit_bytes);
    println!("## N=544, M=32, Lm=256, rate={rate:.1e} — locality sweep");
    let localities = [0.0, 0.2, 0.4, 0.6, 0.8, 0.95];
    let sims = par_map(&localities, |&locality| {
        run_simulation_built(&built, &wl, Pattern::ClusterLocal { locality }, &cfg)
    });
    let mut table = Table::new(["locality", "model", "sim", "err%", "sim inter-frac"]);
    for (&locality, sim) in localities.iter().zip(&sims) {
        let profile = OutgoingProfile::cluster_local(&spec, locality).unwrap();
        let model = evaluate_with_profile(&spec, &wl, &model_opts, &profile).map(|o| o.latency);
        let model_cell = model
            .as_ref()
            .map(|v| format!("{v:.2}"))
            .unwrap_or_else(|_| "saturated".into());
        let err = model
            .map(|m| format!("{:+.1}", (m - sim.latency.mean) / sim.latency.mean * 100.0))
            .unwrap_or_else(|_| "-".into());
        table.push_row([
            format!("{locality:.2}"),
            model_cell,
            format!("{:.2}", sim.latency.mean),
            err,
            format!("{:.3}", sim.inter_fraction()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "higher locality keeps traffic on the fast intra-cluster networks and\n\
         bypasses the concentrators: latency falls and the model error shrinks\n\
         (the documented inter-cluster offset applies only to outgoing traffic)."
    );
}

/// Robustness extension: graceful degradation under link failures.
///
/// Sweeps the statically failed-link fraction on the 48-node system and
/// reports, for each fraction, the latency of what still gets through and
/// the delivered fraction — the graceful-degradation curve. The fault
/// masks are nested prefixes of one seeded permutation
/// ([`FaultSchedule::link_fraction`]), so the delivered fraction is
/// monotone non-increasing by construction and the entry asserts it.
/// Surviving traffic reroutes around the failed links at build time
/// (fault-aware Up*/Down*); statically partitioned pairs are written off
/// as unreachable at generation, so even the 100 % row terminates by
/// draining its event queue rather than hanging.
///
/// A second mini-table exercises the *timed* fault path: one fail/repair
/// pulse on a live link mid-run, showing drop → retry-with-backoff →
/// recovery with nothing silently lost.
///
/// The fraction points run concurrently via the runner's [`par_map`].
pub fn degradation(opts: &RunOpts) {
    let spec = small_spec_48();
    let wl = Workload::new(2e-4, 32, 256.0).unwrap();
    let base = scaled(
        &SimConfig {
            warmup: 1_000,
            measured: 10_000,
            drain: 1_000,
            seed: 31,
            ..SimConfig::default()
        },
        opts,
    );
    let fractions = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0];
    let runs = par_map(&fractions, |&fraction| {
        let faults = FaultSchedule {
            link_fraction: fraction,
            ..FaultSchedule::default()
        };
        let built =
            BuiltSystem::try_build_with(&spec, wl.flit_bytes, AscentPolicy::default(), &faults)
                .unwrap();
        let cfg = SimConfig {
            faults,
            ..base.clone()
        };
        let failed = built.static_failed().iter().filter(|&&f| f).count();
        (
            failed,
            run_simulation_built(&built, &wl, Pattern::Uniform, &cfg),
        )
    });

    println!("## N=48, M=32, Lm=256 — graceful degradation vs failed-link fraction");
    let mut table = Table::new([
        "failed frac",
        "failed links",
        "latency",
        "delivered frac",
        "unreachable",
        "stop reason",
    ]);
    for (&fraction, (failed, r)) in fractions.iter().zip(&runs) {
        table.push_row([
            format!("{fraction:.2}"),
            failed.to_string(),
            if r.delivered_total > 0 {
                format!("{:.2}", r.latency.mean)
            } else {
                "-".into()
            },
            format!("{:.3}", r.delivered_fraction()),
            r.unreachable.to_string(),
            r.stop.to_string(),
        ]);
    }
    println!("{}", table.render());
    for w in runs.windows(2) {
        assert!(
            w[1].1.delivered_fraction() <= w[0].1.delivered_fraction() + 1e-12,
            "nested fault masks must degrade delivery monotonically"
        );
    }
    for (_, r) in &runs {
        assert_eq!(
            r.generated,
            r.delivered_total + r.unreachable,
            "no message may be silently lost"
        );
    }

    // Timed-fault pulse: fail node 0's injection link at t=0, repair it
    // mid-run. Routing does not know about timed faults, so traffic runs
    // into the dead link and exercises the drop/retry/backoff machinery;
    // after the repair everything still completes.
    let pulse = FaultSchedule {
        events: vec![
            FaultEvent {
                time: 0.0,
                link: node0_injection_link(&spec, &wl),
                action: FaultAction::Fail,
            },
            FaultEvent {
                time: 50_000.0,
                link: node0_injection_link(&spec, &wl),
                action: FaultAction::Repair,
            },
        ],
        max_attempts: 64,
        retry_timeout: 100.0,
        max_timeout: 800.0,
        ..FaultSchedule::default()
    };
    let built =
        BuiltSystem::try_build_with(&spec, wl.flit_bytes, AscentPolicy::default(), &pulse).unwrap();
    let cfg = SimConfig {
        faults: pulse,
        ..base.clone()
    };
    let r = run_simulation_built(&built, &wl, Pattern::Uniform, &cfg);
    println!("\n## timed fault pulse on node 0's injection link (fail @0, repair @5e4)");
    let mut table = Table::new(["dropped", "retransmits", "unreachable", "delivered frac"]);
    table.push_row([
        r.dropped.to_string(),
        r.retransmits.to_string(),
        r.unreachable.to_string(),
        format!("{:.3}", r.delivered_fraction()),
    ]);
    println!("{}", table.render());
    assert_eq!(
        r.dropped,
        r.retransmits + r.unreachable,
        "every drop is either retried or written off"
    );
    println!(
        "static failures degrade gracefully: surviving pairs reroute around the\n\
         failed links at the cost of longer Up*/Down* detours, partitioned pairs\n\
         are written off deterministically, and even a fully partitioned network\n\
         drains its event queue instead of hanging. Timed faults are invisible\n\
         to routing, so they exercise the message-level retry/backoff path."
    );
}

/// First channel of node 0's interned route to node 1 — a link every
/// uniform-traffic run exercises, used by the timed-fault pulse.
fn node0_injection_link(spec: &SystemSpec, wl: &Workload) -> u32 {
    let built = BuiltSystem::build(spec, wl.flit_bytes);
    let routes = built.route_table();
    let r = routes.route_ref(0, 1);
    let seg = routes.seg_meta(r, 0);
    routes.chan_at(seg.start)
}

/// Scaling study (beyond the paper): how latency and the saturation rate
/// evolve as the system grows, holding the cluster design fixed.
///
/// The paper evaluates two fixed organizations; the analytical model's real
/// value is sweeping a *family* of systems in milliseconds. This entry
/// scales the number of clusters (m=4, homogeneous n=3 clusters of 16
/// nodes, Table 2 networks) through every valid ICN2 size and reports
/// zero-load latency, mid-load latency and the saturation rate — the
/// designer's capacity curve.
pub fn scaling(_opts: &RunOpts) {
    let model_opts = ModelOptions::default();
    let wl = Workload::new(0.0, 32, 256.0).unwrap();
    println!("## cluster-count scaling (m=4, uniform n=3 clusters of 16 nodes)");
    let mut table = Table::new([
        "C",
        "N",
        "n_c",
        "latency (λ→0)",
        "latency (λ=sat/2)",
        "saturation rate",
        "aggregate msg/s at sat",
    ]);
    // Valid C for m=4: 2·2^{n_c} = 4, 8, 16, 32, 64.
    for n_c in 1..=5u32 {
        let c = 2 * 2usize.pow(n_c);
        let cluster = ClusterSpec {
            n: 3,
            icn1: presets::net1(),
            ecn1: presets::net2(),
            topology: Default::default(),
        };
        let spec = SystemSpec::new(4, vec![cluster; c], presets::net1()).unwrap();
        let zero = evaluate(&spec, &wl, &model_opts).unwrap().latency;
        let sat = saturation_point(&spec, &wl, &model_opts, 1e-4).unwrap();
        let mid = evaluate(&spec, &wl.with_rate(sat / 2.0), &model_opts)
            .unwrap()
            .latency;
        table.push_row([
            c.to_string(),
            spec.total_nodes().to_string(),
            spec.icn2_height().unwrap().to_string(),
            format!("{zero:.2}"),
            format!("{mid:.2}"),
            format!("{sat:.3e}"),
            format!("{:.3}", sat * spec.total_nodes() as f64),
        ]);
    }
    println!("{}", table.render());
    println!(
        "per-node sustainable load shrinks as C grows (every outgoing message\n\
         still crosses one concentrator), while aggregate throughput rises\n\
         sublinearly — the fundamental cluster-of-clusters trade-off the\n\
         paper's model makes visible."
    );
}

/// Extension scenario: the first non-tree backend through the whole
/// declarative pipeline — four 4×4 torus clusters (64 nodes) under an
/// m=4 ICN2 tree, dimension-order routing, latency vs load.
///
/// The paper's equations model m-port n-trees only, so the entry is
/// *simulation-only*: the runner reports the coverage gap and skips the
/// analytical series instead of failing. Its JSON twin is committed under
/// `scenarios/torus_sweep.json` and the golden test pins the sweep
/// bit-identical across the serial and cluster-sharded engines.
pub fn torus_sweep() -> Scenario {
    let cluster = ClusterSpec {
        // A torus cluster has no tree height; its shape is `dims`.
        n: 0,
        icn1: presets::net1(),
        ecn1: presets::net2(),
        topology: TopoSpec::Torus(TorusShape::new(&[4, 4]).expect("static shape is valid")),
    };
    let spec = SystemSpec::new(4, vec![cluster; 4], presets::net1()).expect("static spec is valid");
    let sim = SimConfig {
        seed: 2006,
        ..SimConfig::default()
    };
    Scenario::new("N=64, 4x 4x4-torus clusters, M=32 (sim only)", spec)
        .with_workload("Lm=256", Workload::new(0.0, 32, 256.0).unwrap())
        .with_grid(3.2e-3, 8)
        .with_sim(sim)
}
