//! Route-interning scale study: build time, resident route-table bytes
//! and simulated events/sec as the endpoint count grows from ~1k to 10^6.
//!
//! The sweep is the motivating experiment behind the class-keyed
//! [`cocnet_sim::RouteTable`]: eager all-pairs interning is quadratic in
//! endpoints (≈10^12 pair entries at a million nodes — unbuildable),
//! while the classed table materializes one record per *touched
//! equivalence class*, so build cost is O(channels) and resident bytes
//! follow the traffic, not the topology. Points small enough for the
//! eager oracle (≤ `EAGER_MAX_NODES` nodes) also build it and report
//! the speedup; the paper's org_1120 must come out ≥ 10× faster classed,
//! which the entry asserts. Every build time is the fastest of three
//! builds.
//!
//! Usage: `cocnet run org_scale [--quick] [--json]`. `--quick` scales
//! the per-point simulation populations 10× down but still sweeps every
//! org including the 2^20-endpoint one — that point doubling as the CI
//! smoke that the lifted 65535-node cap stays lifted. The entry times
//! fault-free builds in both interning modes and simulates on the classed
//! one, so `--fail-links` and `--interning` do not apply to it.

use super::{scaled, RunOpts};
use cocnet_model::Workload;
use cocnet_sim::{run_simulation_built, BuiltSystem, FaultSchedule, InternMode, SimConfig};
use cocnet_stats::Table;
use cocnet_topology::{AscentPolicy, ClusterSpec, SystemSpec};
use cocnet_workloads::{presets, Pattern};
use std::time::Instant;

/// Largest org for which the eager all-pairs oracle is also built for
/// the comparison columns (the oracle itself caps at 65 535 nodes, but
/// quadratic build cost makes it pointless well before that).
const EAGER_MAX_NODES: usize = 4_096;

/// A homogeneous m=16 organization: `clusters` clusters of `2·8^n`
/// nodes each on the Table 2 networks. m=16 keeps every tier a valid
/// m-port n-tree while one (m, n) graph is shared across all clusters.
fn mega_org(cluster_n: u32, clusters: usize) -> SystemSpec {
    let cluster = ClusterSpec {
        n: cluster_n,
        icn1: presets::net1(),
        ecn1: presets::net2(),
        topology: Default::default(),
    };
    SystemSpec::new(16, vec![cluster; clusters], presets::net1())
        .expect("static scale orgs are valid")
}

/// The sweep: the paper's org_1120 plus the m=16 family up to 2^20
/// endpoints (16 × 128, 128 × 128, 128 × 1024, 1024 × 1024).
fn sweep() -> Vec<(&'static str, SystemSpec)> {
    vec![
        ("org_1120", presets::org_1120()),
        ("org_2k", mega_org(2, 16)),
        ("org_16k", mega_org(2, 128)),
        ("org_131k", mega_org(3, 128)),
        ("org_1m", mega_org(3, 1024)),
    ]
}

#[derive(serde::Serialize)]
struct Point {
    name: &'static str,
    nodes: usize,
    channels: usize,
    classed_build_ms: f64,
    /// Route-table resident bytes *after* the simulation ran (the classed
    /// table grows with touched classes, so post-run is the honest size).
    classed_bytes: usize,
    eager_build_ms: Option<f64>,
    eager_bytes: Option<usize>,
    events_per_sec: f64,
    delivered: u64,
}

fn human_bytes(b: usize) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.1} KiB", b as f64 / 1024.0)
    }
}

/// Builds per timed build column; the fastest is reported.
const BUILD_REPS: usize = 3;

/// Builds `spec` in `mode` [`BUILD_REPS`] times and returns the last
/// system with the fastest build, in ms. The fastest build is the
/// build's own cost: org_1120's classed build takes a fraction of a
/// millisecond, so a single timing is at the mercy of one preemption,
/// and the speed-up check below compares it with the eager build.
fn timed_build(spec: &SystemSpec, wl: &Workload, mode: InternMode) -> (BuiltSystem, f64) {
    let mut best = f64::INFINITY;
    let mut built = None;
    for _ in 0..BUILD_REPS {
        // Drop the previous system first, so only one is ever resident.
        drop(built.take());
        let start = Instant::now();
        let b = BuiltSystem::try_build_full(
            spec,
            wl.flit_bytes,
            AscentPolicy::default(),
            &FaultSchedule::default(),
            mode,
        )
        .expect("scale orgs build");
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        built = Some(b);
    }
    (built.expect("at least one build"), best)
}

/// The `org_scale` registry entry.
pub fn org_scale(opts: &RunOpts) {
    let wl = Workload::new(2e-4, 32, 256.0).expect("static workload");
    let base = scaled(
        &SimConfig {
            warmup: 1_000,
            measured: 10_000,
            drain: 1_000,
            seed: 9,
            ..SimConfig::default()
        },
        opts,
    );

    let mut points = Vec::new();
    for (name, spec) in sweep() {
        let (built, classed_build_ms) = timed_build(&spec, &wl, InternMode::Classed);
        let nodes = built.total_nodes();

        let (eager_build_ms, eager_bytes) = if nodes <= EAGER_MAX_NODES {
            let (eager, eager_build_ms) = timed_build(&spec, &wl, InternMode::Eager);
            (
                Some(eager_build_ms),
                Some(eager.route_table().resident_bytes()),
            )
        } else {
            (None, None)
        };

        let start = Instant::now();
        let r = run_simulation_built(&built, &wl, Pattern::Uniform, &base);
        let wall = start.elapsed().as_secs_f64();
        assert!(r.completed, "{name}: scale sweep run must complete");
        eprintln!(
            "[{name}: {nodes} nodes, build {classed_build_ms:.1} ms, \
             {:.0} events/s]",
            r.events_processed as f64 / wall
        );
        points.push(Point {
            name,
            nodes,
            channels: built.num_channels(),
            classed_build_ms,
            classed_bytes: built.route_table().resident_bytes(),
            eager_build_ms,
            eager_bytes,
            events_per_sec: r.events_processed as f64 / wall,
            delivered: r.delivered_total,
        });
    }

    println!("## Route interning at scale — classed (lazy, default) vs eager oracle");
    let mut table = Table::new([
        "org",
        "nodes",
        "channels",
        "build ms",
        "table bytes",
        "eager ms",
        "eager bytes",
        "events/s",
    ]);
    for p in &points {
        table.push_row([
            p.name.to_string(),
            p.nodes.to_string(),
            p.channels.to_string(),
            format!("{:.1}", p.classed_build_ms),
            human_bytes(p.classed_bytes),
            p.eager_build_ms
                .map_or("-".to_string(), |ms| format!("{ms:.1}")),
            p.eager_bytes.map_or("-".to_string(), human_bytes),
            format!("{:.0}", p.events_per_sec),
        ]);
    }
    println!("{}", table.render());
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&points).expect("rows serialize")
        );
    }

    for p in &points {
        assert!(p.delivered > 0, "{}: sweep point delivered nothing", p.name);
    }
    let million = points
        .iter()
        .find(|p| p.nodes >= 1 << 20)
        .expect("2^20 point");
    assert!(
        million.classed_build_ms < 1_000.0,
        "a 2^20-endpoint org must build in under a second (took {:.0} ms)",
        million.classed_build_ms
    );
    let org1120 = &points[0];
    let (eager_ms, classed_ms) = (
        org1120.eager_build_ms.expect("org_1120 runs the oracle"),
        org1120.classed_build_ms,
    );
    assert!(
        eager_ms >= 10.0 * classed_ms,
        "org_1120 classed build must be >= 10x faster than eager \
         (eager {eager_ms:.2} ms vs classed {classed_ms:.2} ms)"
    );
    eprintln!(
        "[org_scale: ok — org_1120 classed build {classed_ms:.2} ms vs eager \
         {eager_ms:.2} ms ({:.0}x), 2^20-endpoint build {:.0} ms]",
        eager_ms / classed_ms,
        million.classed_build_ms
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_orgs_hit_their_nominal_node_counts() {
        let expected = [1120, 2048, 16384, 131072, 1048576];
        for ((name, spec), want) in sweep().into_iter().zip(expected) {
            assert_eq!(spec.total_nodes(), want, "{name}");
        }
    }
}
