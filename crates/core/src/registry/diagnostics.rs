//! Single-run diagnostics and model decompositions: where the time goes,
//! which channels are hot, and how asymmetric the cluster pairs are.

use super::{scaled, RunOpts};
use cocnet_model::inter::pair_latency;
use cocnet_model::{evaluate, network_rates, ModelOptions, Workload};
use cocnet_sim::{run_simulation_built, BuiltSystem, SimConfig};
use cocnet_stats::Table;
use cocnet_workloads::{presets, Pattern};

/// Channel-utilisation diagnostic: runs one simulation and prints the
/// hottest channels, supporting the paper's §4 claim that the inter-cluster
/// networks (especially ICN2) are the system bottleneck. `--rate` sets the
/// traffic rate (default 1.5e-4).
pub fn hotspots(opts: &RunOpts) {
    let rate = opts.rate.unwrap_or(1.5e-4);
    let spec = presets::org_1120();
    let wl = Workload {
        lambda_g: rate,
        ..presets::wl_m32_l256()
    };
    let cfg = scaled(
        &SimConfig {
            warmup: 2_000,
            measured: 20_000,
            drain: 2_000,
            seed: 7,
            max_events: 2_000_000_000,
            collect_channel_busy: true,
            ..SimConfig::default()
        },
        opts,
    );
    let built = BuiltSystem::for_config(&spec, wl.flit_bytes, &cfg);
    let r = run_simulation_built(&built, &wl, Pattern::Uniform, &cfg);
    println!(
        "rate={rate:.2e}  mean latency={:.2}  completed={}  sim_time={:.1}",
        r.latency.mean, r.completed, r.sim_time
    );
    let mut hot: Vec<(usize, f64)> = r
        .channel_busy
        .iter()
        .enumerate()
        .map(|(i, &b)| (i, b / r.sim_time))
        .collect();
    hot.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top 15 channel utilisations:");
    for &(c, u) in hot.iter().take(15) {
        println!("  util={u:.3}  {}", built.describe_channel(c as u32));
    }
    // Aggregate by network kind.
    let mut agg: std::collections::BTreeMap<String, (f64, usize)> = Default::default();
    for (i, &b) in r.channel_busy.iter().enumerate() {
        let (net, _) = built.network_of(i as u32);
        let e = agg.entry(net.to_string()).or_insert((0.0, 0));
        e.0 += b / r.sim_time;
        e.1 += 1;
    }
    println!("mean utilisation by network:");
    for (net, (sum, n)) in agg {
        println!("  {net}: {:.4}", sum / n as f64);
    }
}

/// Predicted vs measured channel utilisation, per network class.
///
/// Runs the analytical rate predictions (Eqs. (7), (10), (22)–(25) plus
/// `M·t_cs` holding) against the simulator's measured busy fractions on the
/// N=1120 organization. `--rate` sets the traffic rate (default 2e-4).
pub fn utilization(opts: &RunOpts) {
    let rate = opts.rate.unwrap_or(2e-4);
    let spec = presets::org_1120();
    let wl = Workload {
        lambda_g: rate,
        ..presets::wl_m32_l256()
    };
    let cfg = scaled(
        &SimConfig {
            warmup: 2_000,
            measured: 20_000,
            drain: 2_000,
            seed: 3,
            collect_channel_busy: true,
            ..SimConfig::default()
        },
        opts,
    );
    let built = BuiltSystem::for_config(&spec, wl.flit_bytes, &cfg);
    let sim = run_simulation_built(&built, &wl, Pattern::Uniform, &cfg);
    let predicted = network_rates(&spec, &wl);

    // Aggregate measured busy fractions per network class.
    let mut sums: std::collections::BTreeMap<(&str, u32), (f64, f64, usize)> = Default::default();
    for (i, &b) in sim.channel_busy.iter().enumerate() {
        let (net, cluster) = built.network_of(i as u32);
        let n_height = if net == "ICN2" {
            spec.icn2_height().unwrap()
        } else {
            spec.clusters[cluster].n
        };
        let u = b / sim.sim_time;
        let e = sums.entry((net, n_height)).or_insert((0.0, 0.0, 0));
        e.0 += u;
        e.1 = e.1.max(u);
        e.2 += 1;
    }

    println!("## N=1120, M=32, Lm=256, rate={rate:.2e} — channel utilisation by network class");
    let mut table = Table::new([
        "network class",
        "mean util (sim)",
        "max util (sim)",
        "predicted util (model)",
    ]);
    for ((net, h), (sum, max, count)) in &sums {
        // A representative predicted value for the class.
        let pred = match *net {
            "ICN1" => {
                let i = (0..spec.num_clusters())
                    .find(|&i| spec.clusters[i].n == *h)
                    .unwrap();
                predicted.util_icn1[i]
            }
            "ECN1" => {
                let i = (0..spec.num_clusters())
                    .find(|&i| spec.clusters[i].n == *h)
                    .unwrap();
                predicted.util_ecn1[i]
            }
            _ => predicted.util_icn2,
        };
        table.push_row([
            format!("{net} (n={h})"),
            format!("{:.4}", sum / *count as f64),
            format!("{max:.4}"),
            format!("{pred:.4}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "mean latency {:.2} (completed={}); the ICN2 class dominates, matching\n\
         the paper's bottleneck observation.",
        sim.latency.mean, sim.completed
    );
}

/// Latency decomposition: where does the time go as load grows?
///
/// The model's component structure (Eqs. (4) and (39)) makes the answer
/// exact: source-queue wait, network latency, tail drain, and
/// concentrator/dispatcher wait, separately for the intra- and
/// inter-cluster populations. This is the designer's view behind Fig. 7's
/// conclusion — the component that explodes first is the concentrator
/// wait, which is why boosting ICN2 bandwidth pays off.
pub fn breakdown(_opts: &RunOpts) {
    let opts = ModelOptions::default();
    for (name, spec, wl, rates) in [
        (
            "N=1120, M=32, Lm=256",
            presets::org_1120(),
            presets::wl_m32_l256(),
            [5e-5, 2e-4, 3.5e-4, 4.7e-4],
        ),
        (
            "N=544, M=64, Lm=256",
            presets::org_544(),
            presets::wl_m64_l256(),
            [5e-5, 2e-4, 3.5e-4, 4.7e-4],
        ),
    ] {
        println!("## {name} — population-weighted latency components");
        let mut table = Table::new([
            "rate",
            "intra W_in",
            "intra T+E",
            "inter W_ex",
            "inter T+E",
            "condis W_d",
            "total",
        ]);
        for rate in rates {
            let w = Workload {
                lambda_g: rate,
                ..wl
            };
            match evaluate(&spec, &w, &opts) {
                Ok(out) => {
                    let n = spec.total_nodes() as f64;
                    let mut acc = [0.0f64; 5];
                    for c in &out.per_cluster {
                        let share = spec.cluster_nodes(c.cluster) as f64 / n;
                        let u = c.outgoing_probability;
                        acc[0] += share * (1.0 - u) * c.intra.source_wait;
                        acc[1] += share * (1.0 - u) * (c.intra.network + c.intra.tail);
                        acc[2] += share * u * c.inter.source_wait;
                        acc[3] += share * u * (c.inter.network + c.inter.tail);
                        acc[4] += share * u * c.inter.condis_wait;
                    }
                    table.push_row([
                        format!("{rate:.2e}"),
                        format!("{:.2}", acc[0]),
                        format!("{:.2}", acc[1]),
                        format!("{:.2}", acc[2]),
                        format!("{:.2}", acc[3]),
                        format!("{:.2}", acc[4]),
                        format!("{:.2}", out.latency),
                    ]);
                }
                Err(e) => {
                    table.push_row([
                        format!("{rate:.2e}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        format!("{e}"),
                    ]);
                }
            }
        }
        println!("{}", table.render());
    }
    println!(
        "as load approaches saturation the concentrator/dispatcher wait (W_d)\n\
         dominates the growth — the analytic restatement of the hotspots\n\
         experiment's measured bottleneck."
    );
}

/// Pairwise inter-cluster latency matrix `L_ex^{(i,j)}` (Eq. (32)) —
/// the quantity Eq. (35) averages away. Printed per cluster *class* (the
/// organizations have 3 classes), it shows how asymmetric the
/// cluster-of-clusters really is: small→small pairs pay the most because
/// both endpoints' ECN1 trees are shallow but their concentrators carry
/// proportionally more of their traffic.
pub fn pairwise(_opts: &RunOpts) {
    let opts = ModelOptions::default();
    for (name, spec, rate) in [
        ("N=1120", presets::org_1120(), 2e-4),
        ("N=544", presets::org_544(), 4e-4),
    ] {
        let wl = Workload {
            lambda_g: rate,
            ..presets::wl_m32_l256()
        };
        // One representative cluster per height class.
        let mut reps: Vec<usize> = Vec::new();
        for i in 0..spec.num_clusters() {
            if !reps
                .iter()
                .any(|&r| spec.clusters[r].n == spec.clusters[i].n)
            {
                reps.push(i);
            }
        }
        println!("## {name}, M=32, Lm=256, rate={rate:.1e} — L_ex by class pair");
        let mut header = vec!["src \\ dst".to_string()];
        header.extend(
            reps.iter()
                .map(|&j| format!("n={} (N={})", spec.clusters[j].n, spec.cluster_nodes(j))),
        );
        let mut table = Table::new(header);
        for &i in &reps {
            let mut row = vec![format!(
                "n={} (N={})",
                spec.clusters[i].n,
                spec.cluster_nodes(i)
            )];
            for &j in &reps {
                // Same class: pick another member of that class if it
                // exists (pair latency needs distinct clusters).
                let j_eff = if i == j {
                    (0..spec.num_clusters())
                        .find(|&x| x != i && spec.clusters[x].n == spec.clusters[j].n)
                } else {
                    Some(j)
                };
                row.push(match j_eff {
                    Some(j2) => pair_latency(&spec, &wl, i, j2, &opts)
                        .map(|p| {
                            format!("{:.1}", p.source_wait + p.network + p.tail + p.condis_wait)
                        })
                        .unwrap_or_else(|_| "sat".into()),
                    None => "-".into(),
                });
            }
            table.push_row(row);
        }
        println!("{}", table.render());
    }
    println!(
        "rows: source class; columns: destination class. The destination's\n\
         tree height sets the descent length, the pair's combined outgoing\n\
         traffic sets the concentrator load (Eq. 22-23): big<->big pairs\n\
         dominate the Eq. (35) average."
    );
}
