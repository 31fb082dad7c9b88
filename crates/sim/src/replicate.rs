//! Independent replications: summarising the same configuration run
//! under several seeds.
//!
//! A single simulation's confidence interval understates the truth when
//! samples are autocorrelated (queueing systems correlate heavily near
//! saturation). The standard remedy — and what a careful reproduction of
//! the paper's figures should report — is the mean of independent
//! replications with a CI over the replication means. The runs themselves
//! are scheduled by the caller (the `cocnet` scenario runner runs them in
//! parallel waves, seeds `s, s+1, …`); this module merges their results,
//! and [`ReplicationSummary::ci`] is the interval a precision target is
//! tested on.

use crate::results::SimResults;
use cocnet_stats::{mean_confidence_interval, ConfidenceInterval, OnlineStats};
use serde::{Deserialize, Serialize};

/// Summary over independent replications of one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicationSummary {
    /// Mean of the per-replication mean latencies.
    pub mean: f64,
    /// Per-replication mean latencies, in seed order, of the replications
    /// that have one ([`SimResults::has_latency`]).
    pub replication_means: Vec<f64>,
    /// Number of replications that completed.
    pub completed: usize,
    /// Total replications attempted.
    pub attempted: usize,
}

impl ReplicationSummary {
    /// Whether every replication delivered its measured population.
    pub fn all_completed(&self) -> bool {
        self.completed == self.attempted
    }

    /// Confidence interval over the replication means at `level`
    /// (infinitely wide below two means).
    pub fn ci(&self, level: f64) -> ConfidenceInterval {
        mean_confidence_interval(&stats_of(&self.replication_means), level)
    }
}

/// The running statistics of `means`, pushed in order: [`summarize`]'s
/// mean and [`ReplicationSummary::ci`] both read them, so the two agree
/// to the bit.
fn stats_of(means: &[f64]) -> OnlineStats {
    let mut stats = OnlineStats::new();
    for &mean in means {
        stats.push(mean);
    }
    stats
}

/// Merges per-replication results, in seed order, into a
/// [`ReplicationSummary`]. A run with no latency (an event-cap abort, i.e.
/// saturation, or no recorded message; see [`SimResults::has_latency`])
/// counts as attempted but contributes no mean. A run that drained with
/// part of its measured population cut off by faults contributes the
/// mean of the measured messages it delivered.
pub fn summarize(results: &[SimResults]) -> ReplicationSummary {
    let replication_means: Vec<f64> = results
        .iter()
        .filter(|r| r.has_latency())
        .map(|r| r.latency.mean)
        .collect();
    ReplicationSummary {
        mean: stats_of(&replication_means).mean(),
        replication_means,
        completed: results.iter().filter(|r| r.completed).count(),
        attempted: results.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::BuiltSystem;
    use crate::config::SimConfig;
    use crate::engine::run_simulation_built;
    use crate::results::{Counters, Delivery, Sinks, StopReason};
    use cocnet_model::Workload;
    use cocnet_topology::{ClusterSpec, NetworkCharacteristics, SystemSpec};
    use cocnet_workloads::Pattern;

    fn spec() -> SystemSpec {
        let net = NetworkCharacteristics::new(500.0, 0.01, 0.02).unwrap();
        let c = |n| ClusterSpec {
            n,
            icn1: net,
            ecn1: net,
            topology: Default::default(),
        };
        SystemSpec::new(4, vec![c(1), c(1), c(2), c(2)], net).unwrap()
    }

    fn cfg() -> SimConfig {
        SimConfig {
            warmup: 300,
            measured: 3_000,
            drain: 300,
            seed: 7,
            ..SimConfig::default()
        }
    }

    /// The runs of `replications` seeds `cfg.seed, cfg.seed + 1, …`, in
    /// seed order, serially or on the rayon pool.
    fn runs(wl: &Workload, replications: u64, parallel: bool) -> Vec<SimResults> {
        use rayon::prelude::*;
        let built = BuiltSystem::build(&spec(), wl.flit_bytes);
        let run = |r: u64| {
            let run_cfg = SimConfig {
                seed: cfg().seed.wrapping_add(r),
                ..cfg()
            };
            run_simulation_built(&built, wl, Pattern::Uniform, &run_cfg)
        };
        if parallel {
            (0..replications).into_par_iter().map(run).collect()
        } else {
            (0..replications).map(run).collect()
        }
    }

    fn replicate(wl: &Workload, replications: u64) -> ReplicationSummary {
        summarize(&runs(wl, replications, false))
    }

    #[test]
    fn replications_complete_and_differ() {
        let wl = Workload::new(2e-4, 16, 256.0).unwrap();
        let s = replicate(&wl, 4);
        assert!(s.all_completed());
        assert_eq!(s.replication_means.len(), 4);
        // Distinct seeds produce distinct means…
        let first = s.replication_means[0];
        assert!(s.replication_means.iter().any(|&m| m != first));
        // …that all fall inside a sane band around the summary mean.
        for &m in &s.replication_means {
            assert!((m - s.mean).abs() / s.mean < 0.2);
        }
    }

    #[test]
    fn parallel_replications_bit_identical_to_serial() {
        let wl = Workload::new(2e-4, 16, 256.0).unwrap();
        let serial = replicate(&wl, 6);
        let parallel = summarize(&runs(&wl, 6, true));
        assert_eq!(serial.replication_means, parallel.replication_means);
        assert_eq!(serial.mean, parallel.mean);
        assert_eq!(serial.ci(0.95), parallel.ci(0.95));
        assert_eq!(serial.completed, parallel.completed);
    }

    #[test]
    fn ci_shrinks_with_more_replications() {
        let wl = Workload::new(2e-4, 16, 256.0).unwrap();
        let small = replicate(&wl, 3);
        let large = replicate(&wl, 8);
        assert!(large.ci(0.95).half_width < small.ci(0.95).half_width);
    }

    #[test]
    fn summary_counts_incomplete_runs() {
        let mut sinks = Sinks::new(&cfg(), 1);
        for latency in [10.0, 12.0] {
            sinks.record(&Delivery {
                t: latency,
                latency,
                src: 0,
                gen_time: 0.0,
                recorded: true,
                audited: false,
                intra: true,
                src_cluster: 0,
            });
        }
        let counters = Counters {
            generated: 2,
            events_processed: 2,
            ..Counters::default()
        };
        let r_ok = sinks.finish(counters, StopReason::MeasuredComplete, 1.0, Vec::new(), 1);
        let mut r_bad = r_ok.clone();
        r_bad.completed = false;
        let s = summarize(&[r_ok, r_bad]);
        assert_eq!(s.completed, 1);
        assert_eq!(s.attempted, 2);
        assert!(!s.all_completed());
        assert_eq!(s.mean, 11.0);
    }

    #[test]
    fn ci_at_level_converges_as_replications_grow() {
        use cocnet_stats::Precision;
        let wl = Workload::new(2e-4, 16, 256.0).unwrap();
        let results = runs(&wl, 8, false);
        // A loose 20 % relative target: unmet with one replication
        // (infinite half-width), met once a few independent means agree.
        let target = Precision::relative(0.2, 0.95);
        let meets = |k: usize| target.met_by(&summarize(&results[..k]).ci(target.level));
        assert!(!meets(1), "one replication can never converge");
        let spent = (1..=8)
            .find(|&k| meets(k))
            .expect("a 20% target converges within 8 replications");
        assert!(spent >= 2);
        // The interval is rebuilt from the means in seed order, so it is
        // centred on the summary's own mean to the bit.
        let s = summarize(&results[..spent]);
        let ci = s.ci(0.95);
        assert_eq!(ci.mean.to_bits(), s.mean.to_bits());
        assert!(ci.half_width / s.mean <= 0.2);
    }
}
