//! Independent replications: summarising the same configuration run
//! under several seeds.
//!
//! A single simulation's confidence interval understates the truth when
//! samples are autocorrelated (queueing systems correlate heavily near
//! saturation). The standard remedy — and what a careful reproduction of
//! the paper's figures should report — is the mean of independent
//! replications with a CI over the replication means. The runs themselves
//! are scheduled by the caller (the `cocnet` scenario runner runs them in
//! parallel, seeds `s, s+1, …`); this module merges their results.

use crate::results::SimResults;
use cocnet_stats::{mean_confidence_interval, ConfidenceInterval, OnlineStats, Precision};
use serde::{Deserialize, Serialize};

/// Summary over independent replications of one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicationSummary {
    /// Mean of the per-replication mean latencies.
    pub mean: f64,
    /// 95 % confidence interval over the replication means.
    pub ci95: ConfidenceInterval,
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
}

/// Incremental replication merging: absorbs per-replication
/// [`SimResults`] one at a time and serves the running cross-replication
/// estimate — mean, CI at any level, convergence against a
/// [`Precision`] target — without retaining the results themselves.
///
/// Absorbing a result slice in order and calling [`summary`] is
/// bit-identical to [`summarize`] over the same slice (the batch path is
/// implemented on top of this accumulator), which is what lets the
/// adaptive runner grow a point's replication set wave by wave while
/// fixed-replication scenarios keep their historical output.
///
/// [`summary`]: ReplicationAccumulator::summary
#[derive(Debug, Clone, Default)]
pub struct ReplicationAccumulator {
    stats: OnlineStats,
    means: Vec<f64>,
    completed: usize,
    attempted: usize,
    warmup_flagged: usize,
}

impl ReplicationAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one replication's results. A run with no latency (an
    /// event-cap abort, i.e. saturation, or no recorded message; see
    /// [`SimResults::has_latency`]) counts as attempted but contributes no
    /// mean, exactly as in [`summarize`]. A run that drained with part of
    /// its measured population cut off by faults contributes the mean of
    /// the measured messages it delivered.
    pub fn absorb(&mut self, r: &SimResults) {
        self.attempted += 1;
        if r.warmup_audit.is_some_and(|a| a.exceeds()) {
            self.warmup_flagged += 1;
        }
        if r.has_latency() {
            self.stats.push(r.latency.mean);
            self.means.push(r.latency.mean);
        }
        if r.completed {
            self.completed += 1;
        }
    }

    /// Replications absorbed so far.
    pub fn attempted(&self) -> usize {
        self.attempted
    }

    /// Absorbed replications that delivered their measured population.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Whether every absorbed replication completed.
    pub fn all_completed(&self) -> bool {
        self.completed == self.attempted
    }

    /// Absorbed replications whose MSER-5 warm-up audit flagged a
    /// transient outlasting the configured warm-up (always 0 when runs
    /// were not audited).
    pub fn warmup_flagged(&self) -> usize {
        self.warmup_flagged
    }

    /// Running mean of the absorbed replications' mean latencies (those
    /// with one).
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Confidence interval over the replication means at `level`.
    pub fn ci(&self, level: f64) -> ConfidenceInterval {
        mean_confidence_interval(&self.stats, level)
    }

    /// Whether the cross-replication estimate already satisfies `target`
    /// — the adaptive runner's stopping test.
    pub fn meets(&self, target: &Precision) -> bool {
        target.met_by(&self.ci(target.level))
    }

    /// The summary over everything absorbed so far — bit-identical to
    /// [`summarize`] over the same results in the same order.
    pub fn summary(&self) -> ReplicationSummary {
        ReplicationSummary {
            mean: self.stats.mean(),
            ci95: self.ci(0.95),
            replication_means: self.means.clone(),
            completed: self.completed,
            attempted: self.attempted,
        }
    }
}

/// Merges per-replication results, in seed order, into a
/// [`ReplicationSummary`].
pub fn summarize(results: &[SimResults], attempted: usize) -> ReplicationSummary {
    let mut acc = ReplicationAccumulator::new();
    for r in results {
        acc.absorb(r);
    }
    let mut summary = acc.summary();
    summary.attempted = attempted;
    summary
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
        summarize(&runs(wl, replications, false), replications as usize)
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
        let parallel = summarize(&runs(&wl, 6, true), 6);
        assert_eq!(serial.replication_means, parallel.replication_means);
        assert_eq!(serial.mean, parallel.mean);
        assert_eq!(serial.ci95, parallel.ci95);
        assert_eq!(serial.completed, parallel.completed);
    }

    #[test]
    fn ci_shrinks_with_more_replications() {
        let wl = Workload::new(2e-4, 16, 256.0).unwrap();
        let small = replicate(&wl, 3);
        let large = replicate(&wl, 8);
        assert!(large.ci95.half_width < small.ci95.half_width);
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
        let s = summarize(&[r_ok, r_bad], 2);
        assert_eq!(s.completed, 1);
        assert_eq!(s.attempted, 2);
        assert!(!s.all_completed());
        assert_eq!(s.mean, 11.0);
    }

    #[test]
    fn accumulator_matches_batch_summarize_bitwise() {
        let wl = Workload::new(2e-4, 16, 256.0).unwrap();
        let results = runs(&wl, 5, false);
        let batch = summarize(&results, 5);
        let mut acc = ReplicationAccumulator::new();
        for (absorbed, r) in results.iter().enumerate() {
            acc.absorb(r);
            assert_eq!(acc.attempted(), absorbed + 1);
        }
        let incremental = acc.summary();
        assert_eq!(incremental.mean, batch.mean);
        assert_eq!(incremental.ci95, batch.ci95);
        assert_eq!(incremental.replication_means, batch.replication_means);
        assert_eq!(incremental.completed, batch.completed);
        assert_eq!(incremental.attempted, batch.attempted);
        assert!(acc.all_completed());
        assert_eq!(acc.warmup_flagged(), 0);
    }

    #[test]
    fn accumulator_convergence_tightens_with_replications() {
        use cocnet_stats::Precision;
        let wl = Workload::new(2e-4, 16, 256.0).unwrap();
        let built = BuiltSystem::build(&spec(), wl.flit_bytes);
        let mut acc = ReplicationAccumulator::new();
        // A loose 20 % relative target: unmet with one replication
        // (infinite half-width), met once a few independent means agree.
        let target = Precision::relative(0.2, 0.95);
        let mut converged_at = None;
        for r in 0..8u64 {
            let run_cfg = SimConfig {
                seed: cfg().seed.wrapping_add(r),
                ..cfg()
            };
            acc.absorb(&run_simulation_built(
                &built,
                &wl,
                Pattern::Uniform,
                &run_cfg,
            ));
            if r == 0 {
                assert!(!acc.meets(&target), "one replication can never converge");
            }
            if converged_at.is_none() && acc.meets(&target) {
                converged_at = Some(acc.attempted());
            }
        }
        let spent = converged_at.expect("a 20% target converges within 8 replications");
        assert!(spent >= 2);
        // The CI the decision was made on is the one reported.
        assert!(acc.ci(0.95).half_width / acc.mean() <= 0.2);
    }
}
