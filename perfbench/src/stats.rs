//! Sample arithmetic: medians, quartiles, spread, and the paired
//! comparison rule a performance claim must pass.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, error).
    Lower,
    /// Larger values are better (throughput, pass rate).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `change` is than `base`, as a share of `base`;
    /// negative when `change` is better.
    pub fn worsening(self, base: f64, change: f64) -> f64 {
        match self {
            Better::Lower => (change - base) / base,
            Better::Higher => (base - change) / base,
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    s
}

/// Median of `xs` (the mean of the middle pair for even sizes).
///
/// # Panics
/// Panics on an empty sample or one holding a NaN.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `[q1, q2, q3]` exactly as Python's `statistics.quantiles(xs, n=4)`
/// computes them (its default `exclusive` method, including the clamp
/// that makes tiny samples extrapolate). A one-value sample yields that
/// value three times.
///
/// # Panics
/// Panics on an empty sample or one holding a NaN.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let m = (ld + 1) as i64;
    let mut out = [0.0; 3];
    for (i, q) in (1..=3i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's bounds are set against.
pub fn rel_spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// Two-sided 95% critical value of Student's t with `df` degrees of
/// freedom. Few replications get the wider t quantile in place of the
/// normal 1.96 — the finite-sample adjustment of Pan et al. (PAPERS.md).
pub fn t_crit_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df - 1],
        // Cornish–Fisher first-order correction to the normal quantile.
        _ => 1.96 + (1.96f64.powi(3) + 1.96) / (4.0 * df as f64),
    }
}

/// Paired runs of a parent commit and a change on one metric and one
/// workload, run alternately (pair `i` is `parent[i]`, `change[i]`).
#[derive(Debug, Clone, PartialEq)]
pub struct PairComparison {
    /// Number of pairs.
    pub pairs: usize,
    /// Pairs the change won; ties count for neither side.
    pub wins: usize,
    /// Pairs the parent won.
    pub losses: usize,
    /// The parent's quartiles.
    pub parent: [f64; 3],
    /// The change's quartiles.
    pub change: [f64; 3],
    /// Mean per-pair log gain, `ln(parent/change)` for lower-is-better
    /// metrics (`ln(change/parent)` otherwise): positive means better.
    pub mean_log_gain: f64,
    /// Paired Student t statistic of the log gains.
    pub t: f64,
    /// Critical value the statistic is held against ([`t_crit_95`]).
    pub t_crit: f64,
    better: Better,
}

impl PairComparison {
    /// Compares paired samples of equal length (at least two pairs).
    ///
    /// # Panics
    /// Panics on mismatched lengths, fewer than two pairs, or a
    /// non-positive value (log gains need positive metrics).
    pub fn new(parent: &[f64], change: &[f64], better: Better) -> Self {
        assert_eq!(parent.len(), change.len(), "unpaired samples");
        let n = parent.len();
        assert!(n >= 2, "need at least two pairs");
        let gains: Vec<f64> = parent
            .iter()
            .zip(change)
            .map(|(&p, &c)| {
                assert!(p > 0.0 && c > 0.0, "metrics must be positive");
                match better {
                    Better::Lower => (p / c).ln(),
                    Better::Higher => (c / p).ln(),
                }
            })
            .collect();
        let wins = gains.iter().filter(|&&g| g > 0.0).count();
        let losses = gains.iter().filter(|&&g| g < 0.0).count();
        let mean = gains.iter().sum::<f64>() / n as f64;
        let var = gains.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let se = (var / n as f64).sqrt();
        let t = if se > 0.0 {
            mean / se
        } else if mean == 0.0 {
            0.0
        } else {
            mean.signum() * f64::INFINITY
        };
        PairComparison {
            pairs: n,
            wins,
            losses,
            parent: quartiles(parent),
            change: quartiles(change),
            mean_log_gain: mean,
            t,
            t_crit: t_crit_95(n - 1),
            better,
        }
    }

    /// Whether the change may claim a gain: it won at least nine tenths of
    /// all pairs, its median is better than the parent's by more than the
    /// parent's own interquartile distance, and the paired t test on the
    /// log gains rejects "no change" at the finite-sample critical value.
    pub fn gain(&self) -> bool {
        let parent_iqr = self.parent[2] - self.parent[0];
        let improvement = match self.better {
            Better::Lower => self.parent[1] - self.change[1],
            Better::Higher => self.change[1] - self.parent[1],
        };
        10 * self.wins >= 9 * self.pairs && improvement > parent_iqr && self.t > self.t_crit
    }

    /// Whether the change's median is worse than the parent's by more than
    /// `bound` (a share of the parent's median) — a regression.
    pub fn regressed(&self, bound: f64) -> bool {
        self.better.worsening(self.parent[1], self.change[1]) > bound
    }
}
