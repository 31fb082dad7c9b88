//! Property tests for the statistics primitives.

use cocnet_stats::{mser, OnlineStats, Percentiles, Series};
use proptest::prelude::*;

proptest! {
    #[test]
    fn online_stats_match_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 2..400)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() <= 1e-4 * (1.0 + var.abs()));
        prop_assert_eq!(s.count(), xs.len() as u64);
        prop_assert!(s.min() <= s.mean() + 1e-9);
        prop_assert!(s.max() >= s.mean() - 1e-9);
    }

    #[test]
    fn online_stats_merge_is_order_insensitive(
        a in prop::collection::vec(-1e3f64..1e3, 1..100),
        b in prop::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let fill = |xs: &[f64]| {
            let mut s = OnlineStats::new();
            for &x in xs {
                s.push(x);
            }
            s
        };
        let mut ab = fill(&a);
        ab.merge(&fill(&b));
        let mut ba = fill(&b);
        ba.merge(&fill(&a));
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-6);
        prop_assert_eq!(ab.min(), ba.min());
        prop_assert_eq!(ab.max(), ba.max());
    }

    #[test]
    fn percentiles_are_monotone_in_q(
        xs in prop::collection::vec(-1e3f64..1e3, 1..200),
    ) {
        let mut p = Percentiles::new();
        for &x in &xs {
            p.record(x);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        let mut last = f64::NEG_INFINITY;
        for &q in &qs {
            let v = p.quantile(q).unwrap();
            prop_assert!(v >= last, "q={q}: {v} < {last}");
            last = v;
        }
        // Extremes match exact order statistics.
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        prop_assert_eq!(p.quantile(0.0).unwrap(), sorted[0]);
        prop_assert_eq!(p.quantile(1.0).unwrap(), *sorted.last().unwrap());
    }

    #[test]
    fn mser_truncation_is_in_first_half(
        xs in prop::collection::vec(0.0f64..100.0, 8..300),
    ) {
        if let Some(r) = mser(&xs) {
            prop_assert!(r.truncation < xs.len() / 2 + 1);
            prop_assert!(r.statistic.is_finite());
        }
    }

    #[test]
    fn series_interpolation_brackets(
        ys in prop::collection::vec(0.0f64..100.0, 2..50),
    ) {
        let mut s = Series::new("p");
        for (i, &y) in ys.iter().enumerate() {
            s.push(i as f64, y);
        }
        // Interpolating at a grid point returns the exact value.
        for (i, &y) in ys.iter().enumerate() {
            let v = s.interpolate(i as f64).unwrap();
            prop_assert!((v - y).abs() < 1e-9);
        }
        // Midpoints stay within the segment's bounds.
        for i in 0..ys.len() - 1 {
            let v = s.interpolate(i as f64 + 0.5).unwrap();
            let (lo, hi) = (ys[i].min(ys[i + 1]), ys[i].max(ys[i + 1]));
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }
}

// ---- constructed-sequence tests (deterministic, no proptest) ---------------
//
// The warm-up audit runs `mser5` on every audited run. These tests pin it
// on sequences with known structure: a transient riding on AR(1) noise
// with a known truncation point, and the stationary AR(1) stream alone.

/// Deterministic noise in [-0.5, 0.5): a multiplicative-congruential
/// chain, good enough to act as the AR(1) innovation sequence.
fn noise(i: u64) -> f64 {
    let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    z ^= z >> 33;
    z = z.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z ^= z >> 33;
    (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// x_{t+1} = phi * x_t + noise: the textbook autocorrelated process.
fn ar1(phi: f64, n: usize) -> Vec<f64> {
    let mut xs = Vec::with_capacity(n);
    let mut x = 0.0f64;
    for i in 0..n {
        x = phi * x + noise(i as u64);
        xs.push(x);
    }
    xs
}

#[test]
fn mser_recovers_a_known_truncation_point_on_ar1_noise() {
    // A decaying transient of ~150 samples riding on stationary AR(1)
    // noise: the scan must land near the end of the transient — neither 0
    // (missing it) nor deep into the stationary phase (over-truncating).
    let mut xs = ar1(0.5, 2_000);
    for (i, x) in xs.iter_mut().enumerate() {
        *x += 30.0 * (-(i as f64) / 40.0).exp();
    }
    let r = mser(&xs).unwrap();
    assert!(
        (60..=350).contains(&r.truncation),
        "truncation {}",
        r.truncation
    );
    // MSER-5 agrees in original-sample units (multiples of 5).
    let r5 = cocnet_stats::mser5(&xs).unwrap();
    assert_eq!(r5.truncation % 5, 0);
    assert!(
        (60..=400).contains(&r5.truncation),
        "mser5 truncation {}",
        r5.truncation
    );
}

#[test]
fn mser_on_stationary_ar1_keeps_nearly_everything() {
    let xs = ar1(0.5, 2_000);
    let r = mser(&xs).unwrap();
    assert!(r.truncation <= 100, "truncation {}", r.truncation);
}
