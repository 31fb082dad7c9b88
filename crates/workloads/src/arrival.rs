//! Message generation: Poisson streams (paper assumption 1) and their
//! interrupted (on/off) variant.
//!
//! Each node generates messages independently; inter-arrival gaps are
//! exponential, sampled by inverse transform so the only dependency is a
//! uniform RNG. Every stream moves by one step, [`ArrivalSpec::next_after`],
//! from the time of its last arrival. A Poisson stream carries nothing
//! else, so an engine that already holds each node's pending arrival time
//! keeps no per-node stream state at all ([`ArrivalStreams`]); an on/off
//! stream also carries its [`OnOffPhase`].

use rand::Rng;

/// Samples an exponential inter-arrival gap with the given `rate` via
/// inverse transform: `−ln(1 − U)/rate` with `U ∈ [0, 1)`.
///
/// # Panics
/// Panics if `rate` is not finite and positive.
pub fn exponential_sample<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
    let u: f64 = rng.random();
    -(1.0 - u).ln() / rate
}

/// What an on/off stream carries between arrivals besides the time of its
/// last one: whether it is in an ON period, and when the current period
/// ends. The default is a fresh stream's: an OFF period ending at `t = 0`,
/// so the first step opens an ON period.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnOffPhase {
    end: f64,
    on: bool,
}

/// Specification of a per-node arrival process.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(deny_unknown_fields)]
pub enum ArrivalSpec {
    /// Plain Poisson at the given rate (the paper's assumption 1).
    Poisson {
        /// Messages per time unit.
        rate: f64,
    },
    /// Interrupted Poisson: `rate_on` during exponentially distributed ON
    /// periods of mean `mean_on`, silent for OFF periods of mean `mean_off`.
    ///
    /// With duty cycle `d = mean_on/(mean_on + mean_off)` the long-run mean
    /// rate is `rate_on·d`; holding the mean rate fixed while shrinking `d`
    /// makes the stream burstier — the time-domain counterpart of the
    /// paper's "non-uniform traffic" future work.
    OnOff {
        /// Rate while ON.
        rate_on: f64,
        /// Mean ON-period length.
        mean_on: f64,
        /// Mean OFF-period length.
        mean_off: f64,
    },
}

impl ArrivalSpec {
    /// Long-run mean rate.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalSpec::Poisson { rate } => rate,
            ArrivalSpec::OnOff {
                rate_on,
                mean_on,
                mean_off,
            } => rate_on * mean_on / (mean_on + mean_off),
        }
    }

    /// An on/off spec with the same mean rate as `rate` but the given duty
    /// cycle `d ∈ (0, 1]` and mean burst length (in messages).
    pub fn bursty(rate: f64, duty: f64, burst_messages: f64) -> Self {
        assert!((0.0..=1.0).contains(&duty) && duty > 0.0);
        if (duty - 1.0).abs() < f64::EPSILON {
            return ArrivalSpec::Poisson { rate };
        }
        let rate_on = rate / duty;
        let mean_on = burst_messages / rate_on;
        let mean_off = mean_on * (1.0 - duty) / duty;
        ArrivalSpec::OnOff {
            rate_on,
            mean_on,
            mean_off,
        }
    }

    /// Panics unless every rate and mean period is finite and positive.
    fn assert_valid(&self) {
        let positive = |x: f64, what: &str| assert!(x.is_finite() && x > 0.0, "{what}");
        match *self {
            ArrivalSpec::Poisson { rate } => positive(rate, "rate must be positive"),
            ArrivalSpec::OnOff {
                rate_on,
                mean_on,
                mean_off,
            } => {
                positive(rate_on, "rate_on must be positive");
                positive(mean_on, "mean_on must be positive");
                positive(mean_off, "mean_off must be positive");
            }
        }
    }

    /// Builds one stream, starting at `t = 0`.
    ///
    /// # Panics
    /// Panics unless every rate and mean period is finite and positive.
    pub fn build(&self) -> ArrivalProcess {
        self.assert_valid();
        ArrivalProcess {
            spec: *self,
            now: 0.0,
            phase: OnOffPhase::default(),
        }
    }

    /// The one step of every stream: the arrival after one at `now` (`0`
    /// for a stream that has not fired yet). A Poisson arrival is `now`
    /// plus one exponential gap and leaves `phase` alone. An on/off step
    /// draws in order: a new period whenever the current one has ended,
    /// and a gap at `rate_on` while ON, until an arrival falls inside an
    /// ON period.
    pub fn next_after<R: Rng + ?Sized>(
        &self,
        now: f64,
        phase: &mut OnOffPhase,
        rng: &mut R,
    ) -> f64 {
        let (rate_on, mean_on, mean_off) = match *self {
            ArrivalSpec::Poisson { rate } => return now + exponential_sample(rng, rate),
            ArrivalSpec::OnOff {
                rate_on,
                mean_on,
                mean_off,
            } => (rate_on, mean_on, mean_off),
        };
        let mut now = now;
        loop {
            if now >= phase.end {
                phase.on = !phase.on;
                let mean = if phase.on { mean_on } else { mean_off };
                phase.end = now + exponential_sample(rng, 1.0 / mean);
                continue;
            }
            if !phase.on {
                now = phase.end;
                continue;
            }
            let candidate = now + exponential_sample(rng, rate_on);
            if candidate <= phase.end {
                return candidate;
            }
            // The ON period ended before the next arrival.
            now = phase.end;
        }
    }
}

/// One node's arrival stream: yields successive absolute arrival times
/// starting from `t = 0`, by [`ArrivalSpec::next_after`] steps.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    spec: ArrivalSpec,
    now: f64,
    phase: OnOffPhase,
}

impl ArrivalProcess {
    /// Advances the stream and returns the next absolute arrival time.
    pub fn next_arrival<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.now = self.spec.next_after(self.now, &mut self.phase, rng);
        self.now
    }
}

/// The arrival streams of every node of a run, for a caller that holds
/// each node's last arrival time itself: they keep only what a stream
/// carries besides that time — nothing under Poisson, one [`OnOffPhase`]
/// per node under on/off.
#[derive(Debug, Clone)]
pub struct ArrivalStreams {
    spec: ArrivalSpec,
    phases: Vec<OnOffPhase>,
}

impl ArrivalStreams {
    /// The streams of `nodes` nodes, each starting at `t = 0`.
    ///
    /// # Panics
    /// Panics unless every rate and mean period is finite and positive.
    pub fn new(spec: ArrivalSpec, nodes: usize) -> Self {
        spec.assert_valid();
        let phases = match spec {
            ArrivalSpec::Poisson { .. } => Vec::new(),
            ArrivalSpec::OnOff { .. } => vec![OnOffPhase::default(); nodes],
        };
        Self { spec, phases }
    }

    /// The arrival of `node` after its last one at `now` (`0` before its
    /// first): the same step, and so the same draws, as the node's own
    /// [`ArrivalProcess`] would take.
    #[inline]
    pub fn next_after<R: Rng + ?Sized>(&mut self, node: usize, now: f64, rng: &mut R) -> f64 {
        let mut poisson = OnOffPhase::default();
        let phase = if self.phases.is_empty() {
            &mut poisson
        } else {
            &mut self.phases[node]
        };
        self.spec.next_after(now, phase, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn on_off(rate_on: f64, mean_on: f64, mean_off: f64) -> ArrivalSpec {
        ArrivalSpec::OnOff {
            rate_on,
            mean_on,
            mean_off,
        }
    }

    #[test]
    fn gaps_are_positive_and_increasing() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = ArrivalSpec::Poisson { rate: 0.5 }.build();
        let mut last = 0.0;
        for _ in 0..1000 {
            let t = s.next_arrival(&mut rng);
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn mean_gap_matches_rate() {
        let mut rng = StdRng::seed_from_u64(42);
        let rate = 0.25;
        let n = 200_000;
        let mut s = ArrivalSpec::Poisson { rate }.build();
        let mut last = 0.0;
        let mut sum = 0.0;
        for _ in 0..n {
            let t = s.next_arrival(&mut rng);
            sum += t - last;
            last = t;
        }
        let mean = sum / n as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean - expected).abs() / expected < 0.02,
            "mean gap {mean} vs expected {expected}"
        );
    }

    #[test]
    fn exponential_variance_matches() {
        // Var = 1/rate² for the exponential distribution.
        let mut rng = StdRng::seed_from_u64(3);
        let rate = 2.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| exponential_sample(&mut rng, rate)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((var - 0.25).abs() < 0.01, "variance {var} vs 0.25");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let mut sa = ArrivalSpec::Poisson { rate: 1.0 }.build();
        let mut sb = ArrivalSpec::Poisson { rate: 1.0 }.build();
        for _ in 0..100 {
            assert_eq!(sa.next_arrival(&mut a), sb.next_arrival(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        ArrivalSpec::Poisson { rate: 0.0 }.build();
    }

    #[test]
    fn onoff_mean_rate_matches_construction() {
        let spec = ArrivalSpec::bursty(1e-3, 0.25, 10.0);
        assert!((spec.mean_rate() - 1e-3).abs() < 1e-12);
        let ArrivalSpec::OnOff { rate_on, .. } = spec else {
            panic!("duty < 1 must build an on/off spec");
        };
        assert!((rate_on - 4e-3).abs() < 1e-12);
        // Duty 1.0 degenerates to Poisson.
        assert!(matches!(
            ArrivalSpec::bursty(1e-3, 1.0, 10.0),
            ArrivalSpec::Poisson { .. }
        ));
    }

    #[test]
    fn onoff_empirical_rate_converges() {
        let mut rng = StdRng::seed_from_u64(12);
        let spec = on_off(4e-3, 2_500.0, 7_500.0);
        assert!((spec.mean_rate() - 1e-3).abs() < 1e-12);
        let mut p = spec.build();
        let n = 100_000;
        let mut last = 0.0;
        for _ in 0..n {
            last = p.next_arrival(&mut rng);
        }
        let empirical = n as f64 / last;
        assert!(
            (empirical - 1e-3).abs() / 1e-3 < 0.05,
            "empirical rate {empirical}"
        );
    }

    #[test]
    fn onoff_arrivals_strictly_increase() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = on_off(0.1, 50.0, 200.0).build();
        let mut last = 0.0;
        for _ in 0..5_000 {
            let t = p.next_arrival(&mut rng);
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn onoff_is_burstier_than_poisson() {
        // Squared coefficient of variation of inter-arrival gaps: 1 for
        // Poisson, > 1 for the interrupted process at the same mean rate.
        let mut rng = StdRng::seed_from_u64(8);
        let cv2 = |mut next: Box<dyn FnMut(&mut StdRng) -> f64>, rng: &mut StdRng| {
            let n = 50_000;
            let mut last = 0.0;
            let mut gaps = Vec::with_capacity(n);
            for _ in 0..n {
                let t = next(rng);
                gaps.push(t - last);
                last = t;
            }
            let mean = gaps.iter().sum::<f64>() / n as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n as f64;
            var / (mean * mean)
        };
        let mut poisson = ArrivalSpec::Poisson { rate: 1e-3 }.build();
        let cv2_p = cv2(Box::new(move |r| poisson.next_arrival(r)), &mut rng);
        let mut onoff = on_off(1e-2, 1_000.0, 9_000.0).build();
        let cv2_b = cv2(Box::new(move |r| onoff.next_arrival(r)), &mut rng);
        assert!((cv2_p - 1.0).abs() < 0.1, "poisson cv² {cv2_p}");
        assert!(cv2_b > 2.0, "on/off cv² {cv2_b}");
    }

    #[test]
    fn arrival_process_enum_dispatch() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = ArrivalSpec::Poisson { rate: 0.5 }.build();
        let mut b = ArrivalSpec::bursty(0.5, 0.5, 5.0).build();
        assert!(p.next_arrival(&mut rng) > 0.0);
        assert!(b.next_arrival(&mut rng) > 0.0);
    }

    /// The stateful streams the step replaced, verbatim: a Poisson stream
    /// adds one gap to its own clock, an on/off stream walks its own
    /// clock through the periods.
    enum Reference {
        Poisson {
            rate: f64,
            now: f64,
        },
        OnOff {
            rate_on: f64,
            mean_on: f64,
            mean_off: f64,
            now: f64,
            phase_end: f64,
            on: bool,
        },
    }

    impl Reference {
        fn new(spec: ArrivalSpec) -> Self {
            match spec {
                ArrivalSpec::Poisson { rate } => Reference::Poisson { rate, now: 0.0 },
                ArrivalSpec::OnOff {
                    rate_on,
                    mean_on,
                    mean_off,
                } => Reference::OnOff {
                    rate_on,
                    mean_on,
                    mean_off,
                    now: 0.0,
                    phase_end: 0.0,
                    on: false,
                },
            }
        }

        fn next_arrival(&mut self, rng: &mut StdRng) -> f64 {
            match self {
                Reference::Poisson { rate, now } => {
                    *now += exponential_sample(rng, *rate);
                    *now
                }
                Reference::OnOff {
                    rate_on,
                    mean_on,
                    mean_off,
                    now,
                    phase_end,
                    on,
                } => loop {
                    if *now >= *phase_end {
                        *on = !*on;
                        let len = if *on {
                            exponential_sample(rng, 1.0 / *mean_on)
                        } else {
                            exponential_sample(rng, 1.0 / *mean_off)
                        };
                        *phase_end = *now + len;
                        continue;
                    }
                    if !*on {
                        *now = *phase_end;
                        continue;
                    }
                    let candidate = *now + exponential_sample(rng, *rate_on);
                    if candidate <= *phase_end {
                        *now = candidate;
                        return candidate;
                    }
                    *now = *phase_end;
                },
            }
        }
    }

    #[test]
    fn stepping_from_each_returned_time_reproduces_every_stream() {
        // Three nodes draw from one generator in a fixed interleaving, as
        // an engine's nodes do: the stateful reference, `ArrivalProcess`
        // and the per-node steps of `ArrivalStreams` — each stepped from
        // the time it returned last — must give the same bits and leave
        // the generator in the same state.
        let specs = [
            ArrivalSpec::Poisson { rate: 3e-4 },
            ArrivalSpec::bursty(3e-4, 0.2, 8.0),
            on_off(0.5, 3.0, 40.0),
        ];
        let order = [0usize, 2, 1, 1, 0, 2, 2, 0, 1];
        for spec in specs {
            let mut rngs = [0u8; 3].map(|_| StdRng::seed_from_u64(29));
            let mut reference: Vec<Reference> = (0..3).map(|_| Reference::new(spec)).collect();
            let mut processes: Vec<ArrivalProcess> = (0..3).map(|_| spec.build()).collect();
            let mut streams = ArrivalStreams::new(spec, 3);
            let mut last = [0.0f64; 3];
            for i in 0..12_000 {
                let node = order[i % order.len()];
                let want = reference[node].next_arrival(&mut rngs[0]);
                let process = processes[node].next_arrival(&mut rngs[1]);
                let step = streams.next_after(node, last[node], &mut rngs[2]);
                assert_eq!(process.to_bits(), want.to_bits(), "{spec:?} draw {i}");
                assert_eq!(step.to_bits(), want.to_bits(), "{spec:?} draw {i}");
                assert!(step > last[node]);
                last[node] = step;
            }
            assert_eq!(rngs[1], rngs[0], "{spec:?}: generator state");
            assert_eq!(rngs[2], rngs[0], "{spec:?}: generator state");
        }
    }

    #[test]
    fn poisson_streams_keep_no_per_node_state() {
        assert!(
            ArrivalStreams::new(ArrivalSpec::Poisson { rate: 1e-3 }, 1 << 20)
                .phases
                .is_empty()
        );
        let bursty = ArrivalStreams::new(on_off(1e-2, 10.0, 90.0), 5);
        assert_eq!(bursty.phases.len(), 5);
    }
}
