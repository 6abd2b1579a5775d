//! Arrival processes.
//!
//! The paper's evaluation drives each server with "an exponential random
//! number generator … requests were generated at different rates"; the
//! sweeps in Figures 2–4 vary the *mean inter-arrival time*. This module
//! wraps the distributions in `marp_sim::dist` as stateful arrival
//! generators with their own seeded RNG stream.

use marp_sim::dist::{Exponential, Mmpp2, Sample};
use marp_sim::SimRng;
use std::time::Duration;

/// A stream of inter-arrival gaps.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential gaps with the given mean (ms).
    /// The paper's generator.
    Exponential {
        /// Mean inter-arrival time in milliseconds.
        mean_ms: f64,
    },
    /// Bursty two-state MMPP: calm/burst exponential phases.
    Bursty {
        /// Mean gap in the calm state (ms).
        calm_mean_ms: f64,
        /// Mean gap in the burst state (ms).
        burst_mean_ms: f64,
        /// Mean calm-state duration (ms).
        hold_calm_ms: f64,
        /// Mean burst-state duration (ms).
        hold_burst_ms: f64,
    },
}

impl ArrivalProcess {
    /// Instantiate with a dedicated RNG stream.
    pub fn start(&self, rng: SimRng) -> ArrivalGen {
        let kind = match *self {
            ArrivalProcess::Exponential { mean_ms } => {
                GenKind::Exponential(Exponential::with_mean(mean_ms))
            }
            ArrivalProcess::Bursty {
                calm_mean_ms,
                burst_mean_ms,
                hold_calm_ms,
                hold_burst_ms,
            } => GenKind::Bursty(Mmpp2::new(
                calm_mean_ms,
                burst_mean_ms,
                hold_calm_ms,
                hold_burst_ms,
            )),
        };
        ArrivalGen { kind, rng }
    }
}

#[derive(Debug, Clone)]
enum GenKind {
    Exponential(Exponential),
    Bursty(Mmpp2),
}

/// A running arrival generator.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    kind: GenKind,
    rng: SimRng,
}

impl ArrivalGen {
    /// The next inter-arrival gap.
    pub fn next_gap(&mut self) -> Duration {
        let ms = match &mut self.kind {
            GenKind::Exponential(d) => d.sample(&mut self.rng),
            GenKind::Bursty(d) => d.next_gap(&mut self.rng),
        };
        Duration::from_nanos((ms.max(0.0) * 1e6).min(u64::MAX as f64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_matches_configuration() {
        let process = ArrivalProcess::Exponential { mean_ms: 45.0 };
        let mut gen = process.start(SimRng::from_seed(1));
        let n = 100_000;
        let total: f64 = (0..n).map(|_| gen.next_gap().as_secs_f64() * 1e3).sum();
        let mean = total / f64::from(n);
        assert!((mean - 45.0).abs() < 1.0, "mean = {mean}");
    }

    #[test]
    fn bursty_blend_sits_between_phases() {
        let process = ArrivalProcess::Bursty {
            calm_mean_ms: 50.0,
            burst_mean_ms: 5.0,
            hold_calm_ms: 500.0,
            hold_burst_ms: 100.0,
        };
        let mut gen = process.start(SimRng::from_seed(4));
        let n = 50_000;
        let total: f64 = (0..n).map(|_| gen.next_gap().as_secs_f64() * 1e3).sum();
        let mean = total / f64::from(n);
        assert!(mean > 5.0 && mean < 50.0, "mean = {mean}");
    }

    #[test]
    fn same_seed_same_stream() {
        let process = ArrivalProcess::Exponential { mean_ms: 10.0 };
        let mut a = process.start(SimRng::from_seed(9));
        let mut b = process.start(SimRng::from_seed(9));
        for _ in 0..100 {
            assert_eq!(a.next_gap(), b.next_gap());
        }
    }
}
