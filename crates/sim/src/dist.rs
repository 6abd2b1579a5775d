//! Sampling distributions used by workloads and link models.
//!
//! The paper's evaluation drives each replicated server with an
//! *exponential* request arrival process ([`Exponential`]); link jitter is
//! modelled log-normally (heavy right tail, as reported for Internet
//! latencies), and key popularity uses a Zipf law. All samplers draw from
//! a caller-supplied [`SimRng`] so determinism is preserved.

use crate::rng::SimRng;

/// A distribution over non-negative floats.
pub trait Sample {
    /// Draw one value.
    fn sample(&self, rng: &mut SimRng) -> f64;
}

/// Exponential distribution with the given mean (not rate).
///
/// This is the inter-arrival distribution of a Poisson process — exactly
/// the "exponential random number generator" the paper used to generate
/// requests.
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Create with mean value `mean` (must be positive and finite).
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Exponential { mean }
    }

    /// The configured mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse-CDF sampling; 1 - u avoids ln(0).
        let u = rng.f64();
        -self.mean * (1.0 - u).ln()
    }
}

/// Log-normal distribution parameterized by the *median* and a shape
/// parameter `sigma` (the standard deviation of the underlying normal).
///
/// Used for link-latency jitter: most samples near the median, with a
/// heavy right tail of occasional slow deliveries.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create from the distribution median and shape `sigma >= 0`.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(
            median > 0.0 && median.is_finite(),
            "median must be positive"
        );
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "sigma must be non-negative"
        );
        LogNormal {
            mu: median.ln(),
            sigma,
        }
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// One standard-normal draw via Box–Muller.
pub fn standard_normal(rng: &mut SimRng) -> f64 {
    // Avoid u1 == 0 which would make ln blow up.
    let u1 = (1.0 - rng.f64()).max(f64::MIN_POSITIVE);
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Rank probabilities are `p(k) ∝ 1 / (k+1)^s`; sampling uses a
/// precomputed CDF with binary search, so draws are `O(log n)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Create over `n` ranks with exponent `s >= 0`. `s = 0` is uniform.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `0..n`.
    pub fn sample_rank(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        // partition_point: first index whose CDF value exceeds u.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

/// A two-state Markov-modulated Poisson process (bursty arrivals):
/// alternates between a "calm" and a "burst" state, each an exponential
/// arrival process with its own mean, with exponentially distributed
/// state holding times.
#[derive(Debug, Clone)]
pub struct Mmpp2 {
    calm: Exponential,
    burst: Exponential,
    hold_calm: Exponential,
    hold_burst: Exponential,
    in_burst: bool,
    state_left: f64,
}

impl Mmpp2 {
    /// Create with per-state mean inter-arrival times and mean state
    /// holding times (all in the same unit, typically milliseconds).
    pub fn new(calm_mean: f64, burst_mean: f64, hold_calm: f64, hold_burst: f64) -> Self {
        Mmpp2 {
            calm: Exponential::with_mean(calm_mean),
            burst: Exponential::with_mean(burst_mean),
            hold_calm: Exponential::with_mean(hold_calm),
            hold_burst: Exponential::with_mean(hold_burst),
            in_burst: false,
            state_left: 0.0,
        }
    }

    /// Draw the next inter-arrival gap, advancing the modulating chain.
    pub fn next_gap(&mut self, rng: &mut SimRng) -> f64 {
        if self.state_left <= 0.0 {
            self.in_burst = !self.in_burst;
            self.state_left = if self.in_burst {
                self.hold_burst.sample(rng)
            } else {
                self.hold_calm.sample(rng)
            };
        }
        let gap = if self.in_burst {
            self.burst.sample(rng)
        } else {
            self.calm.sample(rng)
        };
        self.state_left -= gap;
        gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(dist: &impl Sample, seed: u64, n: usize) -> f64 {
        let mut rng = SimRng::from_seed(seed);
        (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let dist = Exponential::with_mean(45.0);
        let m = mean_of(&dist, 7, 200_000);
        assert!((m - 45.0).abs() < 1.0, "mean = {m}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let dist = Exponential::with_mean(5.0);
        let mut rng = SimRng::from_seed(3);
        for _ in 0..10_000 {
            assert!(dist.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_mean() {
        let _ = Exponential::with_mean(0.0);
    }

    #[test]
    fn lognormal_median_is_roughly_right() {
        let dist = LogNormal::from_median(10.0, 0.5);
        let mut rng = SimRng::from_seed(4);
        let mut samples: Vec<f64> = (0..50_001).map(|_| dist.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 10.0).abs() < 0.5, "median = {median}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SimRng::from_seed(6);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let dist = Zipf::new(100, 1.0);
        let mut rng = SimRng::from_seed(8);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[dist.sample_rank(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[99]);
        // With s = 1 over 100 ranks, rank 0 holds ~19% of the mass.
        assert!(counts[0] > 8_000, "counts[0] = {}", counts[0]);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let dist = Zipf::new(10, 0.0);
        let mut rng = SimRng::from_seed(9);
        let mut counts = vec![0usize; 10];
        for _ in 0..100_000 {
            counts[dist.sample_rank(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn zipf_ranks_in_range() {
        let dist = Zipf::new(3, 2.0);
        let mut rng = SimRng::from_seed(10);
        for _ in 0..10_000 {
            assert!(dist.sample_rank(&mut rng) < 3);
        }
    }

    #[test]
    fn mmpp_produces_positive_gaps_and_bursts() {
        let mut mmpp = Mmpp2::new(50.0, 5.0, 500.0, 100.0);
        let mut rng = SimRng::from_seed(11);
        let gaps: Vec<f64> = (0..20_000).map(|_| mmpp.next_gap(&mut rng)).collect();
        assert!(gaps.iter().all(|&g| g >= 0.0));
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        // The blended mean must sit strictly between the two state means.
        assert!(mean > 5.0 && mean < 50.0, "mean = {mean}");
    }
}
