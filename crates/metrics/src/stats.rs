//! Streaming and exact sample statistics.

/// Welford's online mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Merge another accumulator (parallel sweeps combine shards).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        *self = Welford {
            count: total,
            mean,
            m2,
        };
    }
}

/// An exact sample set: stores every observation, answers quantiles by
/// sorting on demand. Right-sized for simulation runs (≤ millions of
/// samples); the log-bucket histogram covers bigger streams.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample mean, if any.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Quantile `q ∈ [0, 1]` by nearest-rank, if any samples exist.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.values.len() as f64 - 1.0) * q).round() as usize;
        Some(self.values[idx])
    }

    /// Median.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Minimum.
    pub fn min(&mut self) -> Option<f64> {
        self.quantile(0.0)
    }

    /// Maximum.
    pub fn max(&mut self) -> Option<f64> {
        self.quantile(1.0)
    }

    /// Merge another sample set.
    pub fn merge(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Raw values (unsorted order not guaranteed).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// A log-bucketed histogram over positive values: buckets grow
/// geometrically, giving ~5% relative resolution across nine decades in
/// a few hundred fixed slots.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    underflow: u64,
    min_value: f64,
    growth: f64,
}

impl LogHistogram {
    /// Histogram covering `[min_value, min_value · growth^buckets)`.
    pub fn new(min_value: f64, growth: f64, buckets: usize) -> Self {
        assert!(min_value > 0.0 && growth > 1.0 && buckets > 0);
        LogHistogram {
            counts: vec![0; buckets],
            total: 0,
            underflow: 0,
            min_value,
            growth,
        }
    }

    /// Default: 0.001 ms to ~2800 s at 5% resolution.
    pub fn for_latency_ms() -> Self {
        Self::new(0.001, 1.05, 440)
    }

    fn bucket_of(&self, x: f64) -> Option<usize> {
        if x < self.min_value {
            return None;
        }
        let idx = (x / self.min_value).ln() / self.growth.ln();
        Some((idx as usize).min(self.counts.len() - 1))
    }

    /// Record an observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        match self.bucket_of(x) {
            Some(idx) => self.counts[idx] += 1,
            None => self.underflow += 1,
        }
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Approximate quantile (bucket lower bound).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = ((self.total as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = self.underflow;
        if seen >= target && self.underflow > 0 {
            return Some(0.0);
        }
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Some(self.min_value * self.growth.powi(idx as i32));
            }
        }
        Some(self.min_value * self.growth.powi(self.counts.len() as i32))
    }

    /// Merge a compatible histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.counts.len(), other.counts.len());
        assert_eq!(self.min_value, other.min_value);
        assert_eq!(self.growth, other.growth);
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.underflow += other.underflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic data set is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut whole = Welford::new();
        for i in 0..50 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            whole.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_empty_edge_cases() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        let mut a = Welford::new();
        a.merge(&Welford::new());
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn samples_quantiles() {
        let mut s = Samples::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(s.quantile(0.25), Some(2.0));
    }

    #[test]
    fn samples_empty() {
        let mut s = Samples::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.median(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn samples_merge() {
        let mut a = Samples::new();
        a.push(1.0);
        let mut b = Samples::new();
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.mean(), Some(2.0));
    }

    #[test]
    fn log_histogram_quantiles_are_close() {
        let mut h = LogHistogram::for_latency_ms();
        for i in 1..=1000 {
            h.record(i as f64 / 10.0); // 0.1 .. 100.0 ms uniform
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 50.0).abs() / 50.0 < 0.10, "median = {median}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 99.0).abs() / 99.0 < 0.10, "p99 = {p99}");
        assert_eq!(h.total(), 1000);
    }

    #[test]
    fn log_histogram_underflow_and_merge() {
        let mut a = LogHistogram::new(1.0, 2.0, 8);
        a.record(0.5); // underflow
        a.record(3.0);
        let mut b = LogHistogram::new(1.0, 2.0, 8);
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.quantile(0.01), Some(0.0)); // underflow reported as 0
    }

    #[test]
    fn log_histogram_clamps_overflow() {
        let mut h = LogHistogram::new(1.0, 2.0, 4);
        h.record(1e12); // way past the last bucket
        assert_eq!(h.total(), 1);
        assert!(h.quantile(1.0).unwrap() >= 8.0);
    }

    #[test]
    fn log_histogram_empty_has_no_quantiles() {
        let h = LogHistogram::for_latency_ms();
        assert_eq!(h.total(), 0);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn log_histogram_single_sample_answers_every_quantile() {
        let mut h = LogHistogram::for_latency_ms();
        h.record(12.5);
        // With one sample, every positive quantile lands in its bucket:
        // the answer is the bucket lower bound, within one growth step
        // of the recorded value.
        for q in [0.01, 0.5, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((12.5 / 1.05 / 1.05..=12.5).contains(&v), "q={q} gave {v}");
        }
        // q = 0 asks for rank 0 and degenerates to the histogram floor —
        // defined (Some), just not tied to the sample.
        assert!(h.quantile(0.0).unwrap() <= 12.5);
    }

    #[test]
    fn log_histogram_merge_is_associative_across_shards() {
        // Three sweep shards, merged in both groupings, must agree on
        // totals and every quantile.
        let shard = |seed: u64| {
            let mut h = LogHistogram::for_latency_ms();
            let mut x = seed;
            for _ in 0..200 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                h.record(0.01 + (x % 100_000) as f64 / 100.0);
            }
            h
        };
        let (a, b, c) = (shard(1), shard(2), shard(3));

        let mut left = a.clone(); // (a ⊕ b) ⊕ c
        left.merge(&b);
        left.merge(&c);
        let mut right = b.clone(); // a ⊕ (b ⊕ c)
        right.merge(&c);
        let mut right_total = a.clone();
        right_total.merge(&right);

        assert_eq!(left.total(), 600);
        assert_eq!(left.total(), right_total.total());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(left.quantile(q), right_total.quantile(q), "q={q}");
        }
        // Merging an empty histogram is the identity.
        let mut with_empty = left.clone();
        with_empty.merge(&LogHistogram::for_latency_ms());
        assert_eq!(with_empty.quantile(0.5), left.quantile(0.5));
        assert_eq!(with_empty.total(), left.total());
    }

    #[test]
    #[should_panic]
    fn log_histogram_merge_rejects_mismatched_configs() {
        let mut a = LogHistogram::new(0.001, 1.05, 100);
        let b = LogHistogram::new(0.01, 1.05, 100);
        a.merge(&b);
    }
}
