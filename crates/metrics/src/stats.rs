//! Streaming and exact sample statistics.

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn log_histogram_reports_underflow_as_zero() {
        let mut a = LogHistogram::new(1.0, 2.0, 8);
        a.record(0.5); // underflow
        a.record(3.0);
        a.record(3.0);
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
}
