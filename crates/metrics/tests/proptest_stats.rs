//! Property tests for the statistics primitives.

use marp_metrics::{LogHistogram, Samples};
use proptest::prelude::*;

proptest! {
    /// Sample quantiles are monotone in q and bounded by min/max.
    #[test]
    fn sample_quantiles_monotone(data in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let mut samples = Samples::new();
        for &x in &data {
            samples.push(x);
        }
        let min = samples.min().unwrap();
        let max = samples.max().unwrap();
        let mut previous = min;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = samples.quantile(q).unwrap();
            prop_assert!(v >= previous - 1e-12, "q={q}: {v} < {previous}");
            prop_assert!(v >= min && v <= max);
            previous = v;
        }
    }

    /// The log histogram's quantiles stay within one bucket's relative
    /// error of the exact nearest-rank quantiles (the histogram's own
    /// rank convention: the ⌈q·n⌉-th smallest value).
    #[test]
    fn log_histogram_tracks_exact_quantiles(
        data in proptest::collection::vec(0.01f64..1e5, 10..500),
    ) {
        let mut hist = LogHistogram::for_latency_ms();
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &x in &data {
            hist.record(x);
        }
        for &q in &[0.1, 0.5, 0.9] {
            let approx = hist.quantile(q).unwrap();
            let rank = ((data.len() as f64 * q).ceil() as usize).max(1) - 1;
            let truth = sorted[rank];
            // 5% geometric buckets: the reported bucket lower bound sits
            // within one bucket below the true value.
            prop_assert!(
                approx <= truth * 1.001 && approx >= truth / 1.06,
                "q={q}: approx {approx} vs exact {truth}"
            );
        }
        prop_assert_eq!(hist.total(), data.len() as u64);
    }

}
