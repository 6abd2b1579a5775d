//! The percentile helper refuses a percentile with fewer than ten
//! samples beyond it; the median and minimum behave.

use marp_benchmark::stats::{median, minimum, percentile, TooFewSamples, MIN_BEYOND};

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled deterministically, so the helper has to sort.
    (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
}

#[test]
fn p95_needs_ten_samples_beyond_it() {
    // 200 samples: rank 190, ten beyond — the smallest set p95 accepts.
    assert_eq!(percentile(&ramp(200), 0.95), Ok(190.0));
    // 199 samples: rank 190, nine beyond.
    assert_eq!(
        percentile(&ramp(199), 0.95),
        Err(TooFewSamples {
            have: 199,
            beyond: 9
        })
    );
    // p99 of 200 samples has two beyond; it needs a thousand.
    assert!(percentile(&ramp(200), 0.99).is_err());
    assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
}

#[test]
fn the_benchmarks_smallest_pool_supports_p95_but_not_p99() {
    // cliff_n9 pools 12 seeds x 54 writes.
    let pool = ramp(648);
    assert_eq!(percentile(&pool, 0.95), Ok(616.0));
    assert!(percentile(&pool, 0.99).is_err());
}

#[test]
fn high_percentiles_count_above_and_low_ones_below() {
    assert_eq!(percentile(&ramp(21), 0.5), Ok(11.0));
    assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
    assert!(percentile(&ramp(19), 0.5).is_err());
    assert_eq!(
        percentile(&ramp(200), 0.05),
        Err(TooFewSamples {
            have: 200,
            beyond: 9
        })
    );
    assert_eq!(percentile(&ramp(220), 0.05), Ok(11.0));
    assert!(percentile(&[], 0.5).is_err());
    assert_eq!(MIN_BEYOND, 10);
}

#[test]
fn median_and_minimum_of_timings() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(minimum(&[3.0, 1.5, 2.0]), 1.5);
}
