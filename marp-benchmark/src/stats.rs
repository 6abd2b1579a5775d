//! Order statistics for the report: a percentile that refuses to be read
//! off too few samples, and the median / quartiles of repeated timings.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile was asked of a sample too small to support it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples available.
    pub have: usize,
    /// Samples strictly beyond the requested rank.
    pub beyond: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples leave {} beyond the percentile, fewer than {MIN_BEYOND}",
            self.have, self.beyond
        )
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `q ∈ (0, 1)` of `values`, or an error when
/// fewer than [`MIN_BEYOND`] samples lie on the far side of it (above it
/// for `q ≥ 0.5`, below it otherwise): a tail read off a handful of
/// samples is one sample's luck, not a percentile.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = if q >= 0.5 { n - rank.min(n) } else { rank - 1 };
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples { have: n, beyond });
    }
    Ok(sorted(values)[rank - 1])
}

/// Median of a non-empty set of repeated measurements (mean of the two
/// middle values when the count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of a non-empty set of repeated measurements.
pub fn minimum(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of nothing");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Mean of `values`, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
