//! The rate ladder behind `lab.max_rate_wps`: the highest offered write
//! rate, on a fixed ladder, that meets a latency limit without a growing
//! backlog.

use crate::stats;

/// The latency limit on the pooled 95th percentile (ms, virtual).
pub const P95_LIMIT_MS: f64 = 50.0;
/// A rung has a growing backlog when the last quarter of its requests,
/// by issue order, waited more than this multiple of the first quarter.
pub const BACKLOG_RATIO: f64 = 1.5;
/// Per-client mean inter-arrival times of the ladder (ms), slowest first.
pub const LADDER_MEAN_MS: [f64; 10] = [
    200.0, 150.0, 100.0, 80.0, 60.0, 50.0, 40.0, 30.0, 25.0, 20.0,
];

/// Why a rung does not count as sustained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Refusal {
    /// Too few samples for a 95th percentile.
    TooFewSamples,
    /// The 95th percentile is over [`P95_LIMIT_MS`].
    OverLimit(f64),
    /// Latency grows through the run: last-quarter ÷ first-quarter mean.
    GrowingBacklog(f64),
}

/// Judge one rung from its latencies in issue order.
pub fn sustained(latencies_by_issue_ms: &[f64]) -> Result<(), Refusal> {
    let p95 = stats::percentile(latencies_by_issue_ms, 0.95).map_err(|_| Refusal::TooFewSamples)?;
    if p95 > P95_LIMIT_MS {
        return Err(Refusal::OverLimit(p95));
    }
    let quarter = latencies_by_issue_ms.len() / 4;
    let first = stats::mean(&latencies_by_issue_ms[..quarter]);
    let last = stats::mean(&latencies_by_issue_ms[latencies_by_issue_ms.len() - quarter..]);
    if last > BACKLOG_RATIO * first {
        return Err(Refusal::GrowingBacklog(last / first));
    }
    Ok(())
}

/// The outcome of a climb.
#[derive(Debug, Clone, PartialEq)]
pub struct Climb {
    /// The highest rate sustained, `None` when even the lowest is refused.
    pub best: Option<f64>,
    /// Every rung measured, with its verdict.
    pub rungs: Vec<(f64, Result<(), Refusal>)>,
}

/// Climb `rates` (ascending) to the last one sustained before the first
/// that is not. Rungs above the first refusal are not measured: once the
/// system is past its knee a higher rate only costs more to simulate.
pub fn max_sustained_rate(rates: &[f64], mut measure: impl FnMut(f64) -> Vec<f64>) -> Climb {
    let mut climb = Climb {
        best: None,
        rungs: Vec::new(),
    };
    for &rate in rates {
        let verdict = sustained(&measure(rate));
        climb.rungs.push((rate, verdict));
        if verdict.is_err() {
            break;
        }
        climb.best = Some(rate);
    }
    climb
}
