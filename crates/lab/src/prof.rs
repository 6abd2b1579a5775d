//! Scale-sweep harness for the marp-prof pipeline: the `sweep_smoke`
//! and `sweep_n3_n5_n9` rows of the experiment table.
//!
//! A sweep runs *the same scenario* at several replica counts and feeds
//! each run's trace, kernel statistics and paper metrics into
//! [`marp_obs::SweepPoint::measure`]. This module owns that glue: the
//! scenario grid lives here (next to [`Scenario`]), the folding
//! arithmetic lives in `marp-obs`, and `marp-trace diagnose` reads the
//! record back.

use crate::scenario::Scenario;
use crate::sweep::run_sweep_traced;
use crate::PAPER_SEEDS;
use marp_core::WIRE_TAG_SYNC;
use marp_obs::{SweepPoint, SweepReport};

/// What to run: replica counts, workload intensity, pooled seeds.
#[derive(Debug, Clone)]
pub(crate) struct SweepConfig {
    /// Replica counts to measure, e.g. `[3, 5, 9]`.
    ns: Vec<usize>,
    /// Mean inter-arrival time per client (ms).
    mean_ms: f64,
    /// Writes issued per client.
    requests_per_client: u64,
    /// Seeds pooled into each point.
    seeds: Vec<u64>,
}

impl SweepConfig {
    /// The default diagnosis sweep: N = 3/5/9 at the bench workload
    /// (mean 25 ms, 10 requests/client) over the paper's seed pool.
    /// The whole sweep takes about 0.15 s in a release build.
    pub(crate) fn full() -> Self {
        SweepConfig {
            ns: vec![3, 5, 9],
            mean_ms: 25.0,
            requests_per_client: 10,
            seeds: PAPER_SEEDS.to_vec(),
        }
    }

    /// A CI-sized sweep: N = 3/5 only, lighter workload, two seeds.
    /// Exercises the whole pipeline in a few seconds.
    pub(crate) fn smoke() -> Self {
        SweepConfig {
            ns: vec![3, 5],
            mean_ms: 25.0,
            requests_per_client: 4,
            seeds: vec![101, 202],
        }
    }
}

/// Run the configured grid (every `n × seed` pair in one parallel
/// fan-out), audit every run, and fold each replica count's runs into a
/// [`SweepPoint`]. Deterministic: same config + seeds → identical
/// report, including its rendered and JSON forms.
fn scale_sweep(config: &SweepConfig) -> SweepReport {
    let scenarios: Vec<Scenario> = config
        .ns
        .iter()
        .flat_map(|&n| config.seeds.iter().map(move |&seed| (n, seed)))
        .map(|(n, seed)| Scenario {
            requests_per_client: config.requests_per_client,
            ..Scenario::paper(n, config.mean_ms, seed)
        })
        .collect();
    let results = run_sweep_traced(&scenarios, None);
    for (outcome, _) in &results {
        outcome.audit.assert_ok();
    }
    let per_point = config.seeds.len();
    let points = config
        .ns
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let chunk = &results[i * per_point..(i + 1) * per_point];
            let runs = chunk.iter().map(|(o, t)| (t, &o.stats, &o.metrics));
            let mut point = SweepPoint::measure(n, &config.seeds, runs, WIRE_TAG_SYNC);
            for (outcome, _) in chunk {
                point.notices += outcome.mail.notices_sent;
                point.notice_bytes += outcome.mail.notice_bytes;
                point.notices_skipped += outcome.mail.notices_skipped;
                point.replies += outcome.mail.replies_sent;
                point.reply_bytes += outcome.mail.reply_bytes;
                point.claims_held += outcome.mail.claims_held;
            }
            point
        })
        .collect();
    SweepReport::new(points)
}

/// A sweep as it is recorded: the JSON document a `sweep_*` row prints
/// and `results/sweep_*.json` holds.
pub(crate) fn sweep_record(config: &SweepConfig) -> String {
    scale_sweep(config).to_json().render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_measures_both_points() {
        let report = scale_sweep(&SweepConfig::smoke());
        assert_eq!(report.points.len(), 2);
        for point in &report.points {
            assert!(point.commits > 0, "n={} recorded no commits", point.n);
            assert!(point.total_bytes > 0);
            assert!(point.migrations > 0);
            // Contended writers: waiters were notified, and every
            // notice byte is part of the total.
            assert!(point.notices > 0);
            assert!(point.notice_bytes + point.reply_bytes < point.total_bytes);
            // The clamped decomposition must survive the pooling: the
            // four phases sum to the total commit latency.
            assert!(
                (point.phase_sum_ms() - point.total_ms).abs() < 1e-6,
                "n={}: phases sum to {} but total is {}",
                point.n,
                point.phase_sum_ms(),
                point.total_ms
            );
        }
        assert!(report.points[1].total_ms > 0.0);
    }

    #[test]
    fn sweep_is_deterministic_across_runs() {
        let config = SweepConfig {
            ns: vec![3],
            mean_ms: 25.0,
            requests_per_client: 3,
            seeds: vec![7],
        };
        let a = scale_sweep(&config);
        let b = scale_sweep(&config);
        assert_eq!(a.points, b.points);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json().render(), b.to_json().render());
    }
}
