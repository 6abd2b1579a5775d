//! Run comparison (`marp-trace diff`).
//!
//! Compares two [`Profile`]s path-by-path or two [`SweepReport`]s
//! phase-by-phase, reporting which cost centres *grew in share* — the
//! question a perf PR gets judged on. Both comparisons render a text
//! table and a deterministic JSON document so CI can gate on the
//! machine-readable form.

use crate::json::{object, round_to, table, Field, Json, Unit};
use crate::profile::Profile;
use crate::sweep::{metrics, Column, SweepReport};
use std::collections::BTreeSet;

/// Share change of one kind path between two profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct PathDelta {
    /// The kind path (e.g. `dispatch;migrate`).
    pub path: String,
    /// Exclusive time in the old profile, ns.
    pub before_ns: u64,
    /// Exclusive time in the new profile, ns.
    pub after_ns: u64,
    /// Share of total exclusive time before (0..=1).
    pub before_share: f64,
    /// Share of total exclusive time after (0..=1).
    pub after_share: f64,
}

impl PathDelta {
    /// Signed share change (positive = the path grew in share).
    pub fn share_delta(&self) -> f64 {
        self.after_share - self.before_share
    }
}

/// A path's change, each field once for the table and the JSON document.
#[rustfmt::skip]
const DELTAS: [Field<PathDelta>; 5] = [
    ("before_ns",    "before_ms", 12, Unit::Ns,          |d| Some(d.before_ns as f64)),
    ("after_ns",     "after_ms",  12, Unit::Ns,          |d| Some(d.after_ns as f64)),
    ("before_share", "before%",    9, Unit::Share,       |d| Some(d.before_share)),
    ("after_share",  "after%",     9, Unit::Share,       |d| Some(d.after_share)),
    ("share_delta",  "Δshare",     8, Unit::ShareChange, |d| Some(d.share_delta())),
];

/// Path-level comparison of two profiles.
#[derive(Debug, Default, PartialEq)]
pub struct ProfileDiff {
    /// Every path present in either profile, sorted by absolute share
    /// change descending (ties by path).
    pub paths: Vec<PathDelta>,
}

impl ProfileDiff {
    /// Compare `before` against `after`.
    pub fn between(before: &Profile, after: &Profile) -> Self {
        let before_total = before.total_excl_ns().max(1) as f64;
        let after_total = after.total_excl_ns().max(1) as f64;
        let all_paths: BTreeSet<&String> =
            before.by_path.keys().chain(after.by_path.keys()).collect();
        let mut paths: Vec<PathDelta> = all_paths
            .into_iter()
            .map(|path| {
                let b = before.by_path.get(path).map(|s| s.excl_ns).unwrap_or(0);
                let a = after.by_path.get(path).map(|s| s.excl_ns).unwrap_or(0);
                PathDelta {
                    path: path.clone(),
                    before_ns: b,
                    after_ns: a,
                    // 6 decimals keep the output byte-stable and small.
                    before_share: round_to(b as f64 / before_total, 6),
                    after_share: round_to(a as f64 / after_total, 6),
                }
            })
            .collect();
        paths.sort_by(|x, y| {
            y.share_delta()
                .abs()
                .partial_cmp(&x.share_delta().abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| x.path.cmp(&y.path))
        });
        ProfileDiff { paths }
    }

    /// Render the comparison table.
    pub fn render(&self) -> String {
        table(
            ("path", 48),
            &DELTAS,
            self.paths.iter().map(|d| (d.path.as_str(), d)),
        )
    }

    /// Serialize as deterministic JSON (schema
    /// `marp-prof/profile-diff/v1`).
    pub fn to_json(&self) -> Json {
        let rows = self.paths.iter().map(|d| {
            let mut row = object(&DELTAS, d);
            row.insert(String::from("path"), Json::Str(d.path.clone()));
            Json::Obj(row)
        });
        Json::obj([
            (
                "schema",
                Json::Str(String::from("marp-prof/profile-diff/v1")),
            ),
            ("paths", Json::Arr(rows.collect())),
        ])
    }
}

/// Exponent and top-point share change of one metric between two
/// sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name (see [`metrics`]).
    pub metric: String,
    /// Fitted growth exponent before, if defined.
    pub before_k: Option<f64>,
    /// Fitted growth exponent after, if defined.
    pub after_k: Option<f64>,
    /// Per-commit value at the largest common replica count, before.
    pub before_top: f64,
    /// Per-commit value at the largest common replica count, after.
    pub after_top: f64,
}

/// A metric's change, each field once for the table and the JSON document.
#[rustfmt::skip]
const METRIC_DELTAS: [Field<MetricDelta>; 4] = [
    ("before_k",   "k_before",       9, Unit::Exponent, |m| m.before_k),
    ("after_k",    "k_after",        9, Unit::Exponent, |m| m.after_k),
    ("before_top", "before/commit", 14, Unit::Milli,    |m| Some(m.before_top)),
    ("after_top",  "after/commit",  14, Unit::Milli,    |m| Some(m.after_top)),
];

/// Phase-level comparison of two sweeps.
#[derive(Debug, Default, PartialEq)]
pub struct SweepDiff {
    /// Largest replica count present in both sweeps (0 when disjoint).
    pub top_n: usize,
    /// One row per metric in [`metrics`] order.
    pub metrics: Vec<MetricDelta>,
}

impl SweepDiff {
    /// Compare `before` against `after`.
    pub fn between(before: &SweepReport, after: &SweepReport) -> Self {
        let top_n = before
            .points
            .iter()
            .map(|p| p.n)
            .filter(|n| after.points.iter().any(|p| p.n == *n))
            .max()
            .unwrap_or(0);
        let value_at = |report: &SweepReport, column: &Column| -> f64 {
            report
                .points
                .iter()
                .find(|p| p.n == top_n)
                .map(|p| round_to(p.metric(column), 3))
                .unwrap_or(0.0)
        };
        let metrics = metrics()
            .map(|(name, column)| MetricDelta {
                metric: String::from(name),
                before_k: before.exponent(name),
                after_k: after.exponent(name),
                before_top: value_at(before, column),
                after_top: value_at(after, column),
            })
            .collect();
        SweepDiff { top_n, metrics }
    }

    /// Metrics whose growth exponent increased by more than
    /// `threshold`.
    pub fn steepened(&self, threshold: f64) -> Vec<&MetricDelta> {
        self.metrics
            .iter()
            .filter(|m| match (m.before_k, m.after_k) {
                (Some(b), Some(a)) => a - b > threshold,
                (None, Some(a)) => a > threshold,
                (Some(..), None) | (None, None) => false,
            })
            .collect()
    }

    /// Render the comparison table.
    pub fn render(&self) -> String {
        let rows = self.metrics.iter().map(|m| (m.metric.as_str(), m));
        format!(
            "comparison at n={} (largest common replica count):\n{}",
            self.top_n,
            table(("metric", 16), &METRIC_DELTAS, rows)
        )
    }

    /// Serialize as deterministic JSON (schema `marp-prof/sweep-diff/v1`).
    pub fn to_json(&self) -> Json {
        let rows = self.metrics.iter().map(|m| {
            let mut row = object(&METRIC_DELTAS, m);
            row.insert(String::from("metric"), Json::Str(m.metric.clone()));
            Json::Obj(row)
        });
        Json::obj([
            ("schema", Json::Str(String::from("marp-prof/sweep-diff/v1"))),
            ("top_n", Json::Num(self.top_n as f64)),
            ("metrics", Json::Arr(rows.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PathStats;
    use crate::sweep::SweepPoint;

    fn profile_with(paths: &[(&str, u64)]) -> Profile {
        let mut profile = Profile::default();
        for &(path, excl) in paths {
            profile.by_path.insert(
                String::from(path),
                PathStats {
                    count: 1,
                    open: 0,
                    incl_ns: excl,
                    excl_ns: excl,
                    bytes: 0,
                },
            );
        }
        profile
    }

    #[test]
    fn grown_paths_rank_first_and_cross_threshold() {
        let before = profile_with(&[("dispatch", 600), ("dispatch;migrate", 400)]);
        let after = profile_with(&[("dispatch", 200), ("dispatch;migrate", 800)]);
        let diff = ProfileDiff::between(&before, &after);
        assert_eq!(diff.paths[0].path, "dispatch;migrate");
        assert!(diff.paths[0].share_delta() > 0.39);
        assert!(diff.paths[1].share_delta() < 0.0);
    }

    #[test]
    fn paths_missing_on_one_side_still_appear() {
        let before = profile_with(&[("request", 100)]);
        let after = profile_with(&[("request", 50), ("request;read", 50)]);
        let diff = ProfileDiff::between(&before, &after);
        assert_eq!(diff.paths.len(), 2);
        let new_path = diff
            .paths
            .iter()
            .find(|d| d.path == "request;read")
            .unwrap();
        assert_eq!(new_path.before_ns, 0);
        assert_eq!(new_path.after_share, 0.5);
    }

    #[test]
    fn profile_diff_json_is_stable() {
        let before = profile_with(&[("request", 100)]);
        let after = profile_with(&[("request", 200)]);
        let a = ProfileDiff::between(&before, &after).to_json().render();
        let b = ProfileDiff::between(&before, &after).to_json().render();
        assert_eq!(a, b);
        assert!(a.contains("marp-prof/profile-diff/v1"));
    }

    fn sweep(power: f64) -> SweepReport {
        let point = |n: usize| {
            let v = (n as f64).powf(power);
            SweepPoint {
                n,
                seeds: vec![1],
                commits: 10,
                total_ms: 10.0 * v,
                queueing_ms: 1.0 * v,
                network_ms: 2.0 * v,
                lock_wait_ms: 6.0 * v,
                quorum_wait_ms: 1.0 * v,
                migrations: (10.0 * v) as u64,
                migrated_bytes: (100.0 * v) as u64,
                gossip_bytes: (10.0 * v) as u64,
                total_bytes: (200.0 * v) as u64,
                messages: (20.0 * v) as u64,
                lt_entries_carried: (5.0 * v) as u64,
                ..SweepPoint::default()
            }
        };
        SweepReport::new(vec![point(3), point(5), point(9)])
    }

    #[test]
    fn sweep_diff_reports_steepened_exponents() {
        let before = sweep(1.0);
        let after = sweep(2.0);
        let diff = SweepDiff::between(&before, &after);
        assert_eq!(diff.top_n, 9);
        let steepened = diff.steepened(0.5);
        assert!(steepened.iter().any(|m| m.metric == "lock-wait-ms"));
        let same = SweepDiff::between(&before, &sweep(1.0));
        assert!(same.steepened(0.5).is_empty());
    }

    #[test]
    fn sweep_diff_render_and_json_name_every_metric() {
        let diff = SweepDiff::between(&sweep(1.0), &sweep(1.5));
        let text = diff.render();
        let json = diff.to_json().render();
        for (name, _) in metrics() {
            assert!(text.contains(name), "render missing {name}");
            assert!(json.contains(name), "json missing {name}");
        }
    }
}
