//! Scale-sweep cost attribution (`marp-trace sweep`).
//!
//! One [`SweepPoint`] summarizes the same scenario run at one replica
//! count: the four critical-path phase totals (which by the clamped
//! decomposition of [`crate::critical`] sum exactly to total commit
//! latency), byte accounting split out of the kernel's per-wire-tag
//! buckets, migration counts, the locking-knowledge entries agents
//! carried, the servers' own agent-mail counters (change notices
//! pushed and skipped, `LlInfo` replies), and how the lock changed
//! hands (claims held behind a committing winner, claims aborted). A
//! [`SweepReport`] strings points over N and fits a growth exponent per
//! per-commit metric (the slope of log cost against log N), which is
//! what the [`crate::diagnose`] rules run on.

use crate::critical::CriticalPathReport;
use crate::json::Json;
use marp_metrics::PaperMetrics;
use marp_sim::{RunStats, TraceEvent, TraceLog};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The `Custom` trace-event kind the agent runtime emits per migration
/// with the number of locking-knowledge entries the shipped state
/// carried.
pub const LT_ENTRIES_KIND: &str = "lt-entries-carried";

/// Its companion: the distinct agent ids that state spelled out (the
/// roster of the shipped Locking Table). Entries are logical and cost a
/// byte each; ids are what sets the bytes.
pub const LT_IDS_KIND: &str = "lt-ids-carried";

/// Aggregated measurements of one sweep point (one replica count,
/// pooled over its seeds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepPoint {
    /// Replica count.
    pub n: usize,
    /// Seeds pooled into this point.
    pub seeds: Vec<u64>,
    /// Committed writes.
    pub commits: u64,
    /// Summed end-to-end commit latency, ms.
    pub total_ms: f64,
    /// Queueing phase total, ms.
    pub queueing_ms: f64,
    /// Network (agent migration) phase total, ms.
    pub network_ms: f64,
    /// Lock-wait phase total, ms.
    pub lock_wait_ms: f64,
    /// Quorum-wait phase total, ms.
    pub quorum_wait_ms: f64,
    /// Completed agent migrations.
    pub migrations: u64,
    /// Serialized agent-state bytes shipped (includes retries).
    pub migrated_bytes: u64,
    /// Bytes on the anti-entropy (gossip reconciliation) channel.
    pub gossip_bytes: u64,
    /// All bytes submitted to the transport.
    pub total_bytes: u64,
    /// Messages submitted to the transport.
    pub messages: u64,
    /// Locking-knowledge entries carried across all migrations.
    pub lt_entries_carried: u64,
    /// Distinct agent ids those carried tables spelled out.
    pub lt_ids_carried: u64,
    /// COMMIT change notices servers pushed to the queued agents they
    /// host. The five mail fields and `claims_held` are the servers' own
    /// counters, not trace-derived: [`Self::measure`] leaves them zero
    /// and the harness that owns the nodes adds them.
    pub notices: u64,
    /// Agent-reply payload bytes of those notices.
    pub notice_bytes: u64,
    /// Notices not sent because the agent, though queued at the server,
    /// is hosted elsewhere (its own host tells it) or has departed.
    pub notices_skipped: u64,
    /// `LlInfo` replies to parked agents' `LlQuery` re-polls.
    pub replies: u64,
    /// Agent-reply payload bytes of those replies.
    pub reply_bytes: u64,
    /// UPDATE claims servers held behind the committing winner's
    /// reservation instead of refusing (the pipelined handoff at work).
    pub claims_held: u64,
    /// Claims that aborted (`WinAborted`): each costs a RELEASE
    /// broadcast and a second UPDATE round.
    pub aborted_claims: u64,
}

/// Round to microsecond precision so rendered/JSON output is compact
/// and byte-stable.
fn round_us(ms: f64) -> f64 {
    (ms * 1000.0).round() / 1000.0
}

impl SweepPoint {
    /// Measure one point from its runs' traces and kernel stats.
    /// `gossip_tag` is the leading wire-tag byte of the anti-entropy
    /// channel (`marp_core::WIRE_TAG_SYNC` for MARP clusters).
    pub fn measure(
        n: usize,
        seeds: &[u64],
        traces: &[&TraceLog],
        stats: &[RunStats],
        gossip_tag: u8,
    ) -> SweepPoint {
        let mut point = SweepPoint {
            n,
            seeds: seeds.to_vec(),
            ..SweepPoint::default()
        };
        for s in stats {
            point.migrated_bytes += s.agent_bytes_migrated;
            point.gossip_bytes += s.bytes_for_kind(gossip_tag);
            point.total_bytes += s.bytes_sent;
            point.messages += s.messages_sent;
        }
        for trace in traces {
            let report = CriticalPathReport::from_trace(trace);
            let (total, queueing, network, lock_wait, quorum_wait) = report.totals();
            point.total_ms += total;
            point.queueing_ms += queueing;
            point.network_ms += network;
            point.lock_wait_ms += lock_wait;
            point.quorum_wait_ms += quorum_wait;
            let paper = PaperMetrics::from_trace(trace);
            point.commits += paper.completed;
            point.migrations += paper.migrations;
            point.aborted_claims += paper.aborted_claims;
            for rec in trace.records() {
                if let TraceEvent::Custom { kind, a, b: _ } = rec.event {
                    if kind == LT_ENTRIES_KIND {
                        point.lt_entries_carried += a;
                    } else if kind == LT_IDS_KIND {
                        point.lt_ids_carried += a;
                    }
                }
            }
        }
        point.queueing_ms = round_us(point.queueing_ms);
        point.network_ms = round_us(point.network_ms);
        point.lock_wait_ms = round_us(point.lock_wait_ms);
        point.quorum_wait_ms = round_us(point.quorum_wait_ms);
        // Re-derive the total from the rounded phases so the clamped
        // decomposition (phases sum exactly to the total) survives the
        // per-field rounding; the drift vs the raw total is < 2 µs.
        point.total_ms = round_us(point.phase_sum_ms());
        point
    }

    /// Sum of the four phase buckets, ms (equals [`Self::total_ms`] up
    /// to the microsecond rounding — the clamped-decomposition
    /// invariant).
    pub fn phase_sum_ms(&self) -> f64 {
        self.queueing_ms + self.network_ms + self.lock_wait_ms + self.quorum_wait_ms
    }

    /// Divide a raw total by the commit count (0 when nothing committed).
    pub fn per_commit(&self, value: f64) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            value / self.commits as f64
        }
    }

    /// One of the [`metrics`]: the column's total per commit.
    pub fn metric(&self, column: &Column) -> f64 {
        self.per_commit((column.get)(self))
    }
}

/// Extracts one scalar from a sweep point.
pub type MetricFn = fn(&SweepPoint) -> f64;

/// One numeric field of a [`SweepPoint`], declared once in `COLUMNS`:
/// the table, the JSON form and the fitted per-commit metrics all read
/// that list.
pub struct Column {
    /// Field name, which is also its JSON key.
    key: &'static str,
    /// Decimals it prints with: 3 for milliseconds, 0 for a count.
    decimals: usize,
    /// Where `render`'s table shows it: position, header, width.
    table: Option<(usize, &'static str, usize)>,
    /// Name of the per-commit metric a growth exponent is fitted to.
    metric: Option<&'static str>,
    /// A sweep recorded before the field existed lacks it: read as 0,
    /// so old and new sweeps still diff.
    optional: bool,
    get: MetricFn,
    set: fn(&mut SweepPoint, f64),
}

macro_rules! columns {
    ($($field:ident: $decimals:expr, $table:expr, $metric:expr, $optional:expr;)*) => {
        &[$(Column {
            key: stringify!($field),
            decimals: $decimals,
            table: $table,
            metric: $metric,
            optional: $optional,
            get: |p| p.$field as f64,
            set: |p, value| p.$field = value as _,
        }),*]
    };
}

const MS: usize = 3;
const COUNT: usize = 0;

/// Every numeric field, in the presentation order of the per-commit
/// metrics (the table places its columns by position; `phase_sum`, at
/// 12, is derived and not stored).
#[rustfmt::skip]
const COLUMNS: &[Column] = columns! {
    // field            unit   table: at, header, width         per-commit metric        optional
    n:                  COUNT, Some((0, "n", 3)),               None,                    false;
    commits:            COUNT, Some((1, "commits", 8)),         None,                    false;
    total_ms:           MS,    Some((2, "total_ms", 12)),       Some("total-ms"),        false;
    queueing_ms:        MS,    Some((3, "queueing", 11)),       Some("queueing-ms"),     false;
    network_ms:         MS,    Some((4, "network", 11)),        Some("network-ms"),      false;
    lock_wait_ms:       MS,    Some((5, "lock_wait", 11)),      Some("lock-wait-ms"),    false;
    quorum_wait_ms:     MS,    Some((6, "quorum_wait", 11)),    Some("quorum-wait-ms"),  false;
    total_bytes:        COUNT, Some((8, "bytes", 12)),          Some("bytes"),           false;
    migrated_bytes:     COUNT, None,                            Some("migrated-bytes"),  false;
    gossip_bytes:       COUNT, Some((9, "gossip_b", 12)),       Some("gossip-bytes"),    false;
    messages:           COUNT, None,                            Some("messages"),        false;
    migrations:         COUNT, Some((7, "migrations", 10)),     Some("migrations"),      false;
    lt_entries_carried: COUNT, Some((10, "lt_entries", 10)),    Some("lt-entries"),      false;
    lt_ids_carried:     COUNT, Some((11, "lt_ids", 8)),         Some("lt-ids"),          true;
    notices:            COUNT, Some((13, "notices", 9)),        Some("notices"),         true;
    notice_bytes:       COUNT, Some((14, "notice_b", 10)),      Some("notice-bytes"),    true;
    notices_skipped:    COUNT, Some((15, "skipped", 9)),        Some("notices-skipped"), true;
    replies:            COUNT, Some((16, "replies", 9)),        Some("replies"),         true;
    reply_bytes:        COUNT, Some((17, "reply_b", 11)),       Some("reply-bytes"),     true;
    claims_held:        COUNT, Some((18, "held", 8)),           Some("held"),            true;
    aborted_claims:     COUNT, Some((19, "aborted", 8)),        Some("aborted-claims"),  true;
};

/// The per-commit metrics a sweep fits growth exponents for, in
/// presentation order.
pub fn metrics() -> impl Iterator<Item = (&'static str, &'static Column)> {
    COLUMNS.iter().filter_map(|c| Some((c.metric?, c)))
}

/// A sweep over replica counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepReport {
    /// Points in ascending replica-count order.
    pub points: Vec<SweepPoint>,
}

/// Least-squares slope of `ln(v)` against `ln(n)`: the growth exponent
/// of `v ∝ n^k`. `None` with fewer than two positive samples.
fn fit_exponent(samples: &[(f64, f64)]) -> Option<f64> {
    let valid: Vec<(f64, f64)> = samples
        .iter()
        .filter(|&&(n, v)| n > 0.0 && v > 0.0)
        .map(|&(n, v)| (n.ln(), v.ln()))
        .collect();
    if valid.len() < 2 {
        return None;
    }
    let count = valid.len() as f64;
    let mean_x = valid.iter().map(|&(x, _)| x).sum::<f64>() / count;
    let mean_y = valid.iter().map(|&(_, y)| y).sum::<f64>() / count;
    let sxx: f64 = valid.iter().map(|&(x, _)| (x - mean_x).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = valid
        .iter()
        .map(|&(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    Some((sxy / sxx * 10_000.0).round() / 10_000.0)
}

impl SweepReport {
    /// Build a report from measured points (sorted by replica count).
    pub fn new(mut points: Vec<SweepPoint>) -> Self {
        points.sort_by_key(|p| p.n);
        SweepReport { points }
    }

    /// The point with the highest replica count.
    pub fn top_point(&self) -> Option<&SweepPoint> {
        self.points.last()
    }

    /// Fitted growth exponent of one named per-commit metric.
    pub fn exponent(&self, metric: &str) -> Option<f64> {
        let (_, column) = metrics().find(|(name, _)| *name == metric)?;
        self.fit(column)
    }

    fn fit(&self, column: &Column) -> Option<f64> {
        let samples: Vec<(f64, f64)> = self
            .points
            .iter()
            .map(|p| (p.n as f64, p.metric(column)))
            .collect();
        fit_exponent(&samples)
    }

    /// All `(metric, exponent)` rows in [`metrics`] order.
    pub fn exponents(&self) -> Vec<(&'static str, Option<f64>)> {
        metrics()
            .map(|(name, column)| (name, self.fit(column)))
            .collect()
    }

    /// Render the per-phase scaling table plus the fitted exponents.
    pub fn render(&self) -> String {
        // (position, header, width, decimals, value), by position.
        let mut table: Vec<(usize, &str, usize, usize, MetricFn)> =
            vec![(12, "phase_sum", 10, MS, SweepPoint::phase_sum_ms)];
        table.extend(COLUMNS.iter().filter_map(|c| {
            let (at, header, width) = c.table?;
            Some((at, header, width, c.decimals, c.get))
        }));
        table.sort_by_key(|&(at, ..)| at);
        let mut out = String::new();
        let headers: Vec<String> = table
            .iter()
            .map(|&(_, header, width, ..)| format!("{header:>width$}"))
            .collect();
        let _ = writeln!(out, "{}", headers.join(" "));
        for p in &self.points {
            let cells: Vec<String> = table
                .iter()
                .map(|&(_, _, width, decimals, value)| format!("{:>width$.decimals$}", value(p)))
                .collect();
            let _ = writeln!(out, "{}", cells.join(" "));
        }
        let _ = writeln!(
            out,
            "\nper-commit metrics and fitted growth exponents (v ~ n^k):"
        );
        for (name, column) in metrics() {
            let values: Vec<String> = self
                .points
                .iter()
                .map(|p| format!("n{}={:.3}", p.n, p.metric(column)))
                .collect();
            let k = self
                .fit(column)
                .map(|k| format!("{k:.4}"))
                .unwrap_or_else(|| String::from("-"));
            let _ = writeln!(out, "  {name:<16} k={k:<8} {}", values.join(" "));
        }
        out
    }

    /// Serialize as deterministic JSON (schema `marp-prof/sweep/v1`).
    pub fn to_json(&self) -> Json {
        let points: Vec<Json> = self
            .points
            .iter()
            .map(|p| {
                let seeds = p.seeds.iter().map(|&s| Json::Num(s as f64)).collect();
                let seeds = (String::from("seeds"), Json::Arr(seeds));
                let fields = COLUMNS
                    .iter()
                    .map(|c| (String::from(c.key), Json::Num((c.get)(p))));
                Json::Obj(fields.chain([seeds]).collect())
            })
            .collect();
        let exponents: BTreeMap<String, Json> = self
            .exponents()
            .into_iter()
            .map(|(name, k)| (String::from(name), k.map(Json::Num).unwrap_or(Json::Null)))
            .collect();
        Json::obj([
            ("schema", Json::Str(String::from("marp-prof/sweep/v1"))),
            ("points", Json::Arr(points)),
            ("exponents", Json::Obj(exponents)),
        ])
    }

    /// Parse a report back from its JSON form.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        if doc.get("schema").and_then(Json::as_str) != Some("marp-prof/sweep/v1") {
            return Err(String::from("not a marp-prof/sweep/v1 document"));
        }
        let points = doc
            .get("points")
            .and_then(Json::as_arr)
            .ok_or("missing points array")?;
        let parsed: Result<Vec<SweepPoint>, String> = points
            .iter()
            .map(|j| {
                let seeds = j.get("seeds").and_then(Json::as_arr);
                let seeds = seeds.into_iter().flatten().filter_map(Json::as_num);
                let mut point = SweepPoint {
                    seeds: seeds.map(|s| s as u64).collect(),
                    ..SweepPoint::default()
                };
                for column in COLUMNS {
                    let value = match j.get(column.key).and_then(Json::as_num) {
                        Some(value) => value,
                        None if column.optional => 0.0,
                        None => return Err(format!("missing numeric field '{}'", column.key)),
                    };
                    (column.set)(&mut point, value);
                }
                Ok(point)
            })
            .collect();
        Ok(SweepReport::new(parsed?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::{span_id, SimTime, SpanKind};

    /// A point with every cost field following `scale^power`.
    fn synthetic_point(n: usize, power: f64) -> SweepPoint {
        let v = (n as f64).powf(power);
        SweepPoint {
            n,
            seeds: vec![1],
            commits: 10,
            total_ms: 10.0 * v,
            queueing_ms: 2.0 * v,
            network_ms: 3.0 * v,
            lock_wait_ms: 4.0 * v,
            quorum_wait_ms: 1.0 * v,
            migrations: (10.0 * v) as u64,
            migrated_bytes: (1000.0 * v) as u64,
            gossip_bytes: (100.0 * v) as u64,
            total_bytes: (2000.0 * v) as u64,
            messages: (50.0 * v) as u64,
            lt_entries_carried: (20.0 * v) as u64,
            lt_ids_carried: (6.0 * v) as u64,
            notices: (30.0 * v) as u64,
            notice_bytes: (600.0 * v) as u64,
            notices_skipped: (5.0 * v) as u64,
            replies: (15.0 * v) as u64,
            reply_bytes: (900.0 * v) as u64,
            claims_held: (8.0 * v) as u64,
            aborted_claims: (2.0 * v) as u64,
        }
    }

    #[test]
    fn exponent_recovers_synthetic_power_law() {
        let report = SweepReport::new(vec![
            synthetic_point(3, 2.0),
            synthetic_point(5, 2.0),
            synthetic_point(9, 2.0),
        ]);
        let k = report.exponent("total-ms").unwrap();
        assert!((k - 2.0).abs() < 0.01, "k = {k}");
        let k = report.exponent("lock-wait-ms").unwrap();
        assert!((k - 2.0).abs() < 0.01, "k = {k}");
    }

    #[test]
    fn exponent_is_none_for_flat_or_missing_data() {
        let report = SweepReport::new(vec![synthetic_point(3, 1.0)]);
        assert_eq!(report.exponent("total-ms"), None); // one point
        assert_eq!(report.exponent("no-such-metric"), None);
    }

    #[test]
    fn measure_counts_commits_migrations_and_lt_entries() {
        let mut log = TraceLog::new();
        log.push(
            SimTime::from_millis(1),
            0,
            TraceEvent::Custom {
                kind: LT_ENTRIES_KIND,
                a: 7,
                b: 42,
            },
        );
        log.push(
            SimTime::from_millis(1),
            0,
            TraceEvent::Custom {
                kind: LT_IDS_KIND,
                a: 3,
                b: 42,
            },
        );
        log.push(
            SimTime::from_millis(2),
            1,
            TraceEvent::AgentMigrated {
                agent: 42,
                from: 0,
                to: 1,
                hops: 1,
            },
        );
        log.push(
            SimTime::from_millis(3),
            0,
            TraceEvent::Custom {
                kind: "unrelated",
                a: 99,
                b: 0,
            },
        );
        log.push(
            SimTime::from_millis(4),
            1,
            TraceEvent::WinAborted { agent: 42 },
        );
        log.push(
            SimTime::from_millis(9),
            0,
            TraceEvent::UpdateCompleted {
                request: 1,
                home: 0,
                arrived: SimTime::from_millis(0),
                dispatched: SimTime::from_millis(1),
                locked: SimTime::from_millis(5),
                visits: 2,
            },
        );
        let mut by_kind = [0u64; 16];
        by_kind[6] = 44;
        let stats = RunStats {
            bytes_sent: 500,
            agent_bytes_migrated: 120,
            bytes_by_kind: by_kind,
            messages_sent: 9,
            ..RunStats::default()
        };
        let point = SweepPoint::measure(3, &[7], &[&log], &[stats], 6);
        assert_eq!(point.commits, 1);
        assert_eq!(point.migrations, 1);
        assert_eq!(point.lt_entries_carried, 7);
        assert_eq!(point.lt_ids_carried, 3);
        assert_eq!(point.aborted_claims, 1);
        assert_eq!(point.gossip_bytes, 44);
        assert_eq!(point.migrated_bytes, 120);
        assert_eq!(point.total_bytes, 500);
    }

    #[test]
    fn phase_sum_matches_total_from_a_real_decomposition() {
        let mut log = TraceLog::new();
        log.push(
            SimTime::from_millis(0),
            0,
            TraceEvent::SpanStart {
                id: span_id(SpanKind::Request, 1, 0),
                parent: 0,
                kind: SpanKind::Request,
                a: 1,
                b: 0,
            },
        );
        log.push(
            SimTime::from_millis(8),
            0,
            TraceEvent::SpanEnd {
                id: span_id(SpanKind::Request, 1, 0),
                kind: SpanKind::Request,
            },
        );
        let point = SweepPoint::measure(3, &[1], &[&log], &[RunStats::default()], 6);
        assert!((point.phase_sum_ms() - point.total_ms).abs() < 1e-6);
        assert_eq!(point.total_ms, 8.0);
    }

    #[test]
    fn json_roundtrip_preserves_points_and_exponents() {
        let report = SweepReport::new(vec![
            synthetic_point(3, 1.5),
            synthetic_point(5, 1.5),
            synthetic_point(9, 1.5),
        ]);
        let text = report.to_json().render();
        let back = SweepReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json().render(), text);
    }

    #[test]
    fn a_sweep_recorded_before_the_optional_columns_reads_them_as_zero() {
        let report = SweepReport::new(vec![synthetic_point(3, 1.0)]);
        let strip = |doc: &Json, key: &str| {
            let mut doc = doc.clone();
            let Json::Obj(top) = &mut doc else {
                unreachable!()
            };
            let Some(Json::Arr(points)) = top.get_mut("points") else {
                unreachable!()
            };
            let Json::Obj(point) = &mut points[0] else {
                unreachable!()
            };
            assert!(point.remove(key).is_some(), "{key} is a stored column");
            doc
        };
        let mut old = report.to_json();
        let mut expected = report.points[0].clone();
        for column in COLUMNS.iter().filter(|c| c.optional) {
            old = strip(&old, column.key);
            (column.set)(&mut expected, 0.0);
        }
        assert_eq!(expected.lt_ids_carried + expected.aborted_claims, 0);
        let back = SweepReport::from_json(&old).unwrap();
        assert_eq!(back.points, vec![expected]);
        let err = SweepReport::from_json(&strip(&report.to_json(), "messages")).unwrap_err();
        assert_eq!(err, "missing numeric field 'messages'");
    }

    #[test]
    fn the_table_places_every_printed_column_once() {
        let mut positions: Vec<usize> = COLUMNS.iter().filter_map(|c| Some(c.table?.0)).collect();
        positions.push(12); // the derived phase_sum
        positions.sort_unstable();
        assert_eq!(positions, (0..20).collect::<Vec<_>>());
        let report = SweepReport::new(vec![synthetic_point(3, 1.0)]);
        let text = report.render();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "  n  commits     total_ms    queueing     network   lock_wait quorum_wait migrations        \
             bytes     gossip_b lt_entries   lt_ids  phase_sum   notices   notice_b   skipped   replies     \
             reply_b     held  aborted"
        );
        assert_eq!(
            lines.next().unwrap(),
            "  3       10       30.000       6.000       9.000      12.000       3.000         30         \
             6000          300         60       18     30.000        90       1800        15        45        \
             2700       24        6"
        );
    }

    #[test]
    fn render_contains_table_and_exponent_lines() {
        let report = SweepReport::new(vec![synthetic_point(3, 1.0), synthetic_point(5, 1.0)]);
        let text = report.render();
        assert!(text.contains("phase_sum"));
        assert!(text.contains("lock-wait-ms"));
        assert!(text.contains("k="));
    }
}
