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
            for rec in trace.records() {
                match rec.event {
                    TraceEvent::UpdateCompleted { .. } => point.commits += 1,
                    TraceEvent::AgentMigrated { .. } => point.migrations += 1,
                    TraceEvent::WinAborted { .. } => point.aborted_claims += 1,
                    TraceEvent::Custom { kind, a, b: _ } => {
                        if kind == LT_ENTRIES_KIND {
                            point.lt_entries_carried += a;
                        } else if kind == LT_IDS_KIND {
                            point.lt_ids_carried += a;
                        }
                    }
                    TraceEvent::MsgSent { .. }
                    | TraceEvent::MsgDelivered { .. }
                    | TraceEvent::MsgDropped { .. }
                    | TraceEvent::NodeDown(..)
                    | TraceEvent::NodeUp(..)
                    | TraceEvent::RequestArrived { .. }
                    | TraceEvent::ReadServed { .. }
                    | TraceEvent::AgentDispatched { .. }
                    | TraceEvent::AgentMigrateFailed { .. }
                    | TraceEvent::AgentStateShipped { .. }
                    | TraceEvent::ReplicaDeclaredUnavailable { .. }
                    | TraceEvent::LockRequested { .. }
                    | TraceEvent::LockGranted { .. }
                    | TraceEvent::UpdateSent { .. }
                    | TraceEvent::UpdateAcked { .. }
                    | TraceEvent::CommitApplied { .. }
                    | TraceEvent::AgentDisposed { .. }
                    | TraceEvent::SpanStart { .. }
                    | TraceEvent::SpanEnd { .. }
                    | TraceEvent::SpanLink { .. } => {}
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
}

/// Extracts one scalar metric from a sweep point.
pub type MetricFn = fn(&SweepPoint) -> f64;

/// The per-commit metrics a sweep fits growth exponents for, as
/// `(name, extractor)` rows. Order is the presentation order.
pub const METRICS: &[(&str, MetricFn)] = &[
    ("total-ms", |p| p.per_commit(p.total_ms)),
    ("queueing-ms", |p| p.per_commit(p.queueing_ms)),
    ("network-ms", |p| p.per_commit(p.network_ms)),
    ("lock-wait-ms", |p| p.per_commit(p.lock_wait_ms)),
    ("quorum-wait-ms", |p| p.per_commit(p.quorum_wait_ms)),
    ("bytes", |p| p.per_commit(p.total_bytes as f64)),
    ("migrated-bytes", |p| p.per_commit(p.migrated_bytes as f64)),
    ("gossip-bytes", |p| p.per_commit(p.gossip_bytes as f64)),
    ("messages", |p| p.per_commit(p.messages as f64)),
    ("migrations", |p| p.per_commit(p.migrations as f64)),
    ("lt-entries", |p| p.per_commit(p.lt_entries_carried as f64)),
    ("lt-ids", |p| p.per_commit(p.lt_ids_carried as f64)),
    ("notices", |p| p.per_commit(p.notices as f64)),
    ("notice-bytes", |p| p.per_commit(p.notice_bytes as f64)),
    ("notices-skipped", |p| {
        p.per_commit(p.notices_skipped as f64)
    }),
    ("replies", |p| p.per_commit(p.replies as f64)),
    ("reply-bytes", |p| p.per_commit(p.reply_bytes as f64)),
    ("held", |p| p.per_commit(p.claims_held as f64)),
    ("aborted-claims", |p| p.per_commit(p.aborted_claims as f64)),
];

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
        let extract = METRICS
            .iter()
            .find(|(name, _)| *name == metric)
            .map(|&(_, f)| f)?;
        let samples: Vec<(f64, f64)> = self
            .points
            .iter()
            .map(|p| (p.n as f64, extract(p)))
            .collect();
        fit_exponent(&samples)
    }

    /// All `(metric, exponent)` rows in [`METRICS`] order.
    pub fn exponents(&self) -> Vec<(&'static str, Option<f64>)> {
        METRICS
            .iter()
            .map(|&(name, _)| (name, self.exponent(name)))
            .collect()
    }

    /// Render the per-phase scaling table plus the fitted exponents.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>3} {:>8} {:>12} {:>11} {:>11} {:>11} {:>11} {:>10} {:>12} {:>12} {:>10} {:>8} {:>10} {:>9} {:>10} {:>9} {:>9} {:>11} {:>8} {:>8}",
            "n",
            "commits",
            "total_ms",
            "queueing",
            "network",
            "lock_wait",
            "quorum_wait",
            "migrations",
            "bytes",
            "gossip_b",
            "lt_entries",
            "lt_ids",
            "phase_sum",
            "notices",
            "notice_b",
            "skipped",
            "replies",
            "reply_b",
            "held",
            "aborted"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:>3} {:>8} {:>12.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>10} {:>12} {:>12} {:>10} {:>8} {:>10.3} {:>9} {:>10} {:>9} {:>9} {:>11} {:>8} {:>8}",
                p.n,
                p.commits,
                p.total_ms,
                p.queueing_ms,
                p.network_ms,
                p.lock_wait_ms,
                p.quorum_wait_ms,
                p.migrations,
                p.total_bytes,
                p.gossip_bytes,
                p.lt_entries_carried,
                p.lt_ids_carried,
                p.phase_sum_ms(),
                p.notices,
                p.notice_bytes,
                p.notices_skipped,
                p.replies,
                p.reply_bytes,
                p.claims_held,
                p.aborted_claims
            );
        }
        let _ = writeln!(
            out,
            "\nper-commit metrics and fitted growth exponents (v ~ n^k):"
        );
        for (name, exponent) in self.exponents() {
            let extract = METRICS
                .iter()
                .find(|(metric, _)| *metric == name)
                .map(|&(_, f)| f)
                .expect("name came from METRICS");
            let values: Vec<String> = self
                .points
                .iter()
                .map(|p| format!("n{}={:.3}", p.n, extract(p)))
                .collect();
            let k = exponent
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
                Json::obj([
                    ("n", Json::Num(p.n as f64)),
                    (
                        "seeds",
                        Json::Arr(p.seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
                    ),
                    ("commits", Json::Num(p.commits as f64)),
                    ("total_ms", Json::Num(p.total_ms)),
                    ("queueing_ms", Json::Num(p.queueing_ms)),
                    ("network_ms", Json::Num(p.network_ms)),
                    ("lock_wait_ms", Json::Num(p.lock_wait_ms)),
                    ("quorum_wait_ms", Json::Num(p.quorum_wait_ms)),
                    ("migrations", Json::Num(p.migrations as f64)),
                    ("migrated_bytes", Json::Num(p.migrated_bytes as f64)),
                    ("gossip_bytes", Json::Num(p.gossip_bytes as f64)),
                    ("total_bytes", Json::Num(p.total_bytes as f64)),
                    ("messages", Json::Num(p.messages as f64)),
                    ("lt_entries_carried", Json::Num(p.lt_entries_carried as f64)),
                    ("lt_ids_carried", Json::Num(p.lt_ids_carried as f64)),
                    ("notices", Json::Num(p.notices as f64)),
                    ("notice_bytes", Json::Num(p.notice_bytes as f64)),
                    ("notices_skipped", Json::Num(p.notices_skipped as f64)),
                    ("replies", Json::Num(p.replies as f64)),
                    ("reply_bytes", Json::Num(p.reply_bytes as f64)),
                    ("claims_held", Json::Num(p.claims_held as f64)),
                    ("aborted_claims", Json::Num(p.aborted_claims as f64)),
                ])
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
        let num = |j: &Json, field: &str| -> Result<f64, String> {
            j.get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("missing numeric field '{field}'"))
        };
        // Sweeps recorded before the servers counted their agent mail
        // (or the handoff and carried-id columns existed) lack those
        // fields; they read as zero so old and new sweeps still diff.
        let optional =
            |j: &Json, field: &str| j.get(field).and_then(Json::as_num).unwrap_or(0.0) as u64;
        let parsed: Result<Vec<SweepPoint>, String> = points
            .iter()
            .map(|j| {
                Ok(SweepPoint {
                    n: num(j, "n")? as usize,
                    seeds: j
                        .get("seeds")
                        .and_then(Json::as_arr)
                        .map(|seeds| {
                            seeds
                                .iter()
                                .filter_map(Json::as_num)
                                .map(|s| s as u64)
                                .collect()
                        })
                        .unwrap_or_default(),
                    commits: num(j, "commits")? as u64,
                    total_ms: num(j, "total_ms")?,
                    queueing_ms: num(j, "queueing_ms")?,
                    network_ms: num(j, "network_ms")?,
                    lock_wait_ms: num(j, "lock_wait_ms")?,
                    quorum_wait_ms: num(j, "quorum_wait_ms")?,
                    migrations: num(j, "migrations")? as u64,
                    migrated_bytes: num(j, "migrated_bytes")? as u64,
                    gossip_bytes: num(j, "gossip_bytes")? as u64,
                    total_bytes: num(j, "total_bytes")? as u64,
                    messages: num(j, "messages")? as u64,
                    lt_entries_carried: num(j, "lt_entries_carried")? as u64,
                    lt_ids_carried: optional(j, "lt_ids_carried"),
                    notices: optional(j, "notices"),
                    notice_bytes: optional(j, "notice_bytes"),
                    notices_skipped: optional(j, "notices_skipped"),
                    replies: optional(j, "replies"),
                    reply_bytes: optional(j, "reply_bytes"),
                    claims_held: optional(j, "claims_held"),
                    aborted_claims: optional(j, "aborted_claims"),
                })
            })
            .collect();
        Ok(SweepReport::new(parsed?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::{span_id, SimTime, SpanKind, TraceLevel};

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
        let mut log = TraceLog::new(TraceLevel::Protocol);
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
        let mut log = TraceLog::new(TraceLevel::Protocol);
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
    fn render_contains_table_and_exponent_lines() {
        let report = SweepReport::new(vec![synthetic_point(3, 1.0), synthetic_point(5, 1.0)]);
        let text = report.render();
        assert!(text.contains("phase_sum"));
        assert!(text.contains("lock-wait-ms"));
        assert!(text.contains("k="));
    }
}
