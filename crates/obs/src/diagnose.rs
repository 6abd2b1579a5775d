//! Automated cliff diagnosis (`marp-trace diagnose`, after the sweep's
//! per-phase table).
//!
//! Rule-based detectors over a [`SweepReport`]: each rule inspects the
//! fitted growth exponents and the top-point cost shares, and — when it
//! fires — produces a [`Verdict`] whose evidence cites concrete table
//! rows. Verdicts are ranked by score so the first entry is the best
//! explanation of *why commit cost grows with the replica count*.
//!
//! The rules encode the three ways a MARP cluster is known to fall off
//! a cliff:
//!
//! * **lock-queue convoy** — lock-wait time per commit grows
//!   superlinearly: agents serialize behind ever-longer Locking Lists;
//! * **wire-byte growth** — bytes per commit grow superlinearly; the
//!   verdict names whichever measured component (migrated agent state,
//!   anti-entropy, change notices, `LlInfo` replies, everything else)
//!   holds the largest share at the top point, so its label can never
//!   contradict its own evidence row;
//! * **migration storm** — migrations per commit exceed Theorem 3's
//!   bound in hops: a winner visits `⌈(N+1)/2⌉ ≤ m ≤ N` servers, so it
//!   hops `m − 1` times, and more is a tour past the protocol's worst
//!   case per won lock; or hops per commit over the minimum bound
//!   `⌈(N+1)/2⌉ − 1` grow with N (a fitted exponent above
//!   `SUPERLINEAR_K − 1`), so tours outgrow the bound's own curve;
//!
//! plus a generic **superlinear-phase** detector that flags any other
//! critical-path phase with a fitted exponent above threshold, so a new
//! kind of blowup still gets named. Lock-wait is the convoy rule's
//! alone: both fire on the same exponent test, so the generic detector
//! would report every convoy twice.

use crate::json::{round_to, Json};
use crate::sweep::{fit_exponent, SweepReport};
use marp_metrics::theorem3_visits;
use std::fmt::Write as _;

/// Exponent above which a per-commit metric counts as superlinear
/// (costs that merely track cluster size fit k ≈ 1).
pub const SUPERLINEAR_K: f64 = 1.2;

/// Exponent above which a firing rule escalates to `critical`.
pub const CRITICAL_K: f64 = 1.8;

/// How loud a verdict is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing, not the headline.
    Info,
    /// A real scaling problem.
    Warning,
    /// The dominant explanation of the cliff.
    Critical,
}

impl Severity {
    /// Stable lowercase name (used in text and JSON output).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One fired rule with its ranked score and cited evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Stable rule identifier.
    pub rule: &'static str,
    /// How loud the finding is.
    pub severity: Severity,
    /// Ranking score (higher = more explanatory).
    pub score: f64,
    /// One-line statement of the finding.
    pub summary: String,
    /// Concrete table rows backing the finding.
    pub evidence: Vec<String>,
}

/// The ranked output of a diagnosis run.
#[derive(Debug, Default, PartialEq)]
pub struct Diagnosis {
    /// Fired rules, highest score first.
    pub verdicts: Vec<Verdict>,
}

/// Per-point evidence row for one phase: value per commit and share of
/// the total.
fn phase_rows(
    report: &SweepReport,
    phase: &str,
    value: fn(&crate::sweep::SweepPoint) -> f64,
) -> Vec<String> {
    report
        .points
        .iter()
        .map(|p| {
            let share = if p.total_ms > 0.0 {
                value(p) / p.total_ms * 100.0
            } else {
                0.0
            };
            format!(
                "n={}: {phase} {:.3} ms/commit ({:.1}% of total)",
                p.n,
                p.per_commit(value(p)),
                share
            )
        })
        .collect()
}

impl Diagnosis {
    /// Run every rule over a sweep.
    pub fn from_sweep(report: &SweepReport) -> Self {
        let mut verdicts = Vec::new();
        lock_queue_convoy(report, &mut verdicts);
        wire_byte_growth(report, &mut verdicts);
        migration_storm(report, &mut verdicts);
        superlinear_phases(report, &mut verdicts);
        verdicts.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.rule.cmp(b.rule))
        });
        Diagnosis { verdicts }
    }

    /// Render the ranked verdict list: per verdict, its fields in
    /// `Verdict::fields` order, the score to 3 decimals.
    pub fn render(&self) -> String {
        if self.verdicts.is_empty() {
            return String::from("diagnosis: no superlinear cost growth detected\n");
        }
        let mut out = format!("diagnosis: {} finding(s), ranked:", self.verdicts.len());
        for (rank, verdict) in self.verdicts.iter().enumerate() {
            let _ = write!(out, "\n{}.", rank + 1);
            for (_, before, value) in verdict.fields() {
                let _ = match value {
                    Json::Str(text) => write!(out, "{before}{text}"),
                    Json::Num(score) => write!(out, "{before}{score:.3}"),
                    Json::Arr(lines) => lines
                        .iter()
                        .filter_map(Json::as_str)
                        .try_for_each(|line| write!(out, "{before}{line}")),
                    Json::Null | Json::Bool(_) | Json::Obj(_) => Ok(()),
                };
            }
        }
        out.push('\n');
        out
    }

    /// Serialize as deterministic JSON (schema `marp-prof/diagnosis/v1`).
    pub fn to_json(&self) -> Json {
        let verdicts = self.verdicts.iter().map(|verdict| {
            let fields = verdict
                .fields()
                .map(|(key, _, value)| (String::from(key), value));
            Json::Obj(fields.into_iter().collect())
        });
        Json::obj([
            ("schema", Json::Str(String::from("marp-prof/diagnosis/v1"))),
            ("verdicts", Json::Arr(verdicts.collect())),
        ])
    }
}

impl Verdict {
    /// Each field once, for both forms: its JSON key, the text before it
    /// in the report (`1. [critical] rule (score 1.234): summary`, then
    /// one evidence line each) and its value.
    fn fields(&self) -> [(&'static str, &'static str, Json); 5] {
        let evidence = self.evidence.iter().cloned().map(Json::Str).collect();
        [
            ("severity", " [", Json::Str(self.severity.name().into())),
            ("rule", "] ", Json::Str(self.rule.into())),
            ("score", " (score ", Json::Num(self.score)),
            ("summary", "): ", Json::Str(self.summary.clone())),
            ("evidence", "\n     - ", Json::Arr(evidence)),
        ]
    }
}

fn severity_for(k: f64) -> Severity {
    if k > CRITICAL_K {
        Severity::Critical
    } else {
        Severity::Warning
    }
}

/// The fitted exponent of a per-commit metric when it is superlinear,
/// with the evidence row that cites it.
fn superlinear(report: &SweepReport, metric: &str) -> Option<(f64, String)> {
    let k = report.exponent(metric).filter(|&k| k > SUPERLINEAR_K)?;
    let fitted = format!("fitted exponent k={k:.4} (superlinear above {SUPERLINEAR_K})");
    Some((k, fitted))
}

fn lock_queue_convoy(report: &SweepReport, out: &mut Vec<Verdict>) {
    let (Some((k, fitted)), Some(top)) = (superlinear(report, "lock-wait-ms"), report.top_point())
    else {
        return;
    };
    let top_share = if top.total_ms > 0.0 {
        top.lock_wait_ms / top.total_ms
    } else {
        0.0
    };
    let mut evidence = phase_rows(report, "lock-wait", |p| p.lock_wait_ms);
    evidence.push(fitted);
    // How the lock changed hands: a claim held behind the committing
    // winner is the pipelined handoff working; an aborted one paid a
    // RELEASE and a second UPDATE round inside the lock-wait phase.
    evidence.push(format!(
        "handoffs per commit: {}",
        report
            .points
            .iter()
            .map(|p| format!(
                "n={} held {:.3} aborted {:.3}",
                p.n,
                p.per_commit(p.claims_held as f64),
                p.per_commit(p.aborted_claims as f64)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push(Verdict {
        rule: "lock-queue-convoy",
        severity: severity_for(k),
        score: round_to(k * (1.0 + top_share), 3),
        summary: format!(
            "lock-wait per commit grows as n^{k:.2} and is {:.1}% of commit latency at n={}: \
             agents convoy behind growing Locking List queues ({:.2} aborted \
             claims per commit there)",
            top_share * 100.0,
            top.n,
            top.per_commit(top.aborted_claims as f64)
        ),
        evidence,
    });
}

/// The measured components of a point's wire bytes, largest first by
/// the caller's sort: `(label, bytes)`. "other" is what the four
/// counted components leave of the total (UPDATE/COMMIT/ack frames,
/// client traffic, envelope headers).
fn byte_components(p: &crate::sweep::SweepPoint) -> [(&'static str, u64); 5] {
    let counted = p.migrated_bytes + p.gossip_bytes + p.notice_bytes + p.reply_bytes;
    [
        ("migrated agent state", p.migrated_bytes),
        ("anti-entropy", p.gossip_bytes),
        ("COMMIT change notices", p.notice_bytes),
        ("LlInfo re-poll replies", p.reply_bytes),
        ("other frames", p.total_bytes.saturating_sub(counted)),
    ]
}

fn wire_byte_growth(report: &SweepReport, out: &mut Vec<Verdict>) {
    let Some((k, fitted)) = superlinear(report, "bytes") else {
        return;
    };
    let mut evidence: Vec<String> = report
        .points
        .iter()
        .map(|p| {
            let parts: Vec<String> = byte_components(p)
                .iter()
                .map(|&(label, bytes)| format!("{:.0} {label}", p.per_commit(bytes as f64)))
                .collect();
            format!(
                "n={}: {:.0} bytes/commit ({})",
                p.n,
                p.per_commit(p.total_bytes as f64),
                parts.join(", ")
            )
        })
        .collect();
    evidence.push(fitted);
    for metric in ["reply-bytes", "notice-bytes", "migrated-bytes"] {
        if let Some(k_part) = report.exponent(metric) {
            evidence.push(format!("{metric} per commit grow as n^{k_part:.4}"));
        }
    }
    // How often the carried tables repeat themselves: an entry ships as
    // a small index, an id is spelled out once per table.
    if let Some(p) = report.top_point().filter(|p| p.lt_ids_carried > 0) {
        evidence.push(format!(
            "carried tables at n={}: {:.1} entries over {:.1} ids per commit ({:.2} entries per id)",
            p.n,
            p.per_commit(p.lt_entries_carried as f64),
            p.per_commit(p.lt_ids_carried as f64),
            p.lt_entries_carried as f64 / p.lt_ids_carried as f64
        ));
    }
    let dominant = report.top_point().and_then(|p| {
        byte_components(p)
            .into_iter()
            .max_by_key(|&(_, bytes)| bytes)
            .map(|(label, bytes)| (p.n, label, bytes as f64 / p.total_bytes.max(1) as f64))
    });
    let summary = match dominant {
        Some((n, label, share)) => format!(
            "wire bytes per commit grow as n^{k:.2}; at n={n} the largest share is {label} \
             ({:.1}% of all bytes)",
            share * 100.0
        ),
        None => format!("wire bytes per commit grow as n^{k:.2}"),
    };
    out.push(Verdict {
        rule: "wire-byte-growth",
        severity: severity_for(k),
        score: round_to(k, 3),
        summary,
        evidence,
    });
}

/// Theorem 3 in hops: a winning agent visits [`theorem3_visits`] servers
/// and is spawned at the first, which is no hop (`AgentMigrated` counts
/// hops), so it migrates one time fewer per won lock.
fn hop_bounds(n: usize) -> (usize, usize) {
    let (min, max) = theorem3_visits(n).into_inner();
    (min - 1, max.saturating_sub(1))
}

fn migration_storm(report: &SweepReport, out: &mut Vec<Verdict>) {
    let Some(top) = report.top_point().filter(|p| p.commits > 0) else {
        return;
    };
    let (bound_lo, bound_hi) = hop_bounds(top.n);
    let per_commit = top.migrations as f64 / top.commits as f64;
    // Hops per commit over the fewest Theorem 3 allows: flat for a
    // cluster touring at its bound, however that bound grows with N.
    let over_min: Vec<(f64, f64)> = (report.points.iter())
        .filter(|p| p.commits > 0 && hop_bounds(p.n).0 > 0)
        .map(|p| {
            (
                p.n as f64,
                p.per_commit(p.migrations as f64) / hop_bounds(p.n).0 as f64,
            )
        })
        .collect();
    let k = fit_exponent(&over_min);
    let exceeds = per_commit > bound_hi as f64;
    let steepening = k.is_some_and(|k| k > SUPERLINEAR_K - 1.0);
    if !exceeds && !steepening {
        return;
    }
    let mut evidence: Vec<String> = report
        .points
        .iter()
        .filter(|p| p.commits > 0)
        .map(|p| {
            let (lo, hi) = hop_bounds(p.n);
            format!(
                "n={}: {:.2} migrations/commit (Theorem 3 bound: {lo}..{hi} hops per won lock)",
                p.n,
                p.migrations as f64 / p.commits as f64,
            )
        })
        .collect();
    if let Some(k) = k {
        let ratios: Vec<String> = (over_min.iter())
            .map(|&(n, ratio)| format!("n={n} {ratio:.2}"))
            .collect();
        evidence.push(format!(
            "migrations over the minimum bound: {}; fitted exponent k={k:.4} \
             (growing above {:.1})",
            ratios.join(", "),
            SUPERLINEAR_K - 1.0
        ));
    }
    out.push(Verdict {
        rule: "migration-storm",
        severity: if exceeds {
            Severity::Critical
        } else {
            Severity::Warning
        },
        score: round_to(per_commit / bound_hi.max(1) as f64 + k.unwrap_or(0.0), 3),
        summary: if exceeds {
            format!(
                "{per_commit:.2} migrations per commit at n={} exceeds Theorem 3's upper bound \
                 of {bound_hi} hops: agents re-tour (aborted claims / regenerations) before winning",
                top.n
            )
        } else {
            format!(
                "migrations per commit outgrow Theorem 3's minimum of {bound_lo} hops \
                 (within its {bound_lo}..{bound_hi} hop bound at n={}, but trending out of it)",
                top.n
            )
        },
        evidence,
    });
}

fn superlinear_phases(report: &SweepReport, out: &mut Vec<Verdict>) {
    const PHASES: &[(&str, &str, crate::sweep::MetricFn)] = &[
        ("queueing-ms", "queueing", |p| p.queueing_ms),
        ("network-ms", "network", |p| p.network_ms),
        ("quorum-wait-ms", "quorum-wait", |p| p.quorum_wait_ms),
    ];
    for &(metric, phase, value) in PHASES {
        let Some((k, fitted)) = superlinear(report, metric) else {
            continue;
        };
        let mut evidence = phase_rows(report, phase, value);
        evidence.push(fitted);
        out.push(Verdict {
            rule: "superlinear-phase",
            severity: Severity::Info,
            score: round_to(k / 2.0, 3),
            summary: format!("the {phase} phase grows as n^{k:.2} per commit"),
            evidence,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepPoint;

    /// A sweep whose lock-wait dominates and grows with `power`, while
    /// the other phases stay linear.
    fn convoy_sweep(power: f64) -> SweepReport {
        let point = |n: usize| {
            let v = (n as f64).powf(power);
            let linear = n as f64;
            SweepPoint {
                n,
                seeds: vec![1, 2],
                commits: 100,
                total_ms: 100.0 * v + 300.0 * linear,
                queueing_ms: 100.0 * linear,
                network_ms: 100.0 * linear,
                lock_wait_ms: 100.0 * v,
                quorum_wait_ms: 100.0 * linear,
                migrations: 50 * n as u64, // N/2 hops: within Theorem 3's bound
                migrated_bytes: (1000.0 * linear) as u64,
                gossip_bytes: (100.0 * linear) as u64,
                total_bytes: (2000.0 * linear) as u64,
                messages: (50.0 * linear) as u64,
                lt_entries_carried: (20.0 * linear) as u64,
                ..SweepPoint::default()
            }
        };
        SweepReport::new(vec![point(3), point(5), point(9)])
    }

    #[test]
    fn convoy_is_detected_and_ranked_first() {
        let diagnosis = Diagnosis::from_sweep(&convoy_sweep(2.5));
        assert!(!diagnosis.verdicts.is_empty());
        assert_eq!(diagnosis.verdicts[0].rule, "lock-queue-convoy");
        assert!(diagnosis.verdicts[0].score >= 1.0);
        assert!(diagnosis.verdicts[0]
            .evidence
            .iter()
            .any(|e| e.starts_with("n=9:")));
        assert!(diagnosis.verdicts[0]
            .evidence
            .iter()
            .any(|e| e.starts_with("handoffs per commit: n=3 held")));
        assert!(diagnosis.verdicts[0].summary.contains("aborted"));
        // The generic detector leaves the phase to the convoy verdict.
        let verdicts = diagnosis.verdicts.iter();
        let lock_wait = verdicts.filter(|v| v.summary.contains("lock-wait"));
        assert_eq!(lock_wait.count(), 1);
    }

    #[test]
    fn linear_sweep_is_clean() {
        let diagnosis = Diagnosis::from_sweep(&convoy_sweep(1.0));
        assert!(diagnosis.verdicts.is_empty());
        assert!(diagnosis.render().contains("no superlinear cost growth"));
    }

    #[test]
    fn migration_storm_fires_past_theorem3_bound() {
        let mut report = convoy_sweep(1.0);
        for p in &mut report.points {
            p.migrations = p.commits * (p.n as u64 + 3); // > N - 1 per commit
        }
        let diagnosis = Diagnosis::from_sweep(&report);
        let storm = diagnosis
            .verdicts
            .iter()
            .find(|v| v.rule == "migration-storm")
            .expect("storm rule should fire");
        assert_eq!(storm.severity, Severity::Critical);
        assert!(storm.summary.contains("Theorem 3"));
        assert!(storm
            .evidence
            .iter()
            .any(|e| e.contains("bound: 4..8 hops")));
    }

    #[test]
    fn migration_storm_counts_hops_not_visits() {
        // A winner visits at most N servers and is spawned at the first,
        // so it hops at most N - 1 times: N - 0.5 hops is past the bound.
        let mut point = convoy_sweep(1.0).points[2].clone();
        assert_eq!(point.n, 9);
        point.migrations = point.commits * 17 / 2;
        let diagnosis = Diagnosis::from_sweep(&SweepReport::new(vec![point]));
        let storm = diagnosis
            .verdicts
            .iter()
            .find(|v| v.rule == "migration-storm")
            .expect("8.5 hops per commit at n=9 is past the bound");
        assert_eq!(storm.severity, Severity::Critical);
        assert_eq!(
            storm.evidence,
            ["n=9: 8.50 migrations/commit (Theorem 3 bound: 4..8 hops per won lock)"]
        );
    }

    #[test]
    fn a_tour_at_exactly_theorem3s_minimum_is_clean() {
        // 1/2/4 hops at N = 3/5/9: the raw exponent is about 1.26, but
        // the tour never leaves its bound.
        let mut report = convoy_sweep(1.0);
        for p in &mut report.points {
            p.migrations = p.commits * hop_bounds(p.n).0 as u64;
        }
        let k = report.exponent("migrations").unwrap();
        assert!(k > SUPERLINEAR_K, "raw exponent {k}");
        assert_eq!(Diagnosis::from_sweep(&report).verdicts, []);
        // Twice the minimum at N = 9 only is a tour outgrowing it.
        report.points[2].migrations *= 2;
        let diagnosis = Diagnosis::from_sweep(&report);
        let storm = &diagnosis.verdicts[0];
        assert_eq!(
            (storm.rule, storm.severity),
            ("migration-storm", Severity::Warning)
        );
    }

    #[test]
    fn wire_byte_growth_names_the_component_its_evidence_shows() {
        let mut report = convoy_sweep(1.0);
        for p in &mut report.points {
            p.total_bytes = (2000.0 * (p.n as f64).powf(2.2)) as u64;
            // Nearly all of it is re-poll replies.
            p.reply_bytes = p.total_bytes - p.migrated_bytes - p.gossip_bytes - 100;
        }
        let diagnosis = Diagnosis::from_sweep(&report);
        let growth = diagnosis
            .verdicts
            .iter()
            .find(|v| v.rule == "wire-byte-growth")
            .expect("byte-growth rule should fire");
        assert!(growth.evidence.iter().any(|e| e.contains("bytes/commit")));
        assert!(
            growth.summary.contains("LlInfo re-poll replies"),
            "{}",
            growth.summary
        );
        // Same growth, different culprit: the label follows the bytes.
        for p in &mut report.points {
            p.migrated_bytes = p.reply_bytes;
            p.reply_bytes = 0;
        }
        let diagnosis = Diagnosis::from_sweep(&report);
        let growth = diagnosis
            .verdicts
            .iter()
            .find(|v| v.rule == "wire-byte-growth")
            .expect("byte-growth rule should fire");
        assert!(growth.summary.contains("migrated agent state"));
        // No carried-id counts (an older sweep): the repetition is not
        // guessed at. With them it is cited at the largest N.
        assert!(!growth.evidence.iter().any(|e| e.contains("per id")));
        for p in &mut report.points {
            p.lt_ids_carried = p.lt_entries_carried / 5;
        }
        let diagnosis = Diagnosis::from_sweep(&report);
        let growth = diagnosis
            .verdicts
            .iter()
            .find(|v| v.rule == "wire-byte-growth")
            .expect("byte-growth rule should fire");
        assert!(
            growth
                .evidence
                .iter()
                .any(|e| e.contains("n=9") && e.contains("(5.00 entries per id)")),
            "{:?}",
            growth.evidence
        );
    }

    #[test]
    fn json_schema_is_stable_and_parses() {
        let diagnosis = Diagnosis::from_sweep(&convoy_sweep(2.0));
        let text = diagnosis.to_json().render();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("marp-prof/diagnosis/v1")
        );
        assert!(doc.get("verdicts").and_then(Json::as_arr).is_some());
        assert_eq!(diagnosis.to_json().render(), text);
    }
}
