//! Commit-latency critical-path analysis.
//!
//! For every committed write the protocols record a `Request` span at the
//! accepting replica and link it to the coordination work that served it
//! (the agent's `Dispatch` span under MARP, an `UpdateQuorum` round span
//! under the message-passing baselines). Walking that span DAG lets us
//! attribute each write's end-to-end latency to four buckets:
//!
//! * **queueing** — request accepted but no agent/round working on it yet
//!   (batching delay, waiting behind an in-flight round);
//! * **network** — agent serialized state in flight between replicas
//!   (migration hops; zero for the baselines, whose message time is
//!   folded into quorum-wait);
//! * **lock-wait** — agent hosted on replicas, working through locking
//!   lists without holding the distributed lock yet;
//! * **quorum-wait** — update broadcast out, waiting for the validation
//!   quorum and the commit record to reach the home replica.
//!
//! The buckets are computed by clamped subtraction so they always sum to
//! exactly the total: no negative components, 100% coverage.

use crate::spans::{Span, SpanSet};
use marp_sim::{NodeId, SpanKind, TraceLog};
use std::fmt::Write as _;

/// Latency decomposition of one committed write.
#[derive(Debug, Clone, PartialEq)]
pub struct PathBreakdown {
    /// Client request id.
    pub request: u64,
    /// Replica that accepted the request.
    pub home: NodeId,
    /// End-to-end latency (request arrival to commit at home), ms.
    pub total_ms: f64,
    /// Time before any agent/round was working on the request, ms.
    pub queueing_ms: f64,
    /// Agent migration time on the wire, ms (0 for baselines).
    pub network_ms: f64,
    /// Lock-acquisition time net of migrations, ms (0 for baselines).
    pub lock_wait_ms: f64,
    /// Update/validation quorum plus commit propagation, ms.
    pub quorum_wait_ms: f64,
}

impl PathBreakdown {
    /// Fraction of the total latency the four buckets explain (1.0 by
    /// construction whenever the total is positive).
    pub fn coverage(&self) -> f64 {
        if self.total_ms <= 0.0 {
            return 1.0;
        }
        (self.queueing_ms + self.network_ms + self.lock_wait_ms + self.quorum_wait_ms)
            / self.total_ms
    }
}

/// Critical-path breakdowns for every committed write in a trace.
#[derive(Debug, Default)]
pub struct CriticalPathReport {
    /// One breakdown per completed write request, in request-id order.
    pub paths: Vec<PathBreakdown>,
}

impl CriticalPathReport {
    /// Analyze a recorded trace.
    pub fn from_trace(trace: &TraceLog) -> Self {
        let set = SpanSet::from_trace(trace);
        let mut paths: Vec<PathBreakdown> = set
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Request && s.end.is_some())
            .map(|request| decompose(request, &set))
            .collect();
        paths.sort_by_key(|p| p.request);
        CriticalPathReport { paths }
    }

    /// Lowest per-write coverage (1.0 unless something went wrong).
    pub fn min_coverage(&self) -> f64 {
        self.paths
            .iter()
            .map(PathBreakdown::coverage)
            .fold(1.0, f64::min)
    }

    /// Bucket sums across all writes: `(total, queueing, network,
    /// lock_wait, quorum_wait)` in ms.
    pub fn totals(&self) -> (f64, f64, f64, f64, f64) {
        self.paths.iter().fold((0.0, 0.0, 0.0, 0.0, 0.0), |acc, p| {
            (
                acc.0 + p.total_ms,
                acc.1 + p.queueing_ms,
                acc.2 + p.network_ms,
                acc.3 + p.lock_wait_ms,
                acc.4 + p.quorum_wait_ms,
            )
        })
    }

    /// Render a per-write table plus aggregate percentages.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>10} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9}",
            "request",
            "home",
            "total_ms",
            "queueing",
            "network",
            "lock_wait",
            "quorum_wait",
            "coverage"
        );
        for p in &self.paths {
            let _ = writeln!(
                out,
                "{:>10} {:>5} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>8.1}%",
                p.request,
                p.home,
                p.total_ms,
                p.queueing_ms,
                p.network_ms,
                p.lock_wait_ms,
                p.quorum_wait_ms,
                p.coverage() * 100.0
            );
        }
        let (total, queueing, network, lock_wait, quorum_wait) = self.totals();
        if total > 0.0 {
            let pct = |x: f64| x / total * 100.0;
            let _ = writeln!(
                out,
                "\n{} committed write(s), {total:.3} ms total: \
                 queueing {:.1}%, network {:.1}%, lock-wait {:.1}%, quorum-wait {:.1}%",
                self.paths.len(),
                pct(queueing),
                pct(network),
                pct(lock_wait),
                pct(quorum_wait)
            );
        } else {
            let _ = writeln!(out, "\nno committed writes with spans in trace");
        }
        out
    }
}

/// Attribute one request span's latency to the four buckets.
fn decompose(request: &Span, set: &SpanSet) -> PathBreakdown {
    let end = request.end.expect("caller filtered on completed spans");
    let total = (end.as_millis_f64() - request.start.as_millis_f64()).max(0.0);
    let mut breakdown = PathBreakdown {
        request: request.a,
        home: request.start_node,
        total_ms: total,
        queueing_ms: total,
        network_ms: 0.0,
        lock_wait_ms: 0.0,
        quorum_wait_ms: 0.0,
    };

    // The coordination span serving this request: the earliest-starting
    // link target. Retried baseline rounds link once per round, so the
    // first round marks the end of pure queueing.
    let Some(work) = set
        .linked_from(request.id)
        .filter_map(|id| set.get(id))
        .min_by_key(|s| s.start)
    else {
        // No link recorded (e.g. trace truncated before dispatch):
        // everything stays attributed to queueing.
        return breakdown;
    };

    let clamp = |x: f64, hi: f64| x.clamp(0.0, hi);
    breakdown.queueing_ms = clamp(
        work.start.as_millis_f64() - request.start.as_millis_f64(),
        total,
    );
    let remaining = total - breakdown.queueing_ms;

    match work.kind {
        SpanKind::Dispatch => {
            // MARP: the lock phase runs from dispatch until the last
            // lock-acquisition round closed; inside it, migration spans
            // are network time and the rest is lock-wait. Everything
            // after the lock phase is the update quorum plus commit
            // propagation back to the home replica.
            let dispatched = work.start.as_millis_f64();
            let lock_end = set
                .children_of(work.id)
                .filter(|c| c.kind == SpanKind::LockAcquire)
                .filter_map(|c| c.end)
                .map(|t| t.as_millis_f64())
                .fold(dispatched, f64::max);
            let lock_phase = clamp(lock_end - dispatched, remaining);
            let migrate_total: f64 = set
                .children_of(work.id)
                .filter(|c| c.kind == SpanKind::Migrate)
                .filter_map(Span::duration_ms)
                .sum();
            breakdown.network_ms = clamp(migrate_total, lock_phase);
            breakdown.lock_wait_ms = lock_phase - breakdown.network_ms;
            breakdown.quorum_wait_ms = remaining - lock_phase;
        }
        SpanKind::Request
        | SpanKind::Migrate
        | SpanKind::LockAcquire
        | SpanKind::UpdateQuorum
        | SpanKind::Commit
        | SpanKind::Read => {
            // Baselines link the request straight to an UpdateQuorum
            // round: no mobile agent, so there is no migration or
            // lock-list time to separate out.
            breakdown.quorum_wait_ms = remaining;
        }
    }
    breakdown
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::{span_id, NodeId, SimTime, SpanId, TraceEvent, TraceLog};

    fn start(
        log: &mut TraceLog,
        at: u64,
        node: NodeId,
        kind: SpanKind,
        a: u64,
        b: u64,
        parent: SpanId,
    ) {
        log.push(
            SimTime::from_millis(at),
            node,
            TraceEvent::SpanStart {
                id: span_id(kind, a, b),
                parent,
                kind,
                a,
                b,
            },
        );
    }

    fn end(log: &mut TraceLog, at: u64, node: NodeId, kind: SpanKind, a: u64, b: u64) {
        log.push(
            SimTime::from_millis(at),
            node,
            TraceEvent::SpanEnd {
                id: span_id(kind, a, b),
                kind,
            },
        );
    }

    fn link(log: &mut TraceLog, at: u64, from: SpanId, to: SpanId) {
        log.push(
            SimTime::from_millis(at),
            0,
            TraceEvent::SpanLink { from, to },
        );
    }

    #[test]
    fn marp_write_decomposes_into_all_four_buckets() {
        let mut log = TraceLog::new();
        let agent = 42u64;
        let dispatch = span_id(SpanKind::Dispatch, agent, 0);
        // Request arrives at t=0, agent dispatched t=2 (queueing 2ms).
        start(&mut log, 0, 0, SpanKind::Request, 100, 0, 0);
        start(&mut log, 2, 0, SpanKind::Dispatch, agent, 0, 0);
        link(&mut log, 2, span_id(SpanKind::Request, 100, 0), dispatch);
        // Lock phase t=2..10 containing one 3ms migration.
        start(&mut log, 2, 0, SpanKind::LockAcquire, agent, 1, dispatch);
        start(
            &mut log,
            4,
            0,
            SpanKind::Migrate,
            agent,
            (1 << 32) | 1,
            dispatch,
        );
        end(&mut log, 7, 1, SpanKind::Migrate, agent, (1 << 32) | 1);
        end(&mut log, 10, 1, SpanKind::LockAcquire, agent, 1);
        // Quorum + commit back home at t=14.
        end(&mut log, 14, 0, SpanKind::Request, 100, 0);

        let report = CriticalPathReport::from_trace(&log);
        assert_eq!(report.paths.len(), 1);
        let p = &report.paths[0];
        assert_eq!(p.request, 100);
        assert_eq!(p.total_ms, 14.0);
        assert_eq!(p.queueing_ms, 2.0);
        assert_eq!(p.network_ms, 3.0);
        assert_eq!(p.lock_wait_ms, 5.0);
        assert_eq!(p.quorum_wait_ms, 4.0);
        assert_eq!(p.coverage(), 1.0);
        assert_eq!(report.min_coverage(), 1.0);
    }

    #[test]
    fn baseline_write_folds_everything_into_quorum_wait() {
        let mut log = TraceLog::new();
        let round = span_id(SpanKind::UpdateQuorum, 7, 3);
        start(&mut log, 0, 1, SpanKind::Request, 200, 1, 0);
        start(&mut log, 1, 1, SpanKind::UpdateQuorum, 7, 3, 0);
        link(&mut log, 1, span_id(SpanKind::Request, 200, 1), round);
        end(&mut log, 6, 1, SpanKind::UpdateQuorum, 7, 3);
        end(&mut log, 8, 1, SpanKind::Request, 200, 1);

        let report = CriticalPathReport::from_trace(&log);
        let p = &report.paths[0];
        assert_eq!(p.queueing_ms, 1.0);
        assert_eq!(p.network_ms, 0.0);
        assert_eq!(p.lock_wait_ms, 0.0);
        assert_eq!(p.quorum_wait_ms, 7.0);
        assert_eq!(p.coverage(), 1.0);
    }

    #[test]
    fn unlinked_request_counts_as_pure_queueing() {
        let mut log = TraceLog::new();
        start(&mut log, 0, 0, SpanKind::Request, 5, 0, 0);
        end(&mut log, 4, 0, SpanKind::Request, 5, 0);
        let report = CriticalPathReport::from_trace(&log);
        let p = &report.paths[0];
        assert_eq!(p.queueing_ms, 4.0);
        assert_eq!(p.coverage(), 1.0);
    }

    #[test]
    fn clamping_never_produces_negative_buckets() {
        // Pathological: lock round "ends" after the request completed,
        // and migrations longer than the whole lock phase.
        let mut log = TraceLog::new();
        let agent = 9u64;
        let dispatch = span_id(SpanKind::Dispatch, agent, 0);
        start(&mut log, 0, 0, SpanKind::Request, 300, 0, 0);
        start(&mut log, 1, 0, SpanKind::Dispatch, agent, 0, 0);
        link(&mut log, 1, span_id(SpanKind::Request, 300, 0), dispatch);
        start(&mut log, 1, 0, SpanKind::LockAcquire, agent, 1, dispatch);
        start(
            &mut log,
            1,
            0,
            SpanKind::Migrate,
            agent,
            (1 << 32) | 2,
            dispatch,
        );
        end(&mut log, 30, 2, SpanKind::Migrate, agent, (1 << 32) | 2);
        end(&mut log, 40, 2, SpanKind::LockAcquire, agent, 1);
        end(&mut log, 10, 0, SpanKind::Request, 300, 0);

        let report = CriticalPathReport::from_trace(&log);
        let p = &report.paths[0];
        assert!(p.queueing_ms >= 0.0);
        assert!(p.network_ms >= 0.0);
        assert!(p.lock_wait_ms >= 0.0);
        assert!(p.quorum_wait_ms >= 0.0);
        let sum = p.queueing_ms + p.network_ms + p.lock_wait_ms + p.quorum_wait_ms;
        assert!((sum - p.total_ms).abs() < 1e-9);
        assert_eq!(p.coverage(), 1.0);
    }

    #[test]
    fn report_renders_aggregate_line() {
        let mut log = TraceLog::new();
        start(&mut log, 0, 0, SpanKind::Request, 1, 0, 0);
        end(&mut log, 2, 0, SpanKind::Request, 1, 0);
        let text = CriticalPathReport::from_trace(&log).render();
        assert!(text.contains("1 committed write(s)"));
        assert!(text.contains("queueing 100.0%"));
    }
}
