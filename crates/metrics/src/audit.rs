//! Post-run consistency auditing.
//!
//! Every experiment and integration test ends by replaying the trace
//! through [`audit`], which machine-checks the paper's claims:
//!
//! * **Order preservation** — every replica applies the same commit for
//!   each version, in strictly increasing version order (the paper's
//!   "all updates are performed in exactly the same order at all the
//!   replicas").
//! * **Single committer per version** — no two agents ever commit the
//!   same version (the operational consequence of Theorem 2).
//! * **Theorem 3** — every lock grant took between ⌈(N+1)/2⌉ and N
//!   server visits.
//! * **No lost completions** — each completed request completed at most
//!   once per agent generation (re-dispatched batches may legitimately
//!   complete twice; the auditor reports them separately).

use crate::monitor::InvariantMonitor;
use marp_sim::TraceLog;

/// One detected violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which rule was broken.
    pub rule: &'static str,
    /// Human-readable details.
    pub detail: String,
}

/// Audit results.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// All violations found (empty = consistent run).
    pub violations: Vec<Violation>,
    /// Versions committed system-wide.
    pub committed_versions: u64,
    /// Lock grants observed.
    pub lock_grants: u64,
    /// Grants decided by the tie/stuck rule.
    pub tie_grants: u64,
    /// Requests that completed more than once (re-dispatch overlap —
    /// benign for consistency, reported for visibility).
    pub duplicate_completions: u64,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with a readable message if any invariant was violated
    /// (used by tests and experiment binaries).
    pub fn assert_ok(&self) {
        assert!(
            self.ok(),
            "consistency audit failed with {} violation(s):\n{}",
            self.violations.len(),
            self.violations
                .iter()
                .map(|v| format!("  [{}] {}", v.rule, v.detail))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Replay a trace and check the invariants. `n_servers` drives the
/// Theorem 3 bounds; pass 0 to skip visit checking (message-passing
/// baselines report 0 visits).
///
/// This is the post-run face of [`InvariantMonitor`]; the model checker
/// (`marp-mcheck`) uses the monitor directly to check every
/// intermediate state.
pub fn audit(trace: &TraceLog, n_servers: usize) -> AuditReport {
    let mut monitor = InvariantMonitor::strict(n_servers);
    monitor.observe_all(trace.records());
    monitor.report()
}

/// Replay a trace and check the invariants for MARP's keyed store:
/// every object key carries its own dense version chain, so order
/// preservation, single-committer-per-version, and denseness are all
/// checked *per key*. Single-key traces audit identically under
/// [`audit`] and `audit_keyed`.
pub fn audit_keyed(trace: &TraceLog, n_servers: usize) -> AuditReport {
    let mut monitor = InvariantMonitor::keyed(n_servers);
    monitor.observe_all(trace.records());
    monitor.report()
}

/// Audit for protocols *without* a dense global version order (the
/// Available Copy and weighted-voting baselines use last-writer-wins
/// timestamps and per-key versions): version-order rules are skipped,
/// counters and duplicate-completion detection still run.
pub fn audit_relaxed(trace: &TraceLog) -> AuditReport {
    let mut monitor = InvariantMonitor::relaxed();
    monitor.observe_all(trace.records());
    monitor.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::{AgentKey, NodeId, SimTime, TraceEvent};

    fn commit(node: NodeId, version: u64, agent: AgentKey, key: u64) -> TraceEvent {
        TraceEvent::CommitApplied {
            node,
            version,
            agent,
            key,
            request: agent,
        }
    }

    fn log(events: Vec<TraceEvent>) -> TraceLog {
        let mut log = TraceLog::new();
        for (i, event) in events.into_iter().enumerate() {
            log.push(SimTime::from_millis(i as u64), 0, event);
        }
        log
    }

    #[test]
    fn clean_run_passes() {
        let trace = log(vec![
            commit(0, 1, 7, 1),
            commit(1, 1, 7, 1),
            commit(0, 2, 8, 2),
            commit(1, 2, 8, 2),
            TraceEvent::LockGranted {
                agent: 7,
                node: 0,
                visits: 3,
                via_tie: false,
            },
        ]);
        let report = audit(&trace, 5);
        assert!(report.ok());
        assert_eq!(report.committed_versions, 2);
        assert_eq!(report.lock_grants, 1);
        report.assert_ok();
    }

    #[test]
    fn divergent_version_owner_is_flagged() {
        let trace = log(vec![commit(0, 1, 7, 1), commit(1, 1, 9, 1)]);
        let report = audit(&trace, 5);
        assert!(!report.ok());
        assert_eq!(report.violations[0].rule, "order-preservation");
    }

    #[test]
    fn out_of_order_application_is_flagged() {
        let trace = log(vec![commit(0, 2, 7, 1)]);
        let report = audit(&trace, 5);
        assert!(!report.ok());
        assert_eq!(report.violations[0].rule, "in-order-application");
    }

    #[test]
    fn theorem3_violation_is_flagged() {
        let trace = log(vec![TraceEvent::LockGranted {
            agent: 7,
            node: 0,
            visits: 1,
            via_tie: false,
        }]);
        let report = audit(&trace, 5);
        assert!(!report.ok());
        assert_eq!(report.violations[0].rule, "theorem-3-visits");
        // With visit checking disabled the same trace passes.
        assert!(audit(&trace, 0).ok());
    }

    fn completed(request: u64) -> TraceEvent {
        TraceEvent::UpdateCompleted {
            request,
            home: 0,
            arrived: SimTime::ZERO,
            dispatched: SimTime::ZERO,
            locked: SimTime::ZERO,
            visits: 3,
        }
    }

    #[test]
    fn duplicate_completions_counted_not_flagged() {
        let trace = log(vec![completed(5), completed(5)]);
        let report = audit(&trace, 0);
        assert!(report.ok());
        assert_eq!(report.duplicate_completions, 1);
    }

    #[test]
    fn redispatched_batch_double_completion_stays_consistent() {
        // A maintenance re-dispatch races the original agent: the request
        // completes under both generations but commits exactly one
        // version. Benign for consistency; counted for visibility.
        let trace = log(vec![
            completed(5),
            commit(0, 1, 5, 1),
            commit(1, 1, 5, 1),
            completed(5),
            // An unrelated second request triple-completing still counts
            // as one duplicate (first repeat only).
            completed(9),
            commit(0, 2, 9, 2),
            completed(9),
            completed(9),
        ]);
        let report = audit(&trace, 0);
        assert!(report.ok());
        assert_eq!(report.duplicate_completions, 2);
        assert_eq!(report.committed_versions, 2);
    }

    #[test]
    fn tie_grants_are_counted() {
        // One outright-majority grant, one via the paper's stuck-rule
        // tie-break; both inside the Theorem 3 visit window.
        let trace = log(vec![
            TraceEvent::LockGranted {
                agent: 7,
                node: 0,
                visits: 3,
                via_tie: false,
            },
            TraceEvent::LockGranted {
                agent: 9,
                node: 2,
                visits: 5,
                via_tie: true,
            },
        ]);
        let report = audit(&trace, 5);
        assert!(report.ok());
        assert_eq!(report.lock_grants, 2);
        assert_eq!(report.tie_grants, 1);
    }

    #[test]
    fn tie_grant_outside_visit_window_still_violates_theorem3() {
        // The stuck rule does not excuse a grant before reaching a
        // majority of servers.
        let trace = log(vec![TraceEvent::LockGranted {
            agent: 7,
            node: 0,
            visits: 2,
            via_tie: true,
        }]);
        let report = audit(&trace, 5);
        assert_eq!(report.tie_grants, 1);
        assert_eq!(report.violations[0].rule, "theorem-3-visits");
    }

    #[test]
    fn corrupted_trace_produces_a_violation_per_rule() {
        // Deliberately corrupted history hitting every incremental rule:
        // divergent owner for v1, a version gap at node 2, an
        // impossible 1-visit grant.
        let trace = log(vec![
            commit(0, 1, 7, 1),
            commit(1, 1, 9, 3), // order-preservation: v1 owner diverges
            commit(2, 2, 8, 2), // in-order-application: node 2 skips v1
            TraceEvent::LockGranted {
                agent: 7,
                node: 0,
                visits: 1, // theorem-3-visits: below ⌈(N+1)/2⌉
                via_tie: false,
            },
        ]);
        let report = audit(&trace, 5);
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"order-preservation"));
        assert!(rules.contains(&"in-order-application"));
        assert!(rules.contains(&"theorem-3-visits"));
        assert_eq!(report.violations.len(), 3);
    }

    #[test]
    #[should_panic(expected = "consistency audit failed")]
    fn assert_ok_panics_on_violation() {
        let trace = log(vec![commit(0, 3, 7, 1)]);
        audit(&trace, 5).assert_ok();
    }
}
