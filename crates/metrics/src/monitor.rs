//! Incremental invariant monitoring.
//!
//! [`InvariantMonitor`] is the streaming core of the post-run auditor
//! ([`crate::audit`]): it consumes trace records one at a time and
//! flags a violation the moment the offending record is observed. The
//! post-run [`crate::audit`] functions feed it a whole trace; the
//! `marp-mcheck` model checker feeds it the trace *suffix* produced by
//! each scheduling step, so an interleaving that breaks an invariant is
//! caught at the first bad intermediate state, not at quiescence.
//!
//! Rules (matching the paper's claims, see `DESIGN.md`):
//!
//! * **order-preservation** — every replica applies the same
//!   `(agent, key)` for each committed version (Theorems 1–2: one
//!   highest-priority agent per version, all replicas agree).
//! * **in-order-application** — each replica's applied versions are
//!   dense and increasing.
//! * **theorem-3-visits** — every lock grant took between ⌊N/2⌋+1
//!   and N server visits ([`theorem3_visits`]).
//! * **duplicate-apply** — no replica writes the data for the same
//!   client request twice (exactly-once: a regenerated agent's commit
//!   for an already-applied request must be suppressed, which the
//!   store traces as `commit-suppressed` instead of `CommitApplied`;
//!   suppressed slots still advance the denseness cursor).
//! * **version-conflict** — no server is offered, for a version it has
//!   applied, a record of another request (the store traces
//!   `version-conflict`): divergence flagged where the two histories
//!   meet, even when each replica's own applies look consistent.
//! * **lost-update** (quiescent-only) — a request that reported
//!   completion must have its commit applied by at least one replica.
//!   Only meaningful once no messages are in flight, so it is exposed
//!   as [`InvariantMonitor::quiescent_violations`] rather than checked
//!   on every record.

use crate::audit::{AuditReport, Violation};
use marp_sim::{trace, AgentKey, NodeId, TraceEvent, TraceRecord};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::RangeInclusive;

/// Theorem 3's window: a winning agent visits between ⌊N/2⌋+1 (a strict
/// majority, ⌈(N+1)/2⌉ in the paper's words) and N of `n_servers`.
pub fn theorem3_visits(n_servers: usize) -> RangeInclusive<usize> {
    n_servers / 2 + 1..=n_servers
}

/// Streaming invariant checker over protocol trace records.
#[derive(Debug, Clone)]
pub struct InvariantMonitor {
    n_servers: usize,
    check_order: bool,
    /// Whether version order is tracked per object key (MARP's keyed
    /// store: one dense chain per key) or globally (one dense chain
    /// across all keys — MCV, primary copy). The chain id is the key
    /// in per-key mode and 0 otherwise.
    per_key: bool,
    /// (chain, version) -> (agent, key) from the first replica to
    /// apply it.
    version_owner: BTreeMap<(u64, u64), (AgentKey, u64)>,
    /// Per-(node, chain) last applied version.
    last_applied: HashMap<(NodeId, u64), u64>,
    /// request -> object key, learned from applies; routes
    /// `commit-suppressed` slots (which carry only version + request)
    /// to the right chain in per-key mode.
    request_key: HashMap<u64, u64>,
    /// request -> completion count.
    completions: HashMap<u64, u64>,
    /// Requests some replica has applied a commit for.
    committed_requests: HashSet<u64>,
    /// (node, request) pairs whose data write has been applied — a
    /// second `CommitApplied` for a pair is a duplicate-apply violation.
    applied_at: HashSet<(NodeId, u64)>,
    violations: Vec<Violation>,
    lock_grants: u64,
    tie_grants: u64,
    duplicate_completions: u64,
}

impl InvariantMonitor {
    /// Full checking for protocols with a dense global version order
    /// (MARP, MCV, primary copy). `n_servers` drives the Theorem 3
    /// visit bounds; pass 0 to skip visit checking (message-passing
    /// protocols report 0 visits).
    pub fn strict(n_servers: usize) -> Self {
        Self::new(n_servers, true, false)
    }

    /// Full checking for MARP's keyed store: each object key has its
    /// own dense version chain, so order-preservation, single committer
    /// per version, and denseness all hold *per key* rather than
    /// globally. Single-key traces audit identically under `strict`
    /// and `keyed`.
    pub fn keyed(n_servers: usize) -> Self {
        Self::new(n_servers, true, true)
    }

    /// Checking for protocols *without* a dense version order (the
    /// Available Copy and weighted-voting baselines use
    /// last-writer-wins timestamps and per-key versions): version-order
    /// rules are skipped, counters still accumulate.
    pub fn relaxed() -> Self {
        Self::new(0, false, false)
    }

    fn new(n_servers: usize, check_order: bool, per_key: bool) -> Self {
        InvariantMonitor {
            n_servers,
            check_order,
            per_key,
            version_owner: BTreeMap::new(),
            last_applied: HashMap::new(),
            request_key: HashMap::new(),
            completions: HashMap::new(),
            committed_requests: HashSet::new(),
            applied_at: HashSet::new(),
            violations: Vec::new(),
            lock_grants: 0,
            tie_grants: 0,
            duplicate_completions: 0,
        }
    }

    /// Consume one trace record, appending any violation it triggers.
    pub fn observe(&mut self, record: &TraceRecord) {
        match &record.event {
            TraceEvent::CommitApplied {
                node,
                version,
                agent,
                key,
                request,
            } => {
                self.committed_requests.insert(*request);
                let chain = if self.per_key { *key } else { 0 };
                if !self.check_order {
                    self.version_owner
                        .entry((chain, *version))
                        .or_insert((*agent, *key));
                    return;
                }
                self.request_key.insert(*request, *key);
                if !self.applied_at.insert((*node, *request)) {
                    self.violations.push(Violation {
                        rule: "duplicate-apply",
                        detail: format!(
                            "node {node} applied the data write for request {request:#x} \
                             twice (second time as version {version})"
                        ),
                    });
                }
                match self.version_owner.get(&(chain, *version)) {
                    Some(&(owner, owner_key)) => {
                        if owner != *agent || owner_key != *key {
                            self.violations.push(Violation {
                                rule: "order-preservation",
                                detail: format!(
                                    "version {version} (chain {chain}) applied as \
                                     agent={agent:#x} key={key} at node {node}, but first \
                                     seen as agent={owner:#x} key={owner_key}"
                                ),
                            });
                        }
                    }
                    None => {
                        self.version_owner.insert((chain, *version), (*agent, *key));
                    }
                }
                self.advance(*node, chain, *version, "applied");
            }
            TraceEvent::LockGranted {
                visits, via_tie, ..
            } => {
                self.lock_grants += 1;
                if *via_tie {
                    self.tie_grants += 1;
                }
                let (min, max) = theorem3_visits(self.n_servers).into_inner();
                if self.n_servers > 0 && !(min..=max).contains(&(*visits as usize)) {
                    self.violations.push(Violation {
                        rule: "theorem-3-visits",
                        detail: format!(
                            "lock granted after {visits} visits, outside [{min}, {max}]"
                        ),
                    });
                }
            }
            TraceEvent::UpdateCompleted { request, .. } => {
                let count = self.completions.entry(*request).or_insert(0);
                *count += 1;
                if *count == 2 {
                    self.duplicate_completions += 1;
                }
            }
            // A suppressed duplicate apply burns its version slot: the
            // data does not move, but the slot must still advance the
            // replica's denseness cursor or the next real apply would
            // be flagged as a gap.
            TraceEvent::Custom {
                kind: trace::COMMIT_SUPPRESSED,
                a: version,
                b: request,
            } => {
                if !self.check_order {
                    return;
                }
                // The event carries no key; in per-key mode the chain is
                // recovered from the request's first observed apply
                // (suppression implies the node applied it before, so
                // the mapping is always known by now).
                let chain = if self.per_key {
                    match self.request_key.get(request) {
                        Some(&key) => key,
                        None => return,
                    }
                } else {
                    0
                };
                self.advance(record.node, chain, *version, "suppressed");
            }
            TraceEvent::Custom {
                kind: trace::VERSION_CONFLICT,
                a: version,
                b: request,
            } if self.check_order => {
                self.violations.push(Violation {
                    rule: trace::VERSION_CONFLICT,
                    detail: format!(
                        "node {} was offered request {request:#x} as version {version}, \
                         which it has applied as another request",
                        record.node
                    ),
                });
            }
            _ => {}
        }
    }

    /// Move `node`'s denseness cursor on `chain` to `version`, which the
    /// node just `did` (applied or suppressed): anything but the next
    /// version is out of order.
    fn advance(&mut self, node: NodeId, chain: u64, version: u64, did: &str) {
        let last = self.last_applied.entry((node, chain)).or_insert(0);
        if version != *last + 1 {
            self.violations.push(Violation {
                rule: "in-order-application",
                detail: format!(
                    "node {node} {did} version {version} on chain {chain} after {last}"
                ),
            });
        }
        *last = (*last).max(version);
    }

    /// Consume a slice of records (a whole trace, or the suffix a
    /// scheduling step produced).
    pub fn observe_all(&mut self, records: &[TraceRecord]) {
        for record in records {
            self.observe(record);
        }
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no invariant has been violated so far.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Distinct requests that have reported completion.
    pub fn completed_requests(&self) -> usize {
        self.completions.len()
    }

    /// Distinct versions committed system-wide so far.
    pub fn committed_versions(&self) -> u64 {
        self.version_owner.len() as u64
    }

    /// Whether any replica has applied a commit for `request` (the
    /// durability side of the chaos harness's acknowledged ⊆ committed
    /// check).
    pub fn request_committed(&self, request: u64) -> bool {
        self.committed_requests.contains(&request)
    }

    /// The quiescent-only checks, returned without being recorded:
    /// completed requests whose commit no replica ever applied (a lost
    /// update — the committer believed it won but its write vanished).
    /// Only sound when no messages are in flight; callers decide when
    /// that holds (mcheck checks it at terminal states).
    pub fn quiescent_violations(&self) -> Vec<Violation> {
        if !self.check_order {
            return Vec::new();
        }
        let mut lost: Vec<&u64> = self
            .completions
            .keys()
            .filter(|request| !self.committed_requests.contains(request))
            .collect();
        lost.sort();
        lost.into_iter()
            .map(|request| Violation {
                rule: "lost-update",
                detail: format!(
                    "request {request:#x} reported completion but no replica applied its commit"
                ),
            })
            .collect()
    }

    /// Snapshot the accumulated counters and violations as an
    /// [`AuditReport`] (what the post-run [`crate::audit`] returns).
    pub fn report(&self) -> AuditReport {
        AuditReport {
            violations: self.violations.clone(),
            committed_versions: self.committed_versions(),
            lock_grants: self.lock_grants,
            tie_grants: self.tie_grants,
            duplicate_completions: self.duplicate_completions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::SimTime;

    fn rec(event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime::ZERO,
            node: 0,
            event,
        }
    }

    fn commit(node: NodeId, version: u64, agent: AgentKey, request: u64) -> TraceRecord {
        rec(TraceEvent::CommitApplied {
            node,
            version,
            agent,
            key: 1,
            request,
        })
    }

    fn completed(request: u64) -> TraceRecord {
        rec(TraceEvent::UpdateCompleted {
            request,
            home: 0,
            arrived: SimTime::ZERO,
            dispatched: SimTime::ZERO,
            locked: SimTime::ZERO,
            visits: 3,
        })
    }

    #[test]
    fn violation_fires_on_the_offending_record() {
        let mut mon = InvariantMonitor::strict(3);
        mon.observe(&commit(0, 1, 7, 0xa));
        assert!(mon.ok());
        // A second agent claiming version 1 is flagged immediately.
        mon.observe(&commit(1, 1, 9, 0xb));
        assert!(!mon.ok());
        assert_eq!(mon.violations()[0].rule, "order-preservation");
    }

    #[test]
    fn lost_update_detected_at_quiescence_only() {
        let mut mon = InvariantMonitor::strict(3);
        mon.observe(&completed(0xa));
        // Nothing is flagged while the commit may still be in flight...
        assert!(mon.ok());
        // ...but at quiescence the missing commit is a violation.
        let lost = mon.quiescent_violations();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].rule, "lost-update");
        // Once any replica applies it, the request is accounted for.
        mon.observe(&commit(0, 1, 7, 0xa));
        assert!(mon.quiescent_violations().is_empty());
    }

    #[test]
    fn relaxed_mode_skips_order_and_lost_update_rules() {
        let mut mon = InvariantMonitor::relaxed();
        mon.observe(&commit(0, 5, 7, 0xa));
        mon.observe(&commit(1, 5, 9, 0xb));
        mon.observe(&completed(0xc));
        assert!(mon.ok());
        assert!(mon.quiescent_violations().is_empty());
        assert_eq!(mon.committed_versions(), 1);
    }

    #[test]
    fn report_snapshot_matches_counters() {
        let mut mon = InvariantMonitor::strict(0);
        mon.observe(&commit(0, 1, 7, 0xa));
        mon.observe(&completed(0xa));
        mon.observe(&completed(0xa));
        let report = mon.report();
        assert!(report.ok());
        assert_eq!(report.committed_versions, 1);
        assert_eq!(report.duplicate_completions, 1);
        assert_eq!(mon.completed_requests(), 1);
    }

    fn suppressed(node: NodeId, version: u64, request: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::ZERO,
            node,
            event: TraceEvent::Custom {
                kind: trace::COMMIT_SUPPRESSED,
                a: version,
                b: request,
            },
        }
    }

    #[test]
    fn version_conflict_fails_on_the_record_that_reports_it() {
        let conflict = TraceRecord {
            at: SimTime::ZERO,
            node: 3,
            event: TraceEvent::Custom {
                kind: trace::VERSION_CONFLICT,
                a: 17,
                b: 0xb,
            },
        };
        let mut mon = InvariantMonitor::keyed(5);
        mon.observe(&commit(3, 1, 7, 0xa));
        assert!(mon.ok());
        mon.observe(&conflict);
        assert_eq!(mon.violations().len(), 1);
        assert_eq!(mon.violations()[0].rule, trace::VERSION_CONFLICT);
        assert!(mon.violations()[0].detail.contains("node 3"));
        // Protocols without a dense version order number freely.
        let mut relaxed = InvariantMonitor::relaxed();
        relaxed.observe(&conflict);
        assert!(relaxed.ok());
    }

    #[test]
    fn duplicate_apply_is_flagged_per_node() {
        let mut mon = InvariantMonitor::strict(3);
        mon.observe(&commit(0, 1, 7, 0xa));
        // The same request applied again at the same node (as a later
        // version) is an exactly-once violation...
        mon.observe(&commit(0, 2, 9, 0xa));
        assert!(mon.violations().iter().any(|v| v.rule == "duplicate-apply"));
        // ...but the first apply at a *different* node is fine.
        let mut mon = InvariantMonitor::strict(3);
        mon.observe(&commit(0, 1, 7, 0xa));
        mon.observe(&commit(1, 1, 7, 0xa));
        assert!(mon.ok());
        assert!(mon.request_committed(0xa));
        assert!(!mon.request_committed(0xb));
    }

    #[test]
    fn suppressed_commits_advance_the_denseness_cursor() {
        let mut mon = InvariantMonitor::strict(3);
        mon.observe(&commit(0, 1, 7, 0xa));
        // Version 2 carried a duplicate of request 0xa: node 0 burns
        // the slot instead of re-applying.
        mon.observe(&suppressed(0, 2, 0xa));
        mon.observe(&commit(0, 3, 9, 0xb));
        assert!(mon.ok(), "suppressed slot must not read as a gap");
        // A suppression that itself skips a version is still a gap.
        let mut mon = InvariantMonitor::strict(3);
        mon.observe(&commit(0, 1, 7, 0xa));
        mon.observe(&suppressed(0, 3, 0xa));
        assert!(mon
            .violations()
            .iter()
            .any(|v| v.rule == "in-order-application"));
    }

    fn commit_key(
        node: NodeId,
        key: u64,
        version: u64,
        agent: AgentKey,
        request: u64,
    ) -> TraceRecord {
        rec(TraceEvent::CommitApplied {
            node,
            version,
            agent,
            key,
            request,
        })
    }

    #[test]
    fn keyed_mode_tracks_versions_per_key() {
        // Two keys, each with its own dense chain starting at 1: a
        // global monitor would flag the second v1 as a divergent owner
        // and a denseness violation; the keyed monitor accepts it.
        let mut mon = InvariantMonitor::keyed(3);
        mon.observe(&commit_key(0, 1, 1, 7, 0xa));
        mon.observe(&commit_key(0, 2, 1, 9, 0xb));
        mon.observe(&commit_key(0, 1, 2, 7, 0xc));
        assert!(mon.ok(), "{:?}", mon.violations());
        assert_eq!(mon.committed_versions(), 3);
        // Within one key the rules still bite: key 1 skipping v3 → v5
        // is a gap...
        mon.observe(&commit_key(0, 1, 5, 7, 0xd));
        assert!(!mon.ok());
        assert_eq!(mon.violations()[0].rule, "in-order-application");
        // ...and a second agent claiming key 2's v1 diverges.
        let mut mon = InvariantMonitor::keyed(3);
        mon.observe(&commit_key(0, 2, 1, 9, 0xb));
        mon.observe(&commit_key(1, 2, 1, 8, 0xe));
        assert!(mon
            .violations()
            .iter()
            .any(|v| v.rule == "order-preservation"));
    }

    #[test]
    fn keyed_and_strict_agree_on_single_key_traces() {
        let records = [
            commit(0, 1, 7, 0xa),
            commit(1, 1, 7, 0xa),
            commit(0, 2, 9, 0xb),
            suppressed(0, 3, 0xa),
        ];
        let mut strict = InvariantMonitor::strict(3);
        let mut keyed = InvariantMonitor::keyed(3);
        strict.observe_all(&records);
        keyed.observe_all(&records);
        assert_eq!(strict.violations(), keyed.violations());
        assert_eq!(strict.committed_versions(), keyed.committed_versions());
    }

    #[test]
    fn keyed_mode_routes_suppressed_slots_to_the_request_chain() {
        let mut mon = InvariantMonitor::keyed(3);
        mon.observe(&commit_key(0, 4, 1, 7, 0xa));
        mon.observe(&commit_key(0, 9, 1, 8, 0xb));
        // Request 0xa was applied on key 4's chain; its suppressed
        // duplicate burns key 4's v2 slot without touching key 9.
        mon.observe(&suppressed(0, 2, 0xa));
        mon.observe(&commit_key(0, 4, 3, 9, 0xc));
        mon.observe(&commit_key(0, 9, 2, 9, 0xd));
        assert!(mon.ok(), "{:?}", mon.violations());
    }

    #[test]
    fn span_events_are_skipped_without_violations() {
        use marp_sim::{span_id, SpanKind};
        let mut mon = InvariantMonitor::strict(3);
        mon.observe(&rec(TraceEvent::SpanStart {
            id: span_id(SpanKind::LockAcquire, 7, 1),
            parent: span_id(SpanKind::Dispatch, 7, 0),
            kind: SpanKind::LockAcquire,
            a: 7,
            b: 1,
        }));
        mon.observe(&rec(TraceEvent::SpanLink {
            from: span_id(SpanKind::Request, 1, 0),
            to: span_id(SpanKind::Dispatch, 7, 0),
        }));
        mon.observe(&rec(TraceEvent::SpanEnd {
            id: span_id(SpanKind::LockAcquire, 7, 1),
            kind: SpanKind::LockAcquire,
        }));
        // No counters move, no rules fire: spans are observability-only.
        assert!(mon.ok());
        assert_eq!(mon.lock_grants, 0);
        assert!(mon.quiescent_violations().is_empty());
        // Interleaving spans with real protocol events changes nothing.
        mon.observe(&commit(0, 1, 7, 0xa));
        mon.observe(&completed(0xa));
        assert!(mon.ok());
        assert!(mon.quiescent_violations().is_empty());
    }
}
