//! The protocol-independent replica server core.
//!
//! Both the MARP node (`marp-core`) and the message-passing baselines
//! (`marp-baselines`) embed a [`ServerCore`]: the versioned store, the
//! paper's Locking List and Updated List, client request intake with
//! reply bookkeeping, and the anti-entropy recovery exchange.

use crate::locking::{LockTable, UpdatedList};
use crate::msg::{ClientReply, ClientRequest, Operation, SyncMsg, WriteRequest};
use crate::store::{CommitRecord, VersionedStore};
use bytes::Bytes;
use marp_sim::{trace, Context, NodeId, SpanKey, TraceEvent};
use std::collections::HashMap;
use std::time::Duration;

/// Encodes a [`SyncMsg`] into the owner node's message space.
pub type SyncWrapFn = fn(SyncMsg) -> Bytes;

/// A consistent-read request awaiting protocol-level coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreshReadRequest {
    /// The client request id.
    pub id: u64,
    /// The client node to answer.
    pub client: NodeId,
    /// Key to read.
    pub key: u64,
}

/// What the owner node must do after client intake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientAction {
    /// Fully handled (plain read served from the local copy).
    Done,
    /// A write the protocol must coordinate.
    Write(WriteRequest),
    /// A consistent read the protocol must coordinate (MARP dispatches
    /// a read agent over a majority; protocols without that machinery
    /// may serve it locally, downgrading the guarantee).
    FreshRead(FreshReadRequest),
}

/// Configuration for a replica server core.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Lease on Locking List entries; long relative to protocol
    /// latencies so it only fires when an agent died with its host.
    pub lock_lease: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            lock_lease: Duration::from_secs(30),
        }
    }
}

/// Shared state and behaviour of one replica server.
pub struct ServerCore {
    me: NodeId,
    cfg: ServerConfig,
    /// The replicated data.
    pub store: VersionedStore,
    /// The paper's Locking List, generalized to one FIFO queue per
    /// object key.
    pub ll: LockTable,
    /// The paper's Updated List (global: agent ids are unique, and a
    /// finished agent is finished for whatever key it served).
    pub ul: UpdatedList,
    sync_wrap: SyncWrapFn,
    pending_clients: HashMap<u64, NodeId>,
    /// The list [`VersionedStore::offer_into`] appends to, drained by
    /// each record's application.
    offered: Vec<(CommitRecord, bool)>,
}

impl ServerCore {
    /// Create a server core for node `me` with the baselines' global
    /// version chain (see [`VersionedStore::new`]).
    pub fn new(me: NodeId, cfg: ServerConfig, sync_wrap: SyncWrapFn) -> Self {
        ServerCore {
            me,
            cfg,
            store: VersionedStore::new(),
            ll: LockTable::new(),
            ul: UpdatedList::new(),
            sync_wrap,
            pending_clients: HashMap::new(),
            offered: Vec::new(),
        }
    }

    /// Create a server core with per-key version chains (MARP's
    /// discipline under the keyed lock table — see
    /// [`VersionedStore::per_key`]).
    pub fn keyed(me: NodeId, cfg: ServerConfig, sync_wrap: SyncWrapFn) -> Self {
        ServerCore {
            store: VersionedStore::per_key(),
            ..Self::new(me, cfg, sync_wrap)
        }
    }

    /// This server's node id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The configured lock lease.
    pub fn lock_lease(&self) -> Duration {
        self.cfg.lock_lease
    }

    /// Handle a client request. Plain reads are answered immediately
    /// from the local copy (the paper's read-one rule: "a read operation
    /// may be executed on an arbitrary copy"); writes and consistent
    /// reads are returned to the owner for protocol-specific
    /// coordination.
    pub fn handle_client_request(
        &mut self,
        from: NodeId,
        request: ClientRequest,
        ctx: &mut dyn Context,
    ) -> ClientAction {
        ctx.trace(TraceEvent::RequestArrived {
            node: self.me,
            request: request.id,
            write: request.op.is_write(),
        });
        match request.op {
            Operation::Read { key } => {
                let stored = self.store.get(key);
                ctx.trace(TraceEvent::ReadServed {
                    node: self.me,
                    request: request.id,
                    version: stored.map_or(0, |s| s.version),
                });
                let reply = ClientReply::ReadOk {
                    id: request.id,
                    key,
                    value: stored.map(|s| s.value),
                    version: self.store.applied_version_for(key),
                };
                ctx.send(from, marp_wire::to_bytes(&reply));
                ClientAction::Done
            }
            Operation::Write { key, value } => {
                // Idempotent intake: a retried write that already
                // committed is answered from the request→version map
                // (exactly-once for the client even when the original
                // reply was lost); one that is still in flight only
                // refreshes the reply address — the protocol layer is
                // already working on it and must not dispatch it twice.
                if let Some(version) = self.store.request_version(request.id) {
                    ctx.trace(TraceEvent::Custom {
                        kind: "retry-answered",
                        a: request.id,
                        b: version,
                    });
                    let reply = ClientReply::WriteDone {
                        id: request.id,
                        version,
                    };
                    ctx.send(from, marp_wire::to_bytes(&reply));
                    return ClientAction::Done;
                }
                if let std::collections::hash_map::Entry::Occupied(mut entry) =
                    self.pending_clients.entry(request.id)
                {
                    entry.insert(from);
                    ctx.trace(TraceEvent::Custom {
                        kind: "retry-in-flight",
                        a: request.id,
                        b: u64::from(from),
                    });
                    return ClientAction::Done;
                }
                // The request span covers the write's whole life at this
                // server: intake here, closed when `apply_commits`
                // answers the client.
                ctx.trace(SpanKey::request(request.id, self.me).start(None));
                self.pending_clients.insert(request.id, from);
                ClientAction::Write(WriteRequest {
                    id: request.id,
                    client: from,
                    key,
                    value,
                    arrived: ctx.now(),
                })
            }
            Operation::ReadFresh { key } => ClientAction::FreshRead(FreshReadRequest {
                id: request.id,
                client: from,
                key,
            }),
        }
    }

    /// Serve a consistent read from the local copy anyway (protocols
    /// without quorum-read machinery downgrade the guarantee; callers
    /// must document that).
    pub fn serve_fresh_read_locally(&mut self, read: FreshReadRequest, ctx: &mut dyn Context) {
        let stored = self.store.get(read.key);
        ctx.trace(TraceEvent::ReadServed {
            node: self.me,
            request: read.id,
            version: stored.map_or(0, |s| s.version),
        });
        let reply = ClientReply::ReadOk {
            id: read.id,
            key: read.key,
            value: stored.map(|s| s.value),
            version: self.store.applied_version_for(read.key),
        };
        ctx.send(read.client, marp_wire::to_bytes(&reply));
    }

    /// Apply a set of commit records (from a COMMIT broadcast or a sync
    /// push). Emits `CommitApplied` traces and answers clients whose
    /// writes this server accepted. A record whose request already
    /// committed under an earlier version is *suppressed*: the version
    /// slot burns (keeping the log dense) but no data moves, no client
    /// is answered, and a `commit-suppressed` trace marks the burn. A
    /// record for a version this server applied as *another* request is
    /// dropped like a duplicate, but loudly: `version-conflict` says
    /// two histories exist, at the step where they meet.
    /// Appends to `applied` the records that actually applied here, in
    /// order; what that means for their agents' lock requests is the
    /// protocol layer's to say.
    pub fn apply_commits(
        &mut self,
        records: &[CommitRecord],
        ctx: &mut dyn Context,
        applied: &mut Vec<CommitRecord>,
    ) {
        let mut offered = std::mem::take(&mut self.offered);
        for record in records {
            if self.store.conflicts_with(record) {
                ctx.trace(TraceEvent::Custom {
                    kind: trace::VERSION_CONFLICT,
                    a: record.version,
                    b: record.request,
                });
            }
            self.store
                .offer_into(record.clone(), ctx.now(), &mut offered);
            for (rec, suppressed) in offered.drain(..) {
                if suppressed {
                    ctx.trace(TraceEvent::Custom {
                        kind: trace::COMMIT_SUPPRESSED,
                        a: rec.version,
                        b: rec.request,
                    });
                    applied.push(rec);
                    continue;
                }
                ctx.trace(TraceEvent::CommitApplied {
                    node: self.me,
                    version: rec.version,
                    agent: rec.agent,
                    key: rec.key,
                    request: rec.request,
                });
                if let Some(client) = self.pending_clients.remove(&rec.request) {
                    // Only the accepting server holds the pending-client
                    // entry, so the commit and request spans each close
                    // exactly once.
                    ctx.trace(SpanKey::commit(rec.agent, rec.request).end());
                    ctx.trace(SpanKey::request(rec.request, self.me).end());
                    let reply = ClientReply::WriteDone {
                        id: rec.request,
                        version: rec.version,
                    };
                    ctx.send(client, marp_wire::to_bytes(&reply));
                }
                applied.push(rec);
            }
        }
        self.offered = offered;
    }

    /// Handle an anti-entropy message.
    pub fn handle_sync(&mut self, from: NodeId, msg: &SyncMsg, ctx: &mut dyn Context) {
        match msg {
            SyncMsg::Pull { versions } => {
                let records = self.store.suffix_for_versions(versions);
                if !records.is_empty() {
                    let reply = (self.sync_wrap)(SyncMsg::Push { records });
                    ctx.send(from, reply);
                }
            }
            SyncMsg::Push { records } => {
                self.apply_commits(records, ctx, &mut Vec::new());
            }
        }
    }

    /// If the store has a version gap (we saw a later commit than we can
    /// apply), pull the missing suffix from `peer`. Returns true if a
    /// pull was sent.
    pub fn pull_if_behind(&mut self, peer: NodeId, ctx: &mut dyn Context) -> bool {
        let behind = self.store.has_gap();
        if behind {
            self.pull_from(peer, ctx);
        }
        behind
    }

    /// Unconditionally pull history newer than ours from `peer` (used on
    /// recovery, when we do not yet know whether we missed anything).
    pub fn pull_from(&mut self, peer: NodeId, ctx: &mut dyn Context) {
        let msg = (self.sync_wrap)(SyncMsg::Pull {
            versions: self.store.chain_versions(),
        });
        ctx.send(peer, msg);
    }

    /// Purge expired Locking List entries; returns the purged agents so
    /// the owner can trace or react.
    pub fn purge_expired_locks(&mut self, ctx: &mut dyn Context) -> usize {
        let purged = self.ll.purge_expired(ctx.now());
        for (_key, agent) in &purged {
            ctx.trace(TraceEvent::Custom {
                kind: trace::LOCK_LEASE_EXPIRED,
                a: agent.key(),
                b: u64::from(self.me),
            });
        }
        purged.len()
    }

    /// Reset volatile state after a crash. The store's applied log, the
    /// Updated List and the Locking Lists' version counters model stable
    /// storage and survive; the Locking Lists' entries, buffered
    /// commits, and client bookkeeping are volatile.
    pub fn on_recover(&mut self) {
        self.store.clear_volatile();
        self.ll.clear_for_recovery();
        self.pending_clients.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::{RecordingCtx, SimTime};
    use std::collections::BTreeMap;

    /// A recording context for driving the core directly.
    fn test_ctx(me: NodeId) -> RecordingCtx {
        RecordingCtx::new(me, SimTime::from_millis(1))
    }

    fn sync_wrap(msg: SyncMsg) -> Bytes {
        marp_wire::to_bytes(&msg)
    }

    fn core(me: NodeId) -> ServerCore {
        ServerCore::new(me, ServerConfig::default(), sync_wrap)
    }

    /// Apply `records`; the records that applied.
    fn apply(
        core: &mut ServerCore,
        records: Vec<CommitRecord>,
        ctx: &mut RecordingCtx,
    ) -> Vec<CommitRecord> {
        let mut applied = Vec::new();
        core.apply_commits(&records, ctx, &mut applied);
        applied
    }

    fn commit(version: u64, request: u64) -> CommitRecord {
        CommitRecord {
            version,
            key: 1,
            value: version * 10,
            agent: 42,
            request,
            committed_at: SimTime::from_millis(version),
        }
    }

    #[test]
    fn reads_are_served_locally_and_traced() {
        let mut core = core(0);
        let mut ctx = test_ctx(0);
        let req = ClientRequest {
            id: 7,
            op: Operation::Read { key: 3 },
        };
        let action = core.handle_client_request(9, req, &mut ctx);
        assert_eq!(action, ClientAction::Done);
        assert_eq!(ctx.sent.len(), 1);
        assert_eq!(ctx.sent[0].0, 9);
        let reply: ClientReply = marp_wire::from_bytes(&ctx.sent[0].1).unwrap();
        assert_eq!(
            reply,
            ClientReply::ReadOk {
                id: 7,
                key: 3,
                value: None,
                version: 0
            }
        );
        assert!(ctx
            .traced
            .iter()
            .any(|e| matches!(e, TraceEvent::ReadServed { .. })));
    }

    #[test]
    fn writes_are_queued_for_the_protocol() {
        let mut core = core(0);
        let mut ctx = test_ctx(0);
        let req = ClientRequest {
            id: 8,
            op: Operation::Write { key: 2, value: 5 },
        };
        let ClientAction::Write(write) = core.handle_client_request(4, req, &mut ctx) else {
            panic!("expected a write action");
        };
        assert_eq!(write.key, 2);
        assert_eq!(write.client, 4);
        assert_eq!(core.pending_clients.len(), 1);
        assert!(ctx.sent.is_empty());
    }

    #[test]
    fn commit_answers_pending_client() {
        let mut core = core(0);
        let mut ctx = test_ctx(0);
        core.handle_client_request(
            4,
            ClientRequest {
                id: 8,
                op: Operation::Write { key: 2, value: 5 },
            },
            &mut ctx,
        );
        let applied = apply(&mut core, vec![commit(1, 8)], &mut ctx);
        assert_eq!(applied.len(), 1);
        assert_eq!(core.pending_clients.len(), 0);
        let reply: ClientReply = marp_wire::from_bytes(&ctx.sent.last().unwrap().1).unwrap();
        assert_eq!(reply, ClientReply::WriteDone { id: 8, version: 1 });
        assert!(ctx
            .traced
            .iter()
            .any(|e| matches!(e, TraceEvent::CommitApplied { version: 1, .. })));
    }

    #[test]
    fn retried_write_of_committed_request_is_answered_not_redispatched() {
        let mut core = core(0);
        let mut ctx = test_ctx(0);
        let req = ClientRequest {
            id: 8,
            op: Operation::Write { key: 2, value: 5 },
        };
        assert!(matches!(
            core.handle_client_request(4, req, &mut ctx),
            ClientAction::Write(_)
        ));
        apply(&mut core, vec![commit(1, 8)], &mut ctx);
        // The client's resend (it may have missed the reply) is answered
        // immediately from the request→version map.
        let action = core.handle_client_request(4, req, &mut ctx);
        assert_eq!(action, ClientAction::Done);
        let reply: ClientReply = marp_wire::from_bytes(&ctx.sent.last().unwrap().1).unwrap();
        assert_eq!(reply, ClientReply::WriteDone { id: 8, version: 1 });
        assert!(ctx.traced.iter().any(|e| matches!(
            e,
            TraceEvent::Custom {
                kind: "retry-answered",
                ..
            }
        )));
    }

    #[test]
    fn retried_write_in_flight_is_swallowed() {
        let mut core = core(0);
        let mut ctx = test_ctx(0);
        let req = ClientRequest {
            id: 8,
            op: Operation::Write { key: 2, value: 5 },
        };
        assert!(matches!(
            core.handle_client_request(4, req, &mut ctx),
            ClientAction::Write(_)
        ));
        // Resend while the original dispatch is still working: no second
        // Write action, no reply yet.
        let sent_before = ctx.sent.len();
        assert_eq!(
            core.handle_client_request(4, req, &mut ctx),
            ClientAction::Done
        );
        assert_eq!(core.pending_clients.len(), 1);
        assert_eq!(ctx.sent.len(), sent_before);
    }

    #[test]
    fn duplicate_commit_is_suppressed_and_client_answered_once() {
        let mut core = core(0);
        let mut ctx = test_ctx(0);
        core.handle_client_request(
            4,
            ClientRequest {
                id: 8,
                op: Operation::Write { key: 2, value: 5 },
            },
            &mut ctx,
        );
        apply(&mut core, vec![commit(1, 8)], &mut ctx);
        let replies_before = ctx.sent.len();
        // A zombie's re-commit of request 8 arrives as version 2.
        let applied = apply(&mut core, vec![commit(2, 8)], &mut ctx);
        assert_eq!(applied.len(), 1);
        assert_eq!(ctx.sent.len(), replies_before, "no second WriteDone");
        assert!(ctx.traced.iter().any(|e| matches!(
            e,
            TraceEvent::Custom {
                kind: trace::COMMIT_SUPPRESSED,
                a: 2,
                b: 8
            }
        )));
        // Only one CommitApplied for the request.
        let applies = ctx
            .traced
            .iter()
            .filter(|e| matches!(e, TraceEvent::CommitApplied { request: 8, .. }))
            .count();
        assert_eq!(applies, 1);
    }

    #[test]
    fn a_rival_record_for_an_applied_version_is_traced_and_a_duplicate_is_not() {
        let mut core = core(0);
        let mut ctx = test_ctx(0);
        apply(&mut core, vec![commit(1, 8)], &mut ctx);
        apply(&mut core, vec![commit(1, 8)], &mut ctx);
        let conflicts = |ctx: &RecordingCtx| {
            ctx.traced
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        TraceEvent::Custom {
                            kind: trace::VERSION_CONFLICT,
                            a: 1,
                            b: 9
                        }
                    )
                })
                .count()
        };
        assert_eq!(conflicts(&ctx), 0, "a true duplicate stays silent");
        assert!(apply(&mut core, vec![commit(1, 9)], &mut ctx).is_empty());
        assert_eq!(conflicts(&ctx), 1);
    }

    #[test]
    fn sync_pull_returns_suffix_and_push_applies() {
        let mut source = core(0);
        let mut ctx = test_ctx(0);
        apply(&mut source, vec![commit(1, 100), commit(2, 200)], &mut ctx);

        let mut ctx_pull = test_ctx(0);
        let pull = SyncMsg::Pull {
            versions: BTreeMap::from([(0, 1)]),
        };
        source.handle_sync(5, &pull, &mut ctx_pull);
        assert_eq!(ctx_pull.sent.len(), 1);
        let pushed: SyncMsg = marp_wire::from_bytes(&ctx_pull.sent[0].1).unwrap();
        let SyncMsg::Push { records } = pushed else {
            panic!("expected push");
        };
        assert_eq!(records.len(), 1);

        let mut target = core(1);
        let mut ctx2 = test_ctx(1);
        // Target missed version 1: receiving only version 2 buffers it.
        target.handle_sync(0, &SyncMsg::Push { records }, &mut ctx2);
        assert_eq!(target.store.applied_version(), 0);
        assert!(target.pull_if_behind(0, &mut ctx2));
        let pull: SyncMsg = marp_wire::from_bytes(&ctx2.sent.last().unwrap().1).unwrap();
        // Chain 0 is known (version 2 is buffered) but nothing is applied.
        let versions = BTreeMap::from([(0, 0)]);
        assert_eq!(pull, SyncMsg::Pull { versions });
    }

    #[test]
    fn pull_if_behind_is_noop_when_current() {
        let mut core = core(0);
        let mut ctx = test_ctx(0);
        assert!(!core.pull_if_behind(1, &mut ctx));
        assert!(ctx.sent.is_empty());
    }

    #[test]
    fn recover_clears_volatile_keeps_stable() {
        let mut core = core(0);
        let mut ctx = test_ctx(0);
        apply(&mut core, vec![commit(1, 100)], &mut ctx);
        core.ll.request(
            1,
            marp_agent::AgentId::new(1, SimTime::ZERO, 0),
            ctx.now(),
            Duration::from_secs(30),
            0,
        );
        core.handle_client_request(
            4,
            ClientRequest {
                id: 9,
                op: Operation::Write { key: 1, value: 1 },
            },
            &mut ctx,
        );
        core.on_recover();
        assert_eq!(core.store.applied_version(), 1);
        assert!(core.ll.is_empty());
        assert_eq!(core.pending_clients.len(), 0);
    }

    #[test]
    fn purge_expired_locks_traces() {
        let mut core = core(0);
        let mut ctx = test_ctx(0);
        ctx.now = SimTime::from_millis(1);
        core.ll.request(
            1,
            marp_agent::AgentId::new(1, SimTime::ZERO, 0),
            ctx.now,
            Duration::from_millis(5),
            0,
        );
        ctx.now = SimTime::from_millis(100);
        assert_eq!(core.purge_expired_locks(&mut ctx), 1);
        assert!(ctx.traced.iter().any(|e| matches!(
            e,
            TraceEvent::Custom {
                kind: trace::LOCK_LEASE_EXPIRED,
                ..
            }
        )));
    }
}
