//! Structured trace log.
//!
//! Every kernel action and every interesting protocol step is appended to
//! the run's [`TraceLog`]. The paper demonstrated its prototype with a
//! visual aglet viewer; here the trace is the machine-checkable
//! equivalent: the metrics crate derives the paper's ALT/ATT/PRK figures
//! from it, and the consistency auditor replays it to verify the paper's
//! theorems on every run.

use crate::rng::splitmix64;
use crate::time::SimTime;
use crate::NodeId;

/// A compact, copyable identifier for a mobile agent inside trace events:
/// the agent's home node in the high bits and its per-home sequence number
/// in the low bits.
pub type AgentKey = u64;

/// Identifier of one causal span inside a trace. `0` means "no span"
/// (the null parent).
pub type SpanId = u64;

/// What phase of a write's life a span covers. Each committed write forms
/// the tree `request → dispatch → {migrate×k, lock-acquire} →
/// update-quorum → commit`; consistent reads get their own `Read` span.
///
/// The discriminants follow declaration order and are the kinds' stable
/// tags ([`SpanKind::tag`], the wire format, span ids): a new kind goes
/// at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Client request pending at its accepting replica (arrival → reply).
    Request,
    /// Lifetime of an update agent (or a baseline's coordination round
    /// surrogate): dispatch → disposal.
    Dispatch,
    /// One agent migration hop: serialization at the sender → arrival at
    /// the receiver.
    Migrate,
    /// One attempt to obtain the distributed lock: gathering starts →
    /// the win is established.
    LockAcquire,
    /// The UPDATE/ACK validation round (baselines: the vote round).
    UpdateQuorum,
    /// COMMIT broadcast → the home replica applies and answers the client.
    Commit,
    /// A consistent read served by a read agent or read quorum.
    Read,
}

marp_wire::wire_enum!(SpanKind {
    0 => Request,
    1 => Dispatch,
    2 => Migrate,
    3 => LockAcquire,
    4 => UpdateQuorum,
    5 => Commit,
    6 => Read,
});

impl SpanKind {
    /// Stable short name used by exporters (Perfetto event names, CSV).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Dispatch => "dispatch",
            SpanKind::Migrate => "migrate",
            SpanKind::LockAcquire => "lock-acquire",
            SpanKind::UpdateQuorum => "update-quorum",
            SpanKind::Commit => "commit",
            SpanKind::Read => "read",
        }
    }

    /// True when `a` is an agent key (or a baseline's round surrogate), not a request id.
    pub fn names_agent(self) -> bool {
        match self {
            SpanKind::Request | SpanKind::Read => false,
            SpanKind::Dispatch
            | SpanKind::Migrate
            | SpanKind::LockAcquire
            | SpanKind::UpdateQuorum
            | SpanKind::Commit => true,
        }
    }

    /// Stable numeric tag (wire format and span-id derivation).
    pub fn tag(self) -> u8 {
        self as u8
    }
}

/// Derive the [`SpanId`] of the span `(kind, a, b)` (see [`SpanKey`]).
/// Never returns 0 (the null-parent sentinel).
pub fn span_id(kind: SpanKind, a: u64, b: u64) -> SpanId {
    let mixed = splitmix64(
        splitmix64(0x5350414E_u64 ^ u64::from(kind.tag())) ^ splitmix64(a) ^ b.rotate_left(17),
    );
    if mixed == 0 {
        1
    } else {
        mixed
    }
}

/// A span's semantic identity — e.g. `(agent, hop << 32 | dest)` for a
/// migration — and the one place its records are built.
///
/// Both ends of a span are usually emitted by *different* processes (the
/// migration sender and receiver, the winning host and the home replica),
/// so span ids cannot come from a counter: each emitter names the span
/// here and derives the same id from the same identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanKey {
    /// Phase of the write the span covers.
    pub kind: SpanKind,
    /// First identity value (agent key or request id).
    pub a: u64,
    /// Second identity value (kind-specific; 0 when unused).
    pub b: u64,
}

impl SpanKey {
    /// The span of `kind` identified by `(a, b)`.
    pub const fn new(kind: SpanKind, a: u64, b: u64) -> Self {
        SpanKey { kind, a, b }
    }

    /// A client request pending at `home`, the replica that accepted it.
    pub fn request(request: u64, home: NodeId) -> Self {
        SpanKey::new(SpanKind::Request, request, u64::from(home))
    }

    /// An update agent's whole life, dispatch to disposal.
    pub fn dispatch(agent: AgentKey) -> Self {
        SpanKey::new(SpanKind::Dispatch, agent, 0)
    }

    /// `agent`'s `hop`-th migration, to `dest`.
    pub fn migrate(agent: AgentKey, hop: u32, dest: NodeId) -> Self {
        SpanKey::new(
            SpanKind::Migrate,
            agent,
            u64::from(hop) << 32 | u64::from(dest),
        )
    }

    /// `committer`'s commit of `request`, until its home answers.
    pub fn commit(committer: AgentKey, request: u64) -> Self {
        SpanKey::new(SpanKind::Commit, committer, request)
    }

    /// The span's id (see [`span_id`]).
    pub fn id(self) -> SpanId {
        span_id(self.kind, self.a, self.b)
    }

    /// The record that opens this span under `parent` (`None`: a root).
    pub fn start(self, parent: Option<SpanKey>) -> TraceEvent {
        TraceEvent::SpanStart {
            id: self.id(),
            parent: parent.map_or(0, SpanKey::id),
            kind: self.kind,
            a: self.a,
            b: self.b,
        }
    }

    /// The record that closes this span.
    pub fn end(self) -> TraceEvent {
        TraceEvent::SpanEnd {
            id: self.id(),
            kind: self.kind,
        }
    }

    /// The record of a causal edge from this span to `to`.
    pub fn link_to(self, to: SpanKey) -> TraceEvent {
        TraceEvent::SpanLink {
            from: self.id(),
            to: to.id(),
        }
    }
}

// `Custom` labels read outside the code that emits them, named once for
// emitters and readers alike; each doc gives the record's `a`, `b`.

/// Per migration: LT entries carried, the agent.
pub const LT_ENTRIES_CARRIED: &str = "lt-entries-carried";
/// Per migration: distinct agent ids those entries name, the agent.
pub const LT_IDS_CARRIED: &str = "lt-ids-carried";
/// A re-commit of a committed request burnt its slot: version, request.
pub const COMMIT_SUPPRESSED: &str = "commit-suppressed";
/// A rival record for a version applied as another request: version, request.
pub const VERSION_CONFLICT: &str = "version-conflict";
/// A refused UPDATE: claimant, `node << 8 | code` (core's `Refusal`).
pub const UPDATE_REFUSED: &str = "update-refused";
/// An UPDATE held behind a live reservation: claimant, server.
pub const UPDATE_HELD: &str = "update-held";
/// Mail for an agent not resident here: agent, sender.
pub const AGENT_MSG_MISSED: &str = "agent-msg-missed";
/// An arriving agent's state did not decode: agent, sender.
pub const AGENT_STATE_CORRUPT: &str = "agent-state-corrupt";
/// An arriving agent's state, or a reply mailed to an agent, named a
/// server its host's system does not have: agent, sender.
pub const AGENT_STATE_FORGED: &str = "agent-state-forged";
/// A Locking-List entry outlived its lease: agent, server.
pub const LOCK_LEASE_EXPIRED: &str = "lock-lease-expired";
/// A home relaunched a batch presumed lost: lost agent, requests left.
pub const AGENT_REGENERATED: &str = "agent-regenerated";
/// A clone of a finished agent disposed of itself: agent, host.
pub const ZOMBIE_CLONE_DISPOSED: &str = "zombie-clone-disposed";
/// An arrival found agents queued ahead on its key: agent, its rank.
pub const LOCK_QUEUED_BEHIND: &str = "lock-queued-behind";

/// Build an [`AgentKey`] from a home node and per-home sequence number.
pub fn agent_key(home: NodeId, seq: u32) -> AgentKey {
    (u64::from(home) << 32) | u64::from(seq)
}

/// Split an [`AgentKey`] back into `(home, seq)`.
pub fn agent_key_parts(key: AgentKey) -> (NodeId, u32) {
    ((key >> 32) as NodeId, key as u32)
}

/// One structured trace record. Kernel-level events are emitted by the
/// engine; protocol-level events are emitted by the replica/agent/protocol
/// crates through [`crate::Context::trace`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    // ----- kernel / network level -----
    // (A message sent or delivered is counted in `RunStats`, not traced.)
    /// A message was dropped (dead destination, partition, fault model).
    MsgDropped {
        /// Sender node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// Human-readable drop reason.
        reason: &'static str,
    },
    /// A node crashed (fail-stop).
    NodeDown(NodeId),
    /// A node recovered.
    NodeUp(NodeId),

    // ----- workload level -----
    /// A client request arrived at a replica server.
    RequestArrived {
        /// Receiving replica.
        node: NodeId,
        /// Globally unique request id.
        request: u64,
        /// True for writes, false for reads.
        write: bool,
    },
    /// A read was served (locally or via quorum).
    ReadServed {
        /// Serving replica.
        node: NodeId,
        /// Request id.
        request: u64,
        /// Version observed by the read.
        version: u64,
    },

    // ----- mobile agent level -----
    /// A replica dispatched an update agent carrying a batch of requests.
    AgentDispatched {
        /// Agent identity.
        agent: AgentKey,
        /// Home replica.
        home: NodeId,
        /// Number of requests in the batch.
        batch: usize,
    },
    /// An agent's serialized state arrived at a new host.
    AgentMigrated {
        /// Agent identity.
        agent: AgentKey,
        /// Previous host.
        from: NodeId,
        /// New host.
        to: NodeId,
        /// Total completed migrations including this one.
        hops: u32,
    },
    /// A migration attempt timed out or was refused.
    AgentMigrateFailed {
        /// Agent identity.
        agent: AgentKey,
        /// Host the agent is stuck on.
        from: NodeId,
        /// Unreachable destination.
        to: NodeId,
    },
    /// An agent's serialized state left a host (first send or retry).
    /// `bytes` is the size of the encoded behaviour state alone, not the
    /// enclosing envelope — the kernel folds these into
    /// `RunStats::agent_bytes_migrated`.
    AgentStateShipped {
        /// Agent identity.
        agent: AgentKey,
        /// Encoded behaviour-state size in bytes.
        bytes: usize,
    },
    /// An agent declared a replica unavailable after repeated failures.
    ReplicaDeclaredUnavailable {
        /// Agent identity.
        agent: AgentKey,
        /// The replica given up on.
        node: NodeId,
    },
    /// An agent appended itself to a server's Locking List.
    LockRequested {
        /// Agent identity.
        agent: AgentKey,
        /// The server whose LL was extended.
        node: NodeId,
    },
    /// An agent established that it holds the distributed lock.
    LockGranted {
        /// Agent identity.
        agent: AgentKey,
        /// Host where the win was established.
        node: NodeId,
        /// Number of distinct servers the agent had visited (paper's K).
        visits: u32,
        /// True if the win came from the tie-break rule rather than an
        /// outright majority of LL tops.
        via_tie: bool,
    },
    /// The winning agent broadcast its UPDATE message.
    UpdateSent {
        /// Agent identity.
        agent: AgentKey,
        /// The key's applied version at the sending host — the base
        /// the claimant believes it commits on top of (the final
        /// version is assigned at COMMIT, from the quorum's acks).
        version: u64,
    },
    /// A replica acknowledged (or refused) an UPDATE.
    UpdateAcked {
        /// Agent identity.
        agent: AgentKey,
        /// Responding replica.
        node: NodeId,
        /// True for a positive ack (validation passed).
        positive: bool,
    },
    /// The winning agent aborted a claimed win (validation quorum failed)
    /// and went back to gathering locking information.
    WinAborted {
        /// Agent identity.
        agent: AgentKey,
    },
    /// A replica applied a committed update.
    CommitApplied {
        /// Applying replica.
        node: NodeId,
        /// Committed version (global order).
        version: u64,
        /// Winning agent.
        agent: AgentKey,
        /// Updated key.
        key: u64,
        /// Client request the committed write answered.
        request: u64,
    },
    /// An agent finished all requests and disposed itself.
    AgentDisposed {
        /// Agent identity.
        agent: AgentKey,
        /// Time the agent was created (for lifetime accounting).
        born: SimTime,
    },

    // ----- request-level completion (agents and baselines both emit) -----
    /// An update request completed end to end.
    UpdateCompleted {
        /// Request id.
        request: u64,
        /// Home replica that accepted the request.
        home: NodeId,
        /// Time the request arrived at the replica.
        arrived: SimTime,
        /// Time the carrying agent was dispatched (equals `arrived` for
        /// message-passing baselines).
        dispatched: SimTime,
        /// Time the lock was obtained (baselines: quorum assembled).
        locked: SimTime,
        /// Servers visited to obtain the lock (baselines: 0).
        visits: u32,
    },

    // ----- causal spans -----
    /// A causal span opened. The `(a, b)` pair is the span's semantic
    /// identity (what [`span_id`] hashed): `a` is an agent key or request
    /// id, `b` a kind-specific discriminator — exporters use it to place
    /// the span on the right track without reverse lookups.
    SpanStart {
        /// Span identity (see [`span_id`]).
        id: SpanId,
        /// Enclosing span, 0 for a root span.
        parent: SpanId,
        /// Phase of the write this span covers.
        kind: SpanKind,
        /// First identity value (agent key or request id).
        a: u64,
        /// Second identity value (kind-specific; 0 when unused).
        b: u64,
    },
    /// A causal span closed. Possibly emitted by a different node than
    /// the start (both derive the same id from the semantic identity).
    SpanEnd {
        /// Span identity.
        id: SpanId,
        /// Phase of the write this span covers.
        kind: SpanKind,
    },
    /// A causal edge between spans that is not a parent/child nesting —
    /// e.g. from each batched request span to the carrying dispatch span.
    SpanLink {
        /// Causing span.
        from: SpanId,
        /// Caused span.
        to: SpanId,
    },

    // ----- escape hatch -----
    /// Free-form protocol event for one-off instrumentation.
    Custom {
        /// Event kind label.
        kind: &'static str,
        /// First payload value.
        a: u64,
        /// Second payload value.
        b: u64,
    },
}

// The `MARPTRC1` trace-file codec (`marp-obs` frames records around
// it). Tags are numbered in order of *introduction*, not declaration,
// so files written before a variant existed still decode. Tags 0 and 1
// were the per-message sent and delivered records; they stay
// unassigned, so every other tag decodes as it always has.
marp_wire::wire_enum!(TraceEvent {
    2 => MsgDropped { from, to, reason },
    3 => NodeDown(node),
    4 => NodeUp(node),
    5 => RequestArrived { node, request, write },
    6 => ReadServed { node, request, version },
    7 => AgentDispatched { agent, home, batch },
    8 => AgentMigrated { agent, from, to, hops },
    9 => AgentMigrateFailed { agent, from, to },
    10 => ReplicaDeclaredUnavailable { agent, node },
    11 => LockRequested { agent, node },
    12 => LockGranted { agent, node, visits, via_tie },
    13 => UpdateSent { agent, version },
    14 => UpdateAcked { agent, node, positive },
    15 => WinAborted { agent },
    16 => CommitApplied { node, version, agent, key, request },
    17 => AgentDisposed { agent, born },
    18 => UpdateCompleted { request, home, arrived, dispatched, locked, visits },
    19 => SpanStart { id, parent, kind, a, b },
    20 => SpanEnd { id, kind },
    21 => SpanLink { from, to },
    22 => Custom { kind, a, b },
    23 => AgentStateShipped { agent, bytes },
});

/// A timestamped trace record and the node that emitted it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual time the event occurred.
    pub at: SimTime,
    /// Emitting node (kernel events use the most relevant node).
    pub node: NodeId,
    /// The event.
    pub event: TraceEvent,
}

// A record's framing in a `MARPTRC1` trace file.
marp_wire::wire_struct!(TraceRecord { at, node, event });

/// Which events a log retains. There is one level left: every record
/// a process or the kernel emits, and none per message sent or
/// delivered (`RunStats` counts those). [`crate::Simulation::new`]
/// still takes it because `marp-benchmark` passes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceLevel {
    /// Protocol-level events: everything that is traced.
    Protocol,
}

/// An append-only in-memory trace log.
#[derive(Debug, Default)]
pub struct TraceLog {
    records: Vec<TraceRecord>,
}

impl TraceLog {
    /// Create an empty log, with room reserved so a typical run appends
    /// without growing it (a run that outgrows the reservation still
    /// works — the vector grows as usual).
    pub fn new() -> Self {
        TraceLog {
            records: Vec::with_capacity(4_096),
        }
    }

    /// Append one record.
    pub fn push(&mut self, at: SimTime, node: NodeId, event: TraceEvent) {
        self.records.push(TraceRecord { at, node, event });
    }

    /// All retained records in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Iterate over records matching a predicate.
    pub fn filter<'a, F>(&'a self, mut pred: F) -> impl Iterator<Item = &'a TraceRecord>
    where
        F: FnMut(&TraceEvent) -> bool + 'a,
    {
        self.records.iter().filter(move |r| pred(&r.event))
    }

    /// Count records matching a predicate.
    pub fn count<F>(&self, pred: F) -> usize
    where
        F: FnMut(&TraceEvent) -> bool,
    {
        let mut pred = pred;
        self.records.iter().filter(|r| pred(&r.event)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_key_roundtrip() {
        let key = agent_key(7, 12345);
        assert_eq!(agent_key_parts(key), (7, 12345));
        let key = agent_key(NodeId::MAX, u32::MAX);
        assert_eq!(agent_key_parts(key), (NodeId::MAX, u32::MAX));
    }

    #[test]
    fn agent_keys_are_unique_across_homes() {
        assert_ne!(agent_key(1, 5), agent_key(2, 5));
        assert_ne!(agent_key(1, 5), agent_key(1, 6));
    }

    #[test]
    fn span_ids_are_deterministic_and_distinct() {
        let a = span_id(SpanKind::Migrate, agent_key(1, 0), 3);
        let b = span_id(SpanKind::Migrate, agent_key(1, 0), 3);
        assert_eq!(a, b, "both ends of a span must derive the same id");
        assert_ne!(a, span_id(SpanKind::Migrate, agent_key(1, 0), 4));
        assert_ne!(a, span_id(SpanKind::LockAcquire, agent_key(1, 0), 3));
        assert_ne!(a, 0, "0 is the null-parent sentinel");
    }

    #[test]
    fn span_kind_tags_roundtrip() {
        for kind in [
            SpanKind::Request,
            SpanKind::Dispatch,
            SpanKind::Migrate,
            SpanKind::LockAcquire,
            SpanKind::UpdateQuorum,
            SpanKind::Commit,
            SpanKind::Read,
        ] {
            let wire = bytes::Bytes::copy_from_slice(&[kind.tag()]);
            assert_eq!(marp_wire::from_bytes::<SpanKind>(&wire), Ok(kind));
            assert!(!kind.name().is_empty());
        }
        let past_the_last = bytes::Bytes::from_static(&[SpanKind::Read as u8 + 1]);
        assert!(marp_wire::from_bytes::<SpanKind>(&past_the_last).is_err());
    }

    #[test]
    fn protocol_level_keeps_span_events() {
        let mut log = TraceLog::new();
        let id = span_id(SpanKind::Request, 9, 0);
        log.push(
            SimTime::ZERO,
            0,
            TraceEvent::SpanStart {
                id,
                parent: 0,
                kind: SpanKind::Request,
                a: 9,
                b: 0,
            },
        );
        log.push(
            SimTime::from_millis(1),
            0,
            TraceEvent::SpanEnd {
                id,
                kind: SpanKind::Request,
            },
        );
        assert_eq!(log.records().len(), 2);
    }

    #[test]
    fn filter_and_count() {
        let mut log = TraceLog::new();
        for node in 0..4 {
            log.push(
                SimTime::from_millis(node as u64),
                node,
                TraceEvent::NodeDown(node),
            );
        }
        log.push(SimTime::from_millis(9), 0, TraceEvent::NodeUp(2));
        assert_eq!(log.count(|e| matches!(e, TraceEvent::NodeDown(_))), 4);
        let ups: Vec<_> = log.filter(|e| matches!(e, TraceEvent::NodeUp(_))).collect();
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].at, SimTime::from_millis(9));
    }
}
