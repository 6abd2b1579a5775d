//! Decode robustness over every top-level message and carried-state
//! type a replica, client or agent host decodes off the network — and
//! the trace events `marp-trace` reads off disk, and the leaves whose
//! cursor code is the codec's own (strings and labels): for arbitrary
//! bytes and for every strict prefix of a valid encoding the decoder
//! returns `Err`, or a value that round-trips — never a panic (a malformed packet must not crash a
//! replica), and never one allocation sized by a length prefix rather
//! than by the bytes actually present (the codec pre-allocates at most
//! 4 096 elements).

use bytes::Bytes;
use marp_repro::agent::{AgentEnvelope, AgentId};
use marp_repro::baselines::{AcMsg, Ballot, LwwTs, McvMsg, PcMsg, WvMsg};
use marp_repro::core::lt::LockingTable;
use marp_repro::core::{
    AgentReply, CommitMsg, MarpConfig, NodeMsg, ReadAgent, UpdateAgent, UpdateMsg,
};
use marp_repro::replica::{
    ClientReply, ClientRequest, CommitRecord, LlSnapshot, Operation, SyncMsg, UpdatedList,
    WriteRequest,
};
use marp_repro::sim::{span_id, SimTime, SpanKind, TraceEvent};
use marp_repro::wire::{from_bytes, to_bytes, Wire};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;

#[path = "support/noting_alloc.rs"]
mod noting_alloc;

/// The codec's pre-allocation cap in elements, times a size no element
/// type here reaches: the most one request may ask for while decoding
/// an input of a few hundred bytes.
const LARGEST_HONEST_REQUEST: usize = 4096 * 64;

/// Whatever `bytes` decodes to as a `T` is a fixed point of the codec,
/// and decoding never trusted a length prefix with memory.
fn err_or_fixed_point<T: Wire + PartialEq + Debug>(bytes: &Bytes) {
    let (decoded, _, largest) = noting_alloc::requests_during(|| from_bytes::<T>(bytes));
    assert!(
        largest <= LARGEST_HONEST_REQUEST,
        "decoding {} bytes asked the allocator for {largest} at once",
        bytes.len()
    );
    if let Ok(value) = decoded {
        let again = to_bytes(&value);
        assert_eq!(from_bytes::<T>(&again).as_ref(), Ok(&value));
    }
}

/// `raw` and every strict prefix of each sample's encoding.
fn robust<T: Wire + PartialEq + Debug>(samples: &[T], raw: &Bytes) {
    err_or_fixed_point::<T>(raw);
    for sample in samples {
        let valid = to_bytes(sample);
        for cut in 0..valid.len() {
            err_or_fixed_point::<T>(&valid.slice(0..cut));
        }
    }
}

fn aid(home: u16) -> AgentId {
    AgentId::new(home, SimTime::from_millis(3), 7)
}

fn write_request() -> WriteRequest {
    WriteRequest {
        id: 9,
        client: 8,
        key: 7,
        value: 300,
        arrived: SimTime::from_millis(5),
    }
}

fn commit_record() -> CommitRecord {
    CommitRecord {
        version: 1,
        key: 2,
        value: 3,
        agent: aid(1).key(),
        request: 9,
        committed_at: SimTime::from_millis(11),
    }
}

fn client_request() -> ClientRequest {
    ClientRequest {
        id: 1,
        op: Operation::Write { key: 2, value: 3 },
    }
}

fn node_msgs() -> Vec<NodeMsg> {
    vec![
        NodeMsg::Client(client_request()),
        NodeMsg::Agent(AgentEnvelope::Migrate {
            agent: aid(2),
            hop: 3,
            state: to_bytes(&UpdateAgent::new(
                aid(2),
                &MarpConfig::new(5),
                vec![write_request()],
            )),
        }),
        NodeMsg::Update(UpdateMsg {
            agent: aid(1),
            attempt: 2,
            incarnation: 1,
            reply_to: 4,
            requests: vec![write_request()],
            tie_certificate: Some(vec![aid(2), aid(3)]),
        }),
        NodeMsg::Commit(CommitMsg {
            agent: aid(1),
            records: vec![commit_record()],
        }),
        NodeMsg::LlQuery {
            agent: aid(1),
            key: 6,
            reply_to: 2,
            horizon: BTreeMap::from([(0, 3), (4, 9)]),
        },
        NodeMsg::Sync(SyncMsg::Pull {
            versions: BTreeMap::from([(0, 3), (7, 1)]),
        }),
    ]
}

fn agent_replies() -> Vec<AgentReply> {
    let mut ul = UpdatedList::new();
    ul.record(aid(5), SimTime::from_millis(1));
    vec![
        AgentReply::UpdateAck {
            node: 1,
            attempt: 3,
            positive: true,
            store_version: 5,
            last_update: SimTime::from_millis(7),
            fenced: false,
        },
        AgentReply::LlInfo {
            node: 2,
            snapshot: LlSnapshot {
                version: 2,
                taken_at: SimTime::from_millis(2),
                queue: vec![aid(1), aid(2)],
            },
            board: Default::default(),
            ul,
        },
    ]
}

/// One event of every `TraceEvent` variant, as `marp-obs`'s trace-file
/// golden builds them.
fn trace_events() -> Vec<TraceEvent> {
    let ms = SimTime::from_millis;
    let span = span_id(SpanKind::Dispatch, 9, 0);
    vec![
        TraceEvent::MsgDropped {
            from: 1,
            to: 0,
            reason: "partition",
        },
        TraceEvent::NodeDown(3),
        TraceEvent::NodeUp(3),
        TraceEvent::RequestArrived {
            node: 2,
            request: 7,
            write: true,
        },
        TraceEvent::ReadServed {
            node: 2,
            request: 8,
            version: 5,
        },
        TraceEvent::AgentDispatched {
            agent: 9,
            home: 2,
            batch: 4,
        },
        TraceEvent::AgentMigrated {
            agent: 9,
            from: 2,
            to: 3,
            hops: 1,
        },
        TraceEvent::AgentMigrateFailed {
            agent: 9,
            from: 3,
            to: 4,
        },
        TraceEvent::ReplicaDeclaredUnavailable { agent: 9, node: 4 },
        TraceEvent::LockRequested { agent: 9, node: 3 },
        TraceEvent::LockGranted {
            agent: 9,
            node: 3,
            visits: 3,
            via_tie: true,
        },
        TraceEvent::UpdateSent {
            agent: 9,
            version: 5,
        },
        TraceEvent::UpdateAcked {
            agent: 9,
            node: 1,
            positive: false,
        },
        TraceEvent::WinAborted { agent: 9 },
        TraceEvent::CommitApplied {
            node: 1,
            version: 6,
            agent: 9,
            key: 1 << 50,
            request: 7,
        },
        TraceEvent::AgentDisposed {
            agent: 9,
            born: ms(2),
        },
        TraceEvent::UpdateCompleted {
            request: 7,
            home: 2,
            arrived: ms(1),
            dispatched: ms(2),
            locked: ms(4),
            visits: 3,
        },
        TraceEvent::SpanStart {
            id: span,
            parent: 0,
            kind: SpanKind::Dispatch,
            a: 9,
            b: 0,
        },
        TraceEvent::SpanEnd {
            id: span,
            kind: SpanKind::Dispatch,
        },
        TraceEvent::SpanLink {
            from: span_id(SpanKind::Request, 7, 2),
            to: span,
        },
        TraceEvent::Custom {
            kind: "adaptive-batch-size",
            a: 4,
            b: 2,
        },
        TraceEvent::AgentStateShipped {
            agent: 9,
            bytes: 129,
        },
    ]
}

fn snapshot(queue: &[AgentId]) -> LlSnapshot {
    LlSnapshot {
        version: 2,
        taken_at: SimTime::from_millis(2),
        queue: queue.to_vec(),
    }
}

/// A table of three rows that name four agents between them.
fn locking_table() -> LockingTable {
    let mut lt = LockingTable::new();
    lt.merge(0, snapshot(&[aid(1), aid(2)]));
    lt.merge(3, snapshot(&[aid(4), aid(1), aid(3)]));
    lt.merge(4, snapshot(&[]));
    lt
}

/// A Locking Table's wire form, field by field, so each can be forged:
/// the roster, then one row for server 0 stamped (1, 1 ms).
#[allow(clippy::disallowed_methods, reason = "forges a message field by field")]
fn table_bytes(roster_len: u64, roster: &[AgentId], ranks_len: u64, ranks: &[u16]) -> Bytes {
    let mut buf = bytes::BytesMut::new();
    roster_len.encode(&mut buf);
    for id in roster {
        id.encode(&mut buf);
    }
    1u64.encode(&mut buf); // one row
    0u16.encode(&mut buf); // ... of server 0
    1u64.encode(&mut buf);
    SimTime::from_millis(1).encode(&mut buf);
    ranks_len.encode(&mut buf);
    for rank in ranks {
        rank.encode(&mut buf);
    }
    buf.freeze()
}

/// The same table as the board of an `LlInfo` reply (tag 1: node,
/// snapshot, board, ul).
#[allow(clippy::disallowed_methods, reason = "forges a message field by field")]
fn ll_info_around(board: &Bytes) -> Bytes {
    let mut buf = bytes::BytesMut::new();
    1u8.encode(&mut buf);
    2u16.encode(&mut buf);
    LlSnapshot {
        version: 2,
        taken_at: SimTime::from_millis(2),
        queue: vec![aid(1)],
    }
    .encode(&mut buf);
    buf.extend_from_slice(board);
    UpdatedList::new().encode(&mut buf);
    buf.freeze()
}

/// The ways a roster-and-ranks table can lie that a spelled-out one
/// could not, alone and inside the reply that carries a board.
#[test]
fn forged_rosters_are_refused_or_harmless() {
    let (a, b, c) = (aid(1), aid(2), aid(3));
    let honest = table_bytes(2, &[a, b], 2, &[1, 0]);
    let table = from_bytes::<LockingTable>(&honest).expect("honest table");
    assert_eq!(table.roster(), [a, b]);
    assert_eq!(to_bytes(&table), honest);
    assert!(from_bytes::<AgentReply>(&ll_info_around(&honest)).is_ok());

    let refused = [
        (
            "a rank past the roster",
            table_bytes(2, &[a, b], 2, &[0, 2]),
        ),
        ("a roster id twice", table_bytes(2, &[a, a], 2, &[0, 1])),
        ("a roster out of order", table_bytes(2, &[b, a], 2, &[0, 1])),
        (
            "a roster length no input could back",
            table_bytes(u64::MAX, &[a, b], 2, &[0, 1]),
        ),
        (
            "a rank count no input could back",
            table_bytes(2, &[a, b], u64::MAX, &[0, 1]),
        ),
    ];
    for (what, forged) in &refused {
        err_or_fixed_point::<LockingTable>(forged);
        assert!(from_bytes::<LockingTable>(forged).is_err(), "{what}");
        let reply = ll_info_around(forged);
        err_or_fixed_point::<AgentReply>(&reply);
        assert!(from_bytes::<AgentReply>(&reply).is_err(), "{what}");
    }

    // An id no row references indexes nothing: it is carried, not fatal.
    let padded = table_bytes(3, &[a, b, c], 2, &[1, 0]);
    err_or_fixed_point::<LockingTable>(&padded);
    err_or_fixed_point::<AgentReply>(&ll_info_around(&padded));
    let table = from_bytes::<LockingTable>(&padded).expect("padded table");
    assert_eq!(to_bytes(&table), padded);
    assert_eq!(table.presence_count(c), 0);
}

proptest! {
    #[test]
    fn decoders_never_panic_and_only_accept_fixed_points(
        raw in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let raw = &Bytes::from(raw);
        let cfg = MarpConfig::new(5);
        let ballot = Ballot { seq: 300, coordinator: 2 };
        let ts = LwwTs { counter: 300, node: 2 };
        robust(&node_msgs(), raw);
        robust(&agent_replies(), raw);
        robust(&[UpdateAgent::new(aid(1), &cfg, vec![write_request()])], raw);
        robust(&[ReadAgent::new(aid(1), &cfg, 9, 8, 7)], raw);
        robust(&[AgentEnvelope::MigrateAck { agent: aid(2), hop: 3, horizon: BTreeMap::from([(0, 4)]) }], raw);
        robust(&[McvMsg::Apply { ballot, records: vec![commit_record()] }], raw);
        robust(&[WvMsg::RResp { rid: 9, votes: 2, held: Some((300, 6)) }], raw);
        robust(&[AcMsg::StatePush { dump: vec![(7, 300, ts)] }], raw);
        robust(&[PcMsg::Forward { request: write_request() }], raw);
        robust(&trace_events(), raw);
        robust(&[locking_table()], raw);
        let mut ul = UpdatedList::new();
        ul.record(aid(5), SimTime::from_millis(1));
        ul.record(aid(2), SimTime::from_millis(4));
        robust(&[ul], raw);
        robust(&[snapshot(&[aid(1), aid(2)])], raw);
        robust(&[SyncMsg::Push { records: vec![commit_record()] }], raw);
        robust(&[
            ClientReply::ReadOk { id: 1, key: 2, value: Some(300), version: 4 },
            ClientReply::WriteDone { id: 1, version: 4 },
            ClientReply::Rejected { id: 1 },
        ], raw);
        robust(&[String::from("hello, 世界")], raw);
        robust(&["partition"], raw);
    }
}
