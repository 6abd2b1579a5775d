//! Decode robustness over every top-level message and carried-state
//! type a replica, client or agent host decodes off the network — and
//! the trace events `marp-trace` reads off disk, and the leaves whose
//! cursor code is the codec's own (strings and labels): for arbitrary
//! bytes and for every strict prefix of a valid encoding the decoder
//! returns `Err`, or a value that encodes to exactly the bytes it came
//! from — never a panic (a malformed packet must not crash a
//! replica), and never one allocation sized by a length prefix rather
//! than by the bytes actually present (the codec pre-allocates at most
//! 4 096 elements). The carried-state types are also decoded into a
//! warm value holding a larger one, as an arriving agent is decoded
//! into the one that left: that errs exactly when a fresh decode does,
//! and otherwise yields the same value.

use bytes::Bytes;
use marp_repro::agent::{AgentEnvelope, AgentId, Horizon, Itinerary, ItineraryPolicy};
use marp_repro::baselines::{AcMsg, Ballot, LwwTs, McvMsg, PcMsg, WvMsg};
use marp_repro::core::lt::LockingTable;
use marp_repro::core::{
    AgentReply, CommitMsg, MarpConfig, MarpNode, NodeMsg, ReadAgent, UpdateAgent, UpdateMsg,
};
use marp_repro::replica::{
    ClientReply, ClientRequest, CommitRecord, LlSnapshot, Operation, SyncMsg, UpdatedList,
    WriteRequest,
};
use marp_repro::sim::{span_id, NodeId, SimTime, SpanKind, TraceEvent};
use marp_repro::wire::{from_bytes, from_bytes_into, to_bytes, Wire};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;

#[path = "support/noting_alloc.rs"]
mod noting_alloc;

/// The codec's pre-allocation cap in elements, times a size no element
/// type here reaches: the most one request may ask for while decoding
/// an input of a few hundred bytes.
const LARGEST_HONEST_REQUEST: usize = 4096 * 64;

/// Whatever `bytes` decodes to as a `T` encodes to `bytes` again — a
/// value has one encoding — and decoding never trusted a length prefix
/// with memory.
fn err_or_fixed_point<T: Wire + PartialEq + Debug>(bytes: &Bytes) {
    let (decoded, _, largest) = noting_alloc::requests_during(|| from_bytes::<T>(bytes));
    assert!(
        largest <= LARGEST_HONEST_REQUEST,
        "decoding {} bytes asked the allocator for {largest} at once",
        bytes.len()
    );
    if let Ok(value) = decoded {
        assert_eq!(&to_bytes(&value), bytes, "{value:?} re-encodes otherwise");
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

/// Decoding `bytes` into a copy of `warm` gives what `from_bytes`
/// gives — the same value or the same error — and trusts no length
/// prefix with memory either.
fn into_warm_agrees<T: Wire + PartialEq + Debug + Clone>(warm: &T, bytes: &Bytes) {
    let mut into = warm.clone();
    let (decoded, _, largest) = noting_alloc::requests_during(|| from_bytes_into(&mut into, bytes));
    assert!(
        largest <= LARGEST_HONEST_REQUEST,
        "decoding {} bytes into a held value asked the allocator for {largest} at once",
        bytes.len()
    );
    assert_eq!(decoded.map(|()| into), from_bytes::<T>(bytes));
}

/// [`robust`], and `raw` and every prefix of each sample's encoding,
/// whole included, decoded into `warm` as well.
fn robust_into<T: Wire + PartialEq + Debug + Clone>(samples: &[T], warm: &T, raw: &Bytes) {
    robust(samples, raw);
    into_warm_agrees(warm, raw);
    for sample in samples {
        let valid = to_bytes(sample);
        for cut in 0..=valid.len() {
            into_warm_agrees(warm, &valid.slice(0..cut));
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
                None,
                aid(2),
                &MarpConfig::new(5),
                vec![write_request()],
            )),
        }),
        NodeMsg::Update(UpdateMsg {
            agent: aid(1),
            attempt: 2,
            incarnation: 1,
            reply_to: 0,
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
            horizon: Horizon::from_iter([(0, 3), (4, 9)]),
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
            attempt: 3,
            positive: true,
            store_version: 5,
            fenced: false,
        },
        AgentReply::LlInfo {
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

/// Nine rows of six agents each: more than `locking_table` holds.
fn larger_table() -> LockingTable {
    let mut lt = LockingTable::new();
    for server in 0..9 {
        let queue: Vec<AgentId> = (0..6).map(|i| aid(server + i)).collect();
        lt.merge(server, snapshot(&queue));
    }
    lt
}

/// Six finished agents.
fn finished_list() -> UpdatedList {
    let mut ul = UpdatedList::new();
    for home in 0..6 {
        ul.record(aid(home), SimTime::from_millis(u64::from(home)));
    }
    ul
}

/// Five finished agents, one per home of an N = 5 system.
fn five_finished() -> UpdatedList {
    let mut ul = UpdatedList::new();
    for home in 0..5 {
        ul.record(aid(home), SimTime::from_millis(u64::from(home)));
    }
    ul
}

/// An update agent well into its tour, at nine servers: three writes,
/// a full table, a finished list, four servers behind it. Only a run
/// builds one, so it is decoded from its fields (its id, which its
/// envelope carries, is the default).
#[allow(clippy::disallowed_methods, reason = "forges a message field by field")]
fn travelled_agent() -> UpdateAgent {
    let mut itinerary = Itinerary::for_system(9, 4);
    for _ in 0..3 {
        itinerary.next_destination(ItineraryPolicy::FixedOrder, |_| 0.0);
    }
    let state = update_agent_bytes(&itinerary, &larger_table(), &finished_list(), 3);
    from_bytes(&state).expect("a travelled agent")
}

/// An update agent's wire form, field by field, so its itinerary can
/// be forged: three writes, `table`, `finished`, `attempt`.
#[allow(clippy::disallowed_methods, reason = "forges a message field by field")]
fn update_agent_bytes(
    itinerary: &impl Wire,
    table: &LockingTable,
    finished: &UpdatedList,
    attempt: u32,
) -> Bytes {
    let mut buf = bytes::BytesMut::new();
    vec![write_request(); 3].encode(&mut buf);
    itinerary.encode(&mut buf);
    table.encode(&mut buf);
    finished.encode(&mut buf);
    attempt.encode(&mut buf);
    1u32.encode(&mut buf); // incarnation
    buf.freeze()
}

/// A read agent's wire form with a forged itinerary, answering
/// `client`.
#[allow(clippy::disallowed_methods, reason = "forges a message field by field")]
fn read_agent_bytes(itinerary: &impl Wire, client: NodeId) -> Bytes {
    let mut buf = bytes::BytesMut::new();
    9u64.encode(&mut buf); // request
    client.encode(&mut buf);
    7u64.encode(&mut buf); // key
    (3u64, 2u64, Some(20u64)).encode(&mut buf); // best
    itinerary.encode(&mut buf);
    buf.freeze()
}

/// An agent's visit count is the system size less the servers its
/// itinerary names, and the itinerary is outside input: one that
/// names more servers than the host's system has must arrive at an
/// N = 5 host, count no visits and travel on — not underflow.
#[test]
fn an_itinerary_naming_more_servers_than_the_system_arrives_harmlessly() {
    use marp_repro::net::{RoutingTable, Topology};
    use marp_repro::sim::{Process, RecordingCtx};
    // Eight stops to go and two unavailable, all of them real servers,
    // and so is every server and agent home its table and list name.
    let forged = (vec![1u16, 2, 3, 4, 1, 2, 3, 4], vec![2u16, 3]);
    let update_state = update_agent_bytes(&forged, &locking_table(), &five_finished(), 0);
    let read_state = read_agent_bytes(&forged, 8);
    err_or_fixed_point::<UpdateAgent>(&update_state);
    err_or_fixed_point::<ReadAgent>(&read_state);
    let topo = Topology::uniform_lan(5, std::time::Duration::from_millis(1));
    let mut node = MarpNode::new(0, MarpConfig::new(5), RoutingTable::from_topology(0, &topo));
    let mut ctx = RecordingCtx::new(0, SimTime::from_millis(10));
    for msg in [
        NodeMsg::Agent(AgentEnvelope::Migrate {
            // Named in no table or list it carries.
            agent: AgentId::new(4, SimTime::from_millis(5), 1),
            hop: 1,
            state: update_state,
        }),
        NodeMsg::RAgent(AgentEnvelope::Migrate {
            agent: aid(2),
            hop: 1,
            state: read_state,
        }),
    ] {
        node.on_message(1, to_bytes(&msg), &mut ctx);
    }
    // Neither had a majority behind it: both travelled on.
    let departures = ctx.sent.iter().filter(|(_, frame)| {
        matches!(
            from_bytes::<NodeMsg>(frame),
            Ok(NodeMsg::Agent(AgentEnvelope::Migrate { .. })
                | NodeMsg::RAgent(AgentEnvelope::Migrate { .. }))
        )
    });
    assert_eq!(departures.count(), 2);
    assert_eq!(node.resident_agents(), 0);
}

/// An arrival whose envelope names an agent homed past N is refused
/// like any other forgery: it never joins the host's Locking List, so
/// an honest agent that visits the host next carries no trace of it
/// and is admitted at its next hop.
#[test]
fn a_forged_envelope_home_never_reaches_the_next_honest_agent() {
    use marp_repro::net::{RoutingTable, Topology};
    use marp_repro::sim::{trace, Process, RecordingCtx};
    let topo = Topology::uniform_lan(5, std::time::Duration::from_millis(1));
    let node_at = |me: NodeId| {
        MarpNode::new(
            me,
            MarpConfig::new(5),
            RoutingTable::from_topology(me, &topo),
        )
    };
    let forged_trace = |ctx: &RecordingCtx| {
        ctx.traced.iter().any(|e| {
            matches!(
                e,
                TraceEvent::Custom {
                    kind: trace::AGENT_STATE_FORGED,
                    ..
                }
            )
        })
    };
    let onward = (vec![2u16, 3], Vec::<NodeId>::new());
    let state = update_agent_bytes(&onward, &LockingTable::new(), &UpdatedList::new(), 0);
    let (forger, honest) = (AgentId::new(9, SimTime::from_millis(5), 1), aid(1));
    let mut first = node_at(0);
    let mut ctx = RecordingCtx::new(0, SimTime::from_millis(10));
    for agent in [forger, honest] {
        let arrival = NodeMsg::Agent(AgentEnvelope::Migrate {
            agent,
            hop: 1,
            state: state.clone(),
        });
        first.on_message(1, to_bytes(&arrival), &mut ctx);
    }
    let departs = |ctx: &RecordingCtx, who: AgentId| {
        ctx.sent
            .iter()
            .find(|(_, frame)| {
                matches!(from_bytes::<NodeMsg>(frame),
                Ok(NodeMsg::Agent(AgentEnvelope::Migrate { agent, .. })) if agent == who)
            })
            .cloned()
    };
    let refused = forged_trace(&ctx);
    let (to, frame) = departs(&ctx, honest).expect("the honest agent travels on");
    assert_eq!(to, 2);
    let mut next = node_at(2);
    let mut ctx = RecordingCtx::new(2, SimTime::from_millis(11));
    next.on_message(0, frame.clone(), &mut ctx);
    assert!(
        !forged_trace(&ctx),
        "the honest agent was refused at its next hop"
    );
    // Two rows of five are no majority: it ran, and travels on to 3.
    assert_eq!(departs(&ctx, honest).map(|(to, _)| to), Some(3));
    assert!(refused, "the arrival homed at 9 went untraced");
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

/// The same table as the board of an `LlInfo` reply (tag 1: snapshot,
/// board, ul).
#[allow(clippy::disallowed_methods, reason = "forges a message field by field")]
fn ll_info_around(board: &Bytes) -> Bytes {
    let mut buf = bytes::BytesMut::new();
    1u8.encode(&mut buf);
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

/// A `server → version` list has one encoding, keys strictly
/// ascending: out of order it would re-encode sorted, and with a key
/// twice the second would silently drop the first.
#[test]
fn forged_maps_and_horizons_are_refused() {
    for forged in [[0u8, 2, 7, 1, 0, 3], [0, 2, 7, 1, 7, 3]] {
        let pull = Bytes::copy_from_slice(&forged); // `SyncMsg::Pull`
        err_or_fixed_point::<SyncMsg>(&pull);
        assert!(from_bytes::<SyncMsg>(&pull).is_err(), "{forged:?}");
        let horizon = pull.slice(1..);
        err_or_fixed_point::<Horizon>(&horizon);
        assert!(from_bytes::<Horizon>(&horizon).is_err(), "{forged:?}");
    }
}

/// `bytes` decoded as the `server → version` map a horizon used to be
/// and as a [`Horizon`]: both refused, or both the same entries.
fn map_and_horizon_agree(bytes: &Bytes) -> Result<(), TestCaseError> {
    match (
        from_bytes::<BTreeMap<NodeId, u64>>(bytes),
        from_bytes::<Horizon>(bytes),
    ) {
        (Ok(map), Ok(horizon)) => {
            prop_assert_eq!(
                map.into_iter().collect::<Vec<_>>(),
                horizon.iter().collect::<Vec<_>>()
            )
        }
        (map, horizon) => prop_assert!(map.is_err() && horizon.is_err(), "{map:?} but {horizon:?}"),
    }
    Ok(())
}

proptest! {
    /// A knowledge horizon is a [`Horizon`] wherever it lives; the map
    /// it replaced is its oracle here, and only here: the same entries
    /// encode alike, and any bytes — a map's, a list with servers out
    /// of order or twice, or noise — decode alike.
    #[test]
    fn a_horizon_is_the_map_it_replaced_on_the_wire(
        map in proptest::collection::btree_map(any::<u16>(), any::<u64>(), 0..13),
        forged in proptest::collection::vec((0u16..6, any::<u64>()), 0..13),
        raw in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let horizon: Horizon = map.iter().map(|(&server, &version)| (server, version)).collect();
        prop_assert_eq!(to_bytes(&map), to_bytes(&horizon));
        map_and_horizon_agree(&to_bytes(&map))?;
        map_and_horizon_agree(&to_bytes(&forged))?;
        map_and_horizon_agree(&Bytes::from(raw))?;
    }

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
        let (fresh, travelled) = (UpdateAgent::new(None, aid(1), &cfg, vec![write_request()]), travelled_agent());
        robust_into(&[fresh, travelled.clone()], &travelled, raw);
        // A named warm agent: decoding into it leaves the id unset too.
        let wider = ReadAgent::new(None, aid(3), &MarpConfig::new(9), 99, 4, 11);
        robust_into(&[ReadAgent::new(None, aid(1), &cfg, 9, 8, 7), wider.clone()], &wider, raw);
        robust(&[AgentEnvelope::MigrateAck { agent: aid(2), hop: 3, horizon: Horizon::from_iter([(0, 4), (3, 9)]) }], raw);
        robust(&[[(0, 4), (3, 9)].into_iter().collect::<Horizon>()], raw);
        robust(&[McvMsg::Apply { ballot, records: vec![commit_record()] }], raw);
        robust(&[WvMsg::RResp { rid: 9, votes: 2, held: Some((300, 6)) }], raw);
        robust(&[AcMsg::StatePush { dump: vec![(7, 300, ts)] }], raw);
        robust(&[PcMsg::Forward { request: write_request() }], raw);
        robust(&trace_events(), raw);
        robust_into(&[locking_table(), larger_table()], &larger_table(), raw);
        let mut ul = UpdatedList::new();
        ul.record(aid(5), SimTime::from_millis(1));
        ul.record(aid(2), SimTime::from_millis(4));
        robust_into(&[ul, finished_list()], &finished_list(), raw);
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

/// The system size the forged-id property drives.
const N: usize = 5;

/// An agent id homed at `home`, told apart from its siblings by `seq`.
fn homed(home: NodeId, seq: u32) -> AgentId {
    AgentId::new(home, SimTime::from_millis(3), seq)
}

/// A Locking Table with one row per `rows` entry (server → the homes
/// of the agents queued there, each at most once).
fn table_of(rows: &BTreeMap<NodeId, Vec<NodeId>>) -> LockingTable {
    let mut lt = LockingTable::new();
    for (&server, homes) in rows {
        lt.merge(server, snapshot(&queue_of(homes)));
    }
    lt
}

/// Agents homed at `homes` in queue order, a home named twice once.
fn queue_of(homes: &[NodeId]) -> Vec<AgentId> {
    let mut queue: Vec<AgentId> = Vec::new();
    for &home in homes {
        if !queue.iter().any(|a| a.home == home) {
            queue.push(homed(home, 1));
        }
    }
    queue
}

/// An Updated List of one finished agent per home.
fn finished_at(homes: &[NodeId]) -> UpdatedList {
    let mut ul = UpdatedList::new();
    for &home in homes {
        ul.record(homed(home, 2), SimTime::from_millis(4));
    }
    ul
}

fn beyond(ids: &[NodeId]) -> bool {
    ids.iter().any(|&id| usize::from(id) >= N)
}

fn rows_beyond(rows: &BTreeMap<NodeId, Vec<NodeId>>) -> bool {
    rows.iter()
        .any(|(&server, homes)| beyond(&[server]) || beyond(homes))
}

/// Server 0 of an N = 5 system hosting one parked update agent for
/// key 7 (it arrived from server 1 with nothing left to visit, and
/// tops one queue of five), and the context it runs in.
#[allow(clippy::disallowed_methods, reason = "forges a message field by field")]
fn host_with_a_parked_agent() -> (MarpNode, marp_repro::sim::RecordingCtx, AgentId) {
    use marp_repro::net::{RoutingTable, Topology};
    use marp_repro::sim::{Process, RecordingCtx};
    let topo = Topology::uniform_lan(N, std::time::Duration::from_millis(1));
    let mut node = MarpNode::new(0, MarpConfig::new(N), RoutingTable::from_topology(0, &topo));
    let mut ctx = RecordingCtx::new(0, SimTime::from_millis(10));
    let parked = AgentId::new(1, SimTime::from_millis(4), 2);
    let nowhere = (Vec::<NodeId>::new(), Vec::<NodeId>::new());
    let state = update_agent_bytes(&nowhere, &LockingTable::new(), &UpdatedList::new(), 0);
    let arrival = NodeMsg::Agent(AgentEnvelope::Migrate {
        agent: parked,
        hop: 1,
        state,
    });
    node.on_message(1, to_bytes(&arrival), &mut ctx);
    assert!(node.update_runtime().resident(parked).is_some(), "parked");
    ctx.sent.clear();
    ctx.traced.clear();
    (node, ctx, parked)
}

/// What a forged input must leave alone: the host's locking picture
/// for key 7, its residents, and the parked agent.
fn host_state(node: &MarpNode, parked: AgentId) -> (AgentReply, usize, usize, UpdateAgent) {
    let agent = node
        .update_runtime()
        .resident(parked)
        .expect("still parked");
    (
        node.state().ll_info(7, SimTime::from_millis(10)),
        node.resident_agents(),
        node.resident_read_agents(),
        agent.clone(),
    )
}

/// Deliver `msg` from server 1 to a fresh host with a parked agent.
/// If `forged`, the host sends nothing but an ack to a `Migrate`,
/// changes nothing, and traces the forgery.
fn deliver(msg: &NodeMsg, forged: bool) -> Result<(), TestCaseError> {
    use marp_repro::sim::{trace, Process};
    let (mut node, mut ctx, parked) = host_with_a_parked_agent();
    let before = host_state(&node, parked);
    node.on_message(1, to_bytes(msg), &mut ctx);
    if !forged {
        return Ok(()); // it ran, as an honest input does: no panic
    }
    prop_assert!(
        host_state(&node, parked) == before,
        "a forged {msg:?} changed the host"
    );
    let sent: Vec<NodeMsg> = ctx
        .sent
        .iter()
        .map(|(_, frame)| from_bytes(frame).expect("a message"))
        .collect();
    let acks = sent.iter().filter(|m| {
        matches!(
            m,
            NodeMsg::Agent(AgentEnvelope::MigrateAck { .. })
                | NodeMsg::RAgent(AgentEnvelope::MigrateAck { .. })
        )
    });
    prop_assert_eq!(acks.count(), sent.len(), "a forged input sent {:?}", sent);
    let traced = ctx.traced.iter().any(|e| {
        matches!(
            e,
            TraceEvent::Custom {
                kind: trace::AGENT_STATE_FORGED,
                ..
            }
        )
    });
    prop_assert!(traced, "the forged {msg:?} went untraced");
    Ok(())
}

proptest! {
    /// Decoding cannot know how many servers a system has, so an
    /// agent's state, its envelope or a reply to an agent may name a
    /// server an N = 5 host does not have: an itinerary stop (or the
    /// host itself, which an arrival has visited), a Locking-Table row,
    /// or an agent's home, the arriving agent's own included. Every
    /// such `NodeId` here is drawn from the whole `u16` range. The host checks each arrival and each reply once:
    /// whatever names a server past N is disposed of, traced and never
    /// run, and leaves the host as it was; nothing panics.
    #[test]
    fn a_forged_server_id_never_reaches_a_host_or_an_agent(
        unvisited in proptest::collection::vec(any::<u16>(), 0..5),
        unavailable in proptest::collection::vec(any::<u16>(), 0..3),
        rows in proptest::collection::btree_map(any::<u16>(), proptest::collection::vec(any::<u16>(), 0..4), 0..4),
        finished in proptest::collection::vec(any::<u16>(), 0..4),
        queued in proptest::collection::vec(any::<u16>(), 0..4),
        client in any::<u16>(),
        home in any::<u16>(),
        wild in 0usize..5,
    ) {
        // In four cases of five one list (or the arriving agents' home)
        // keeps the whole range and the others are folded below N, so
        // each check is shown to matter on its own.
        let fold = |ids: Vec<NodeId>, keep: bool| -> Vec<NodeId> {
            if keep { ids } else { ids.into_iter().map(|id| id % N as NodeId).collect() }
        };
        let unvisited = fold(unvisited, matches!(wild, 0 | 1));
        let unavailable = fold(unavailable, matches!(wild, 0 | 1));
        let rows: BTreeMap<NodeId, Vec<NodeId>> = rows
            .into_iter()
            .map(|(server, homes)| (server, fold(homes, matches!(wild, 0 | 2))))
            .filter(|&(server, _)| matches!(wild, 0 | 2) || usize::from(server) < N)
            .collect();
        let queued = fold(queued, matches!(wild, 0 | 2));
        let finished = fold(finished, matches!(wild, 0 | 3));
        let home = fold(vec![home], matches!(wild, 0 | 4))[0];
        let itinerary = (unvisited.clone(), unavailable.clone());
        let (table, ul) = (table_of(&rows), finished_at(&finished));
        // The host is server 0, and no honest arrival still has it to visit.
        let itinerary_forged = beyond(&unvisited) || beyond(&unavailable) || unvisited.contains(&0) || unavailable.contains(&0);

        let state = update_agent_bytes(&itinerary, &table, &ul, 0);
        let update: UpdateAgent = from_bytes(&state).expect("structurally valid");
        let (node, _, _) = host_with_a_parked_agent();
        // Named in no table or list it carries.
        let agent = AgentId::new(home, SimTime::from_millis(5), 1);
        let (admitted, allocations, _) = noting_alloc::requests_during(|| {
            marp_repro::agent::AgentBehavior::validate(&update, agent, node.state())
        });
        prop_assert_eq!(allocations, 0, "validating an arrival allocated");
        let forged = beyond(&[home]) || itinerary_forged || rows_beyond(&rows) || beyond(&finished);
        prop_assert_eq!(admitted, !forged);
        let arrival = AgentEnvelope::Migrate { agent, hop: 1, state };
        deliver(&NodeMsg::Agent(arrival), forged)?;

        let state = read_agent_bytes(&itinerary, client);
        let arrival = AgentEnvelope::Migrate { agent, hop: 1, state };
        deliver(&NodeMsg::RAgent(arrival), beyond(&[home]) || itinerary_forged)?;

        let (_, _, parked) = host_with_a_parked_agent();
        let replies = [
            (AgentReply::LlChanged { finished: homed(finished.first().copied().unwrap_or(client), 3), at: SimTime::from_millis(8) },
             beyond(&[finished.first().copied().unwrap_or(client)])),
            (AgentReply::LlInfo { snapshot: snapshot(&queue_of(&queued)), board: table, ul },
             beyond(&queued) || rows_beyond(&rows) || beyond(&finished)),
        ];
        for (reply, forged) in replies {
            let (admitted, allocations, _) = noting_alloc::requests_during(|| reply.validate(N));
            prop_assert_eq!(allocations, 0, "validating a reply allocated");
            prop_assert_eq!(admitted, !forged);
            let mail = AgentEnvelope::ToAgent { agent: parked, payload: to_bytes(&reply) };
            deliver(&NodeMsg::Agent(mail), forged)?;
        }
    }
}
