//! Golden wire vectors: one fixed value per variant of every message
//! and carried-state type `marp-core` can see, compared against
//! committed hex. The encoding is the protocol — the byte counts in
//! `results/sweep_*.json`, their exponents and the mcheck corpus all
//! rest on it — so a codec refactor must leave every line here untouched.
//!
//! To re-bless after a deliberate format change, run the test: the
//! failure message prints every mismatching vector as a ready-to-paste
//! `name: hex` line.

use bytes::Bytes;
use marp_agent::{AgentBehavior, AgentEnvelope, AgentId, Itinerary, ItineraryPolicy};
use marp_core::lt::LockingTable;
use marp_core::{
    agent_header, read_agent_header, AgentReply, CommitMsg, MarpConfig, NodeMsg, ReadAgent,
    UpdateAgent, UpdateMsg,
};
use marp_replica::{
    ClientReply, ClientRequest, CommitRecord, LlSnapshot, Operation, SyncMsg, UpdatedList,
    WriteRequest,
};
use marp_sim::{SimTime, SpanKind};
use marp_wire::Wire;
use std::collections::BTreeMap;
use std::fmt::Debug;

#[derive(Default)]
struct Golden {
    mismatches: Vec<String>,
}

impl Golden {
    fn check<T: Wire + PartialEq + Debug>(&mut self, name: &str, value: T, hex: &str) {
        let back: T = self.decoded(name, &value, hex);
        assert_eq!(back, value, "{name}: round trip");
    }

    /// [`Self::check`] for an agent state, which ships without its id:
    /// it round-trips once its envelope names it.
    fn check_agent<B: AgentBehavior + PartialEq + Debug>(
        &mut self,
        name: &str,
        value: B,
        hex: &str,
    ) {
        let mut back: B = self.decoded(name, &value, hex);
        back.set_id(value.id());
        assert_eq!(back, value, "{name}: round trip");
    }

    /// `value`'s encoding, compared against `hex`, decoded.
    fn decoded<T: Wire>(&mut self, name: &str, value: &T, hex: &str) -> T {
        let bytes = marp_wire::to_bytes(value);
        let actual: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        if actual != hex {
            self.mismatches.push(format!("{name}: {actual}"));
        }
        marp_wire::from_bytes::<T>(&bytes).expect(name)
    }

    fn finish(self) {
        assert!(
            self.mismatches.is_empty(),
            "wire format changed; actual encodings:\n{}",
            self.mismatches.join("\n")
        );
    }
}

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

fn aid(home: u16) -> AgentId {
    AgentId::new(home, ms(3), 7)
}

fn write_request() -> WriteRequest {
    WriteRequest {
        id: 9,
        client: 8,
        key: 7,
        value: 300,
        arrived: ms(5),
    }
}

fn commit_record() -> CommitRecord {
    CommitRecord {
        version: 1,
        key: 2,
        value: 3,
        agent: aid(1).key(),
        request: 9,
        committed_at: ms(11),
    }
}

fn snapshot(version: u64, queue: &[AgentId]) -> LlSnapshot {
    LlSnapshot {
        version,
        taken_at: ms(version),
        queue: queue.to_vec(),
    }
}

fn locking_table() -> LockingTable {
    let mut lt = LockingTable::new();
    lt.merge(0, snapshot(1, &[aid(4)]));
    lt.merge(2, snapshot(6, &[aid(1), aid(2)]));
    lt
}

/// A contended table as an agent `aid(1)` would carry it: four agents
/// queued in different orders at four servers, one of which has not
/// seen the carrier.
fn contended_table() -> LockingTable {
    let mut lt = LockingTable::new();
    lt.merge(0, snapshot(4, &[aid(2), aid(1), aid(4)]));
    lt.merge(2, snapshot(6, &[aid(1), aid(2), aid(3)]));
    lt.merge(3, snapshot(2, &[aid(3), aid(4)]));
    lt.merge(5, snapshot(9, &[aid(2), aid(3), aid(1), aid(4)]));
    lt
}

#[test]
fn leaf_and_carried_state_vectors() {
    let mut g = Golden::default();
    g.check("SimTime", ms(3), "c08db701");
    g.check("AgentId", aid(2), "c08db7010207");
    for (kind, hex) in [
        (SpanKind::Request, "00"),
        (SpanKind::Dispatch, "01"),
        (SpanKind::Migrate, "02"),
        (SpanKind::LockAcquire, "03"),
        (SpanKind::UpdateQuorum, "04"),
        (SpanKind::Commit, "05"),
        (SpanKind::Read, "06"),
    ] {
        g.check(&format!("SpanKind::{kind:?}"), kind, hex);
    }
    let mut itinerary = Itinerary::for_system(5, 1);
    itinerary.mark_unavailable(4);
    itinerary.next_destination(ItineraryPolicy::FixedOrder, |_| 0.0);
    g.check("Itinerary", itinerary, "0203020104");
    g.check(
        "LockingTable",
        locking_table(),
        "03c08db7010107c08db7010207c08db7010407020001c0843d01020206809bee02020001",
    );
    g.check(
        "LockingTable(contended)",
        contended_table(),
        "04c08db7010107c08db7010207c08db7010307c08db70104070400048092f401030100030206809bee0203000102030280897a0202030509c0a8a5040401020003",
    );
    let cfg = MarpConfig::new(5);
    g.check_agent(
        "UpdateAgent",
        UpdateAgent::new(None, aid(1), &cfg, vec![write_request()]).with_incarnation(2),
        "01090807ac02c096b1020400020304000000000002",
    );
    // Nothing else rides: a freshly dispatched one-request agent is the
    // paper's four lists (RL, USL, LT, UAL) and two one-byte counters —
    // no id (its envelope names it), no phase (it leaves a host only
    // travelling), no visit list (the USL's complement), no host
    // configuration, no timer or re-poll state.
    use marp_wire::to_bytes;
    let fresh = UpdateAgent::new(None, aid(1), &cfg, vec![write_request()]);
    let lists = to_bytes(&vec![write_request()]).len()
        + to_bytes(&Itinerary::for_system(5, 1)).len()
        + to_bytes(&LockingTable::new()).len()
        + to_bytes(&UpdatedList::new()).len();
    let (attempt, incarnation) = (1, 1);
    assert_eq!(to_bytes(&fresh).len(), lists + attempt + incarnation);
    let read = ReadAgent::new(None, aid(1), &cfg, 9, 8, 7);
    g.check_agent("ReadAgent", read.clone(), "090807000000040002030400");
    // A migrate frame names its agent once, in the envelope.
    let id = to_bytes(&aid(1));
    let occurrences = |frame: Bytes| frame.windows(id.len()).filter(|w| *w == &id[..]).count();
    let (update_frame, _) = AgentEnvelope::migrate_frame(agent_header, aid(1), 2, &fresh);
    assert_eq!(occurrences(update_frame), 1, "UpdateAgent migrate frame");
    let (read_frame, _) = AgentEnvelope::migrate_frame(read_agent_header, aid(1), 2, &read);
    assert_eq!(occurrences(read_frame), 1, "ReadAgent migrate frame");
    g.finish();
}

#[test]
fn message_vectors() {
    let mut g = Golden::default();
    g.check("Operation::Read", Operation::Read { key: 5 }, "0005");
    g.check(
        "Operation::Write",
        Operation::Write { key: 5, value: 300 },
        "0105ac02",
    );
    g.check(
        "Operation::ReadFresh",
        Operation::ReadFresh { key: 5 },
        "0205",
    );
    g.check(
        "ClientReply::ReadOk(some)",
        ClientReply::ReadOk {
            id: 1,
            key: 2,
            value: Some(300),
            version: 4,
        },
        "00010201ac0204",
    );
    g.check(
        "ClientReply::ReadOk(none)",
        ClientReply::ReadOk {
            id: 1,
            key: 2,
            value: None,
            version: 0,
        },
        "0001020000",
    );
    g.check(
        "ClientReply::WriteDone",
        ClientReply::WriteDone { id: 1, version: 9 },
        "010109",
    );
    g.check(
        "ClientReply::Rejected",
        ClientReply::Rejected { id: 1 },
        "0201",
    );
    g.check(
        "SyncMsg::Pull",
        SyncMsg::Pull {
            versions: BTreeMap::from([(0, 12)]),
        },
        "0001000c",
    );
    g.check(
        "SyncMsg::Pull(keyed)",
        SyncMsg::Pull {
            versions: BTreeMap::from([(0, 3), (7, 1)]),
        },
        "000200030701",
    );
    g.check(
        "SyncMsg::Push",
        SyncMsg::Push {
            records: vec![commit_record()],
        },
        "0101010203878080801009c0b19f05",
    );
    g.check(
        "AgentEnvelope::Migrate",
        AgentEnvelope::Migrate {
            agent: aid(2),
            hop: 3,
            state: Bytes::from_static(b"state"),
        },
        "00c08db701020703057374617465",
    );
    let migrate_ack = AgentEnvelope::MigrateAck {
        agent: aid(2),
        hop: 3,
        horizon: marp_agent::Horizon::from_iter([(0, 4), (2, 9)]),
    };
    g.check(
        "AgentEnvelope::MigrateAck",
        migrate_ack.clone(),
        "01c08db7010207030200040209",
    );
    g.check(
        "AgentEnvelope::ToAgent",
        AgentEnvelope::ToAgent {
            agent: aid(2),
            payload: Bytes::from_static(b"ack"),
        },
        "02c08db70102070361636b",
    );
    g.check(
        "NodeMsg::Client",
        NodeMsg::Client(ClientRequest {
            id: 1,
            op: Operation::Write { key: 2, value: 3 },
        }),
        "0001010203",
    );
    g.check(
        "NodeMsg::Agent",
        NodeMsg::Agent(migrate_ack.clone()),
        "0101c08db7010207030200040209",
    );
    g.check(
        "NodeMsg::Update",
        NodeMsg::Update(UpdateMsg {
            agent: aid(1),
            attempt: 2,
            incarnation: 1,
            // Not shipped: the receiving node sets it to the sender.
            reply_to: 0,
            requests: vec![write_request()],
            tie_certificate: Some(vec![aid(2), aid(3)]),
        }),
        "02c08db7010107020101090807ac02c096b1020102c08db7010207c08db7010307",
    );
    g.check(
        "NodeMsg::Commit",
        NodeMsg::Commit(CommitMsg {
            agent: aid(1),
            records: vec![commit_record()],
        }),
        "03c08db701010701010203878080801009c0b19f05",
    );
    g.check(
        "NodeMsg::Release",
        NodeMsg::Release { agent: aid(1) },
        "04c08db7010107",
    );
    g.check(
        "NodeMsg::LlQuery",
        NodeMsg::LlQuery {
            agent: aid(1),
            key: 6,
            horizon: marp_agent::Horizon::from_iter([(0, 3), (4, 9)]),
        },
        "05c08db7010107060200030409",
    );
    g.check(
        "NodeMsg::Sync",
        NodeMsg::Sync(SyncMsg::Pull {
            versions: BTreeMap::from([(0, 3)]),
        }),
        "0600010003",
    );
    g.check(
        "NodeMsg::RAgent",
        NodeMsg::RAgent(migrate_ack),
        "0701c08db7010207030200040209",
    );
    g.check(
        "AgentReply::UpdateAck",
        AgentReply::UpdateAck {
            attempt: 3,
            positive: true,
            store_version: 5,
            fenced: false,
        },
        "0003010500",
    );
    let mut ul = UpdatedList::new();
    ul.record(aid(5), ms(1));
    g.check(
        "AgentReply::LlInfo",
        AgentReply::LlInfo {
            snapshot: snapshot(2, &[aid(1), aid(2)]),
            board: locking_table(),
            ul,
        },
        "010280897a02c08db7010107c08db701020703c08db7010107c08db7010207c08db7010407020001c0843d01020206809bee0202000101c08db7010507c0843d",
    );
    g.check(
        "AgentReply::LlChanged",
        AgentReply::LlChanged {
            finished: aid(5),
            at: ms(9),
        },
        "02c08db7010507c0a8a504",
    );
    g.finish();
}
