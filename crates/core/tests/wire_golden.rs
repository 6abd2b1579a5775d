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
use marp_agent::{AgentEnvelope, AgentId, Itinerary, ItineraryPolicy};
use marp_core::lt::LockingTable;
use marp_core::{
    AgentReply, CommitMsg, MarpConfig, NodeMsg, Phase, ReadAgent, UpdateAgent, UpdateMsg,
};
use marp_quorum::{QuorumCall, SuccessRule, Verdict};
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
        let bytes = marp_wire::to_bytes(&value);
        let actual: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        if actual != hex {
            self.mismatches.push(format!("{name}: {actual}"));
        }
        assert_eq!(
            marp_wire::from_bytes::<T>(&bytes).expect(name),
            value,
            "{name}: round trip"
        );
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

fn quorum_call() -> QuorumCall<u64> {
    let mut call = QuorumCall::majority(5, ms(2)).with_span(77);
    call.offer_vote(0, true, 10);
    call.offer_vote(3, false, 0);
    call
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
    g.check(
        "ItineraryPolicy::CostSorted",
        ItineraryPolicy::CostSorted,
        "00",
    );
    g.check(
        "ItineraryPolicy::FixedOrder",
        ItineraryPolicy::FixedOrder,
        "01",
    );
    g.check(
        "ItineraryPolicy::Random",
        ItineraryPolicy::Random { seed: 500 },
        "02f403",
    );
    let mut itinerary = Itinerary::for_system(5, 1, ItineraryPolicy::FixedOrder);
    itinerary.mark_unavailable(4);
    itinerary.next_destination(|_| 0.0);
    g.check("Itinerary", itinerary, "02030201040101");
    g.check("Verdict::Won", Verdict::Won, "00");
    g.check("Verdict::Lost", Verdict::Lost, "01");
    g.check("Verdict::TimedOut", Verdict::TimedOut, "02");
    g.check(
        "SuccessRule::Majority",
        SuccessRule::Majority { n: 5 },
        "0005",
    );
    g.check(
        "SuccessRule::Weighted",
        SuccessRule::Weighted {
            total_votes: 9,
            threshold: 300,
        },
        "0109ac02",
    );
    g.check("SuccessRule::AllAvailable", SuccessRule::AllAvailable, "02");
    g.check("SuccessRule::FirstK", SuccessRule::FirstK { k: 3 }, "0303");
    g.check(
        "QuorumCall",
        quorum_call(),
        "00050304010201000a0103010180897a004d",
    );
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
    g.check("Phase::Travelling", Phase::Travelling, "00");
    g.check(
        "Phase::Parked",
        Phase::Parked {
            round: 3,
            quiet_fires: 2,
        },
        "010302",
    );
    g.check(
        "Phase::Updating",
        Phase::Updating {
            via_tie: true,
            certificate: vec![aid(2)],
            call: quorum_call(),
            news: false,
        },
        "020101c08db701020700050304010201000a0103010180897a004d00",
    );
    let cfg = MarpConfig::new(5);
    g.check(
        "UpdateAgent",
        UpdateAgent::new(aid(1), &cfg, vec![write_request()]).with_incarnation(2),
        "c08db701010701090807ac02c096b102040002030400000000000000000200",
    );
    // Nothing else rides: a freshly dispatched one-request agent is its
    // id, the paper's four lists (RL, USL, LT, UAL), where it has been,
    // two one-byte counters and the phase tag — no host configuration,
    // no timer or re-poll state.
    use marp_wire::to_bytes;
    let fresh = UpdateAgent::new(aid(1), &cfg, vec![write_request()]);
    let lists = to_bytes(&vec![write_request()]).len()
        + to_bytes(&Itinerary::for_system(5, 1, cfg.itinerary)).len()
        + to_bytes(&LockingTable::new()).len()
        + to_bytes(&UpdatedList::new()).len();
    let visited = to_bytes(&Vec::<marp_sim::NodeId>::new()).len();
    let (attempt, incarnation, phase_tag) = (1, 1, 1);
    assert_eq!(
        to_bytes(&fresh).len(),
        to_bytes(&aid(1)).len() + lists + visited + attempt + incarnation + phase_tag
    );
    g.check(
        "ReadAgent",
        ReadAgent::new(aid(1), &cfg, 9, 8, 7),
        "c08db7010107090807030305000102030400000000c08db7010000040002030400000000",
    );
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
        horizon: BTreeMap::from([(0, 4), (2, 9)]),
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
            reply_to: 4,
            requests: vec![write_request()],
            tie_certificate: Some(vec![aid(2), aid(3)]),
        }),
        "02c08db701010702010401090807ac02c096b1020102c08db7010207c08db7010307",
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
            reply_to: 2,
            horizon: BTreeMap::from([(0, 3), (4, 9)]),
        },
        "05c08db701010706020200030409",
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
            node: 1,
            attempt: 3,
            positive: true,
            store_version: 5,
            last_update: ms(7),
            fenced: false,
        },
        "0001030105c09fab0300",
    );
    let mut ul = UpdatedList::new();
    ul.record(aid(5), ms(1));
    g.check(
        "AgentReply::LlInfo",
        AgentReply::LlInfo {
            node: 2,
            snapshot: snapshot(2, &[aid(1), aid(2)]),
            board: locking_table(),
            ul,
        },
        "01020280897a02c08db7010107c08db701020703c08db7010107c08db7010207c08db7010407020001c0843d01020206809bee0202000101c08db7010507c0843d",
    );
    g.check(
        "AgentReply::LlChanged",
        AgentReply::LlChanged {
            node: 2,
            finished: aid(5),
            at: ms(9),
        },
        "0202c08db7010507c0a8a504",
    );
    g.finish();
}
