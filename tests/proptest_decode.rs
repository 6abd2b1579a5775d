//! Decode robustness over every top-level message and carried-state
//! type a replica, client or agent host decodes off the network: for
//! arbitrary bytes and for every strict prefix of a valid encoding the
//! decoder returns `Err`, or a value that round-trips with an exact
//! `encoded_len` — never a panic (a malformed packet must not crash a
//! replica).

use bytes::Bytes;
use marp_repro::agent::{AgentEnvelope, AgentId};
use marp_repro::baselines::{AcMsg, Ballot, LwwTs, McvMsg, PcMsg, WvMsg};
use marp_repro::core::{
    AgentReply, CommitMsg, MarpConfig, NodeMsg, ReadAgent, UpdateAgent, UpdateMsg,
};
use marp_repro::replica::{
    ClientReply, ClientRequest, CommitRecord, LlSnapshot, Operation, SyncMsg, UpdatedList,
    WriteRequest,
};
use marp_repro::sim::SimTime;
use marp_repro::wire::{from_bytes, to_bytes, Wire};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Whatever `bytes` decodes to as a `T` is a fixed point of the codec.
fn err_or_fixed_point<T: Wire + PartialEq + Debug>(bytes: &Bytes) {
    if let Ok(value) = from_bytes::<T>(bytes) {
        let again = to_bytes(&value);
        assert_eq!(value.encoded_len(), again.len());
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
        robust(&[ClientReply::ReadOk { id: 1, key: 2, value: Some(300), version: 4 }], raw);
        robust(&[McvMsg::Apply { ballot, records: vec![commit_record()] }], raw);
        robust(&[WvMsg::RResp { rid: 9, votes: 2, held: Some((300, 6)) }], raw);
        robust(&[AcMsg::StatePush { dump: vec![(7, 300, ts)] }], raw);
        robust(&[PcMsg::Forward { request: write_request() }], raw);
    }
}
