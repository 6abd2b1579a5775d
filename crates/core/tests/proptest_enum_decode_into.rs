//! Model test for decoding a tagged union into a warm value: the
//! message space of a MARP node ([`NodeMsg`]), of an agent runtime
//! ([`AgentEnvelope`]) and of a server's mail to an agent
//! ([`AgentReply`]), each driven through a run of valid, truncated and
//! byte-flipped frames into one value held throughout — of whatever
//! variant the last frame left, as a node's inbox holds it. Decoding a
//! frame into it must be `Ok` exactly when `from_bytes` is, and then
//! give the value `from_bytes` gives, a field kept off the wire at its
//! `Default` although the receiver set it after the frame before. After
//! an `Err`, the held value is a mix, and the next valid frame must
//! still decode into it as into any other.

use bytes::Bytes;
use marp_agent::{AgentEnvelope, AgentId, Horizon};
use marp_core::lt::LockingTable;
use marp_core::{AgentReply, CommitMsg, NodeMsg, UpdateMsg};
use marp_replica::{
    ClientRequest, CommitRecord, LlSnapshot, Operation, SyncMsg, UpdatedList, WriteRequest,
};
use marp_sim::{NodeId, SimTime};
use marp_wire::{from_bytes, from_bytes_into, to_bytes, Wire};
use proptest::prelude::*;
use proptest::sample::Index;
use std::fmt::Debug;

fn arb_agent_id() -> impl Strategy<Value = AgentId> {
    (0u16..12, 0u64..1_000_000, 0u32..1_000)
        .prop_map(|(home, ms, seq)| AgentId::new(home, SimTime::from_millis(ms), seq))
}

fn arb_horizon() -> impl Strategy<Value = Horizon> {
    proptest::collection::btree_map(0u16..12, any::<u64>(), 0..6)
        .prop_map(|map| map.into_iter().collect())
}

fn arb_bytes() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..48).prop_map(Bytes::from)
}

fn arb_write_request() -> impl Strategy<Value = WriteRequest> {
    (
        any::<u64>(),
        0u16..12,
        0u64..16,
        any::<u64>(),
        0u64..1_000_000,
    )
        .prop_map(|(id, client, key, value, ms)| WriteRequest {
            id,
            client,
            key,
            value,
            arrived: SimTime::from_millis(ms),
        })
}

fn arb_commit_record() -> impl Strategy<Value = CommitRecord> {
    (
        1u64..1_000,
        0u64..16,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(version, key, value, agent, request)| CommitRecord {
            version,
            key,
            value,
            agent,
            request,
            committed_at: SimTime::from_millis(version),
        })
}

fn arb_envelope() -> impl Strategy<Value = AgentEnvelope> {
    prop_oneof![
        (arb_agent_id(), any::<u32>(), arb_bytes())
            .prop_map(|(agent, hop, state)| AgentEnvelope::Migrate { agent, hop, state }),
        (arb_agent_id(), any::<u32>(), arb_horizon()).prop_map(|(agent, hop, horizon)| {
            AgentEnvelope::MigrateAck {
                agent,
                hop,
                horizon,
            }
        }),
        (arb_agent_id(), arb_bytes())
            .prop_map(|(agent, payload)| AgentEnvelope::ToAgent { agent, payload }),
    ]
}

fn arb_node_msg() -> impl Strategy<Value = NodeMsg> {
    let records = || proptest::collection::vec(arb_commit_record(), 0..5);
    prop_oneof![
        (any::<u64>(), 0u64..16, any::<u64>()).prop_map(|(id, key, value)| {
            NodeMsg::Client(ClientRequest {
                id,
                op: Operation::Write { key, value },
            })
        }),
        arb_envelope().prop_map(NodeMsg::Agent),
        arb_envelope().prop_map(NodeMsg::RAgent),
        (
            arb_agent_id(),
            any::<u32>(),
            any::<u32>(),
            proptest::collection::vec(arb_write_request(), 0..5),
            proptest::option::of(proptest::collection::vec(arb_agent_id(), 0..4)),
        )
            .prop_map(|(agent, attempt, incarnation, requests, tie_certificate)| {
                NodeMsg::Update(UpdateMsg {
                    agent,
                    attempt,
                    incarnation,
                    reply_to: 0,
                    requests,
                    tie_certificate,
                })
            }),
        (arb_agent_id(), records())
            .prop_map(|(agent, records)| NodeMsg::Commit(CommitMsg { agent, records })),
        arb_agent_id().prop_map(|agent| NodeMsg::Release { agent }),
        (arb_agent_id(), 0u64..16, arb_horizon()).prop_map(|(agent, key, horizon)| {
            NodeMsg::LlQuery {
                agent,
                key,
                horizon,
            }
        }),
        records().prop_map(|records| NodeMsg::Sync(SyncMsg::Push { records })),
        proptest::collection::btree_map(0u64..16, any::<u64>(), 0..4)
            .prop_map(|versions| NodeMsg::Sync(SyncMsg::Pull { versions })),
    ]
}

fn arb_queue() -> impl Strategy<Value = Vec<AgentId>> {
    proptest::collection::btree_set(arb_agent_id(), 0..5).prop_map(|set| set.into_iter().collect())
}

fn arb_agent_reply() -> impl Strategy<Value = AgentReply> {
    prop_oneof![
        (any::<u32>(), any::<bool>(), any::<u64>(), any::<bool>()).prop_map(
            |(attempt, positive, store_version, fenced)| AgentReply::UpdateAck {
                attempt,
                positive,
                store_version,
                fenced,
            }
        ),
        (
            arb_queue(),
            proptest::collection::btree_map(0u16..12, arb_queue(), 0..4),
            proptest::collection::vec(arb_agent_id(), 0..4),
        )
            .prop_map(|(queue, rows, finished)| {
                let snapshot = |version: u64, queue: Vec<AgentId>| LlSnapshot {
                    version,
                    taken_at: SimTime::from_millis(version),
                    queue,
                };
                let mut board = LockingTable::new();
                for (server, row) in rows {
                    board.merge(server as NodeId, snapshot(u64::from(server) + 1, row));
                }
                let mut ul = UpdatedList::new();
                for agent in finished {
                    ul.record(agent, SimTime::from_millis(2));
                }
                AgentReply::LlInfo {
                    snapshot: snapshot(7, queue),
                    board,
                    ul,
                }
            }),
        (arb_agent_id(), 0u64..1_000_000).prop_map(|(finished, ms)| AgentReply::LlChanged {
            finished,
            at: SimTime::from_millis(ms),
        }),
    ]
}

/// What becomes of a frame on its way: `(how, where, bit)`. 0 leaves it
/// whole, 1 cuts it short before `where`, 2 flips `bit` of the byte at
/// `where`.
type Damage = (u8, Index, u8);

fn arb_damage() -> impl Strategy<Value = Damage> {
    (0u8..3, any::<Index>(), 0u8..8)
}

fn damaged(valid: &Bytes, (how, at, bit): &Damage) -> Bytes {
    if valid.is_empty() {
        return valid.clone();
    }
    let at = at.index(valid.len());
    match how {
        1 => valid.slice(0..at),
        2 => {
            let mut raw = valid.to_vec();
            raw[at] ^= 1 << bit;
            Bytes::from(raw)
        }
        _ => valid.clone(),
    }
}

/// Decode each frame into `held` and check it against `from_bytes`;
/// after each decoded frame, `received` does what a receiver does with
/// the value (sets a field the wire does not carry), and after an
/// `Err` the frame whole is decoded into `held` as well.
fn agrees<T: Wire + PartialEq + Debug>(
    mut held: T,
    frames: &[(T, Damage)],
    received: fn(&mut T),
) -> Result<(), TestCaseError> {
    for (msg, damage) in frames {
        let valid = to_bytes(msg);
        let frame = damaged(&valid, damage);
        let decoded = from_bytes_into(&mut held, &frame);
        let fresh = from_bytes::<T>(&frame);
        prop_assert_eq!(
            decoded.is_ok(),
            fresh.is_ok(),
            "{:?} into {:?}",
            frame,
            held
        );
        match fresh {
            Ok(fresh) => prop_assert_eq!(&held, &fresh),
            Err(_) => {
                from_bytes_into(&mut held, &valid)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(&held, &from_bytes::<T>(&valid).expect("a valid frame"));
            }
        }
        received(&mut held);
    }
    Ok(())
}

/// The node names an UPDATE's claimant after its sender, as
/// `MarpNode` does.
fn addressed(msg: &mut NodeMsg) {
    if let NodeMsg::Update(update) = msg {
        update.reply_to = 3;
    }
}

fn untouched<T>(_: &mut T) {}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_node_message_decodes_into_a_warm_one_as_afresh(
        mut held in arb_node_msg(),
        frames in proptest::collection::vec((arb_node_msg(), arb_damage()), 1..10),
    ) {
        addressed(&mut held);
        agrees(held, &frames, addressed)?;
    }

    #[test]
    fn an_envelope_decodes_into_a_warm_one_as_afresh(
        held in arb_envelope(),
        frames in proptest::collection::vec((arb_envelope(), arb_damage()), 1..10),
    ) {
        agrees(held, &frames, untouched)?;
    }

    #[test]
    fn an_agent_reply_decodes_into_a_warm_one_as_afresh(
        held in arb_agent_reply(),
        frames in proptest::collection::vec((arb_agent_reply(), arb_damage()), 1..10),
    ) {
        agrees(held, &frames, untouched)?;
    }
}
