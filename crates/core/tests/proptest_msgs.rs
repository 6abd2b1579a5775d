//! Property tests for the MARP message space: round-trips for every
//! message shape, decoder robustness against bit flips, and the
//! one-pass agent and broadcast frames against the messages they stand
//! for.
//! (Arbitrary and truncated bytes are covered for every message type at
//! once by `tests/proptest_decode.rs` at the workspace root.)

use bytes::Bytes;
use marp_agent::{AgentEnvelope, AgentId, Horizon, WrapFn};
use marp_core::{agent_header, read_agent_header, AgentReply, CommitMsg, NodeMsg, UpdateMsg};
use marp_replica::{ClientRequest, CommitRecord, Operation, SyncMsg, WriteRequest};
use marp_sim::SimTime;
use proptest::prelude::*;

fn arb_agent_id() -> impl Strategy<Value = AgentId> {
    (any::<u16>(), 0u64..1_000_000, any::<u32>())
        .prop_map(|(home, ms, seq)| AgentId::new(home, SimTime::from_millis(ms), seq))
}

fn arb_write_request() -> impl Strategy<Value = WriteRequest> {
    (
        any::<u64>(),
        any::<u16>(),
        any::<u64>(),
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
        1u64..1_000_000,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        0u64..1_000_000,
    )
        .prop_map(|(version, key, value, agent, request, ms)| CommitRecord {
            version,
            key,
            value,
            agent,
            request,
            committed_at: SimTime::from_millis(ms),
        })
}

fn arb_node_msg() -> impl Strategy<Value = NodeMsg> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(id, key)| NodeMsg::Client(ClientRequest {
            id,
            op: Operation::Read { key },
        })),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(id, key, value)| NodeMsg::Client(
            ClientRequest {
                id,
                op: Operation::Write { key, value },
            }
        )),
        (
            arb_agent_id(),
            any::<u32>(),
            proptest::collection::btree_map(any::<u16>(), any::<u64>(), 0..4),
        )
            .prop_map(
                |(agent, hop, horizon)| NodeMsg::Agent(AgentEnvelope::MigrateAck {
                    agent,
                    hop,
                    horizon: horizon.into_iter().collect(),
                })
            ),
        (
            arb_agent_id(),
            any::<u32>(),
            any::<u32>(),
            proptest::collection::vec(arb_write_request(), 0..4),
            proptest::option::of(proptest::collection::vec(arb_agent_id(), 0..4)),
        )
            .prop_map(|(agent, attempt, incarnation, requests, tie_certificate)| {
                NodeMsg::Update(UpdateMsg {
                    agent,
                    attempt,
                    incarnation,
                    // The sender, which the receiving node fills in.
                    reply_to: 0,
                    requests,
                    tie_certificate,
                })
            }),
        (
            arb_agent_id(),
            proptest::collection::vec(arb_commit_record(), 0..4)
        )
            .prop_map(|(agent, records)| NodeMsg::Commit(CommitMsg { agent, records })),
        arb_agent_id().prop_map(|agent| NodeMsg::Release { agent }),
        (
            arb_agent_id(),
            0u64..1_000_000,
            proptest::collection::btree_map(any::<u16>(), any::<u64>(), 0..4),
        )
            .prop_map(|(agent, key, horizon)| NodeMsg::LlQuery {
                agent,
                key,
                horizon: horizon.into_iter().collect(),
            }),
        proptest::collection::btree_map(any::<u64>(), any::<u64>(), 0..4)
            .prop_map(|versions| NodeMsg::Sync(SyncMsg::Pull { versions })),
    ]
}

proptest! {
    /// Each frame the runtimes write in one pass is byte for byte the
    /// node message wrapping the envelope that owns its values, with a
    /// nested state or payload as `to_bytes` of it — whatever its
    /// length prefix's width.
    #[test]
    fn one_pass_frames_are_the_messages_they_stand_for(
        agent in arb_agent_id(),
        hop in any::<u32>(),
        read in any::<bool>(),
        state in proptest::collection::vec(any::<u64>(), 0..40),
        horizon in proptest::collection::btree_map(any::<u16>(), any::<u64>(), 0..12),
        ms in 0u64..1_000_000,
    ) {
        // A runtime's header, and the node message it heads.
        let (header, carrier): (WrapFn, fn(AgentEnvelope) -> NodeMsg) = if read {
            (read_agent_header, NodeMsg::RAgent)
        } else {
            (agent_header, NodeMsg::Agent)
        };
        let wrapped = |envelope| marp_wire::to_bytes(&carrier(envelope));
        let (frame, state_len) = AgentEnvelope::migrate_frame(header, agent, hop, &state);
        let state = marp_wire::to_bytes(&state);
        prop_assert_eq!(state_len, state.len());
        prop_assert_eq!(frame, wrapped(AgentEnvelope::Migrate { agent, hop, state }));

        let written: Horizon = horizon.iter().map(|(&s, &v)| (s, v)).collect();
        let frame = AgentEnvelope::ack_frame(header, agent, hop, &written);
        prop_assert_eq!(frame, wrapped(AgentEnvelope::MigrateAck { agent, hop, horizon: written }));

        let notice = AgentReply::LlChanged { finished: agent, at: SimTime::from_millis(ms) };
        let (frame, payload_len) = AgentEnvelope::to_agent_frame(header, agent, &notice);
        let payload = marp_wire::to_bytes(&notice);
        prop_assert_eq!(payload_len, payload.len());
        prop_assert_eq!(frame, wrapped(AgentEnvelope::ToAgent { agent, payload }));
    }

    /// An update agent's UPDATE and COMMIT, written in one pass from
    /// its own lists, are byte for byte the messages owning copies of
    /// them.
    #[test]
    fn broadcast_frames_are_the_messages_they_stand_for(
        agent in arb_agent_id(),
        attempt in any::<u32>(),
        incarnation in any::<u32>(),
        requests in proptest::collection::vec(arb_write_request(), 0..6),
        tie_certificate in proptest::option::of(proptest::collection::vec(arb_agent_id(), 0..5)),
        records in proptest::collection::vec(arb_commit_record(), 0..6),
    ) {
        let frame = NodeMsg::update_frame(
            agent,
            attempt,
            incarnation,
            &requests,
            tie_certificate.as_deref(),
        );
        let update = UpdateMsg { agent, attempt, incarnation, reply_to: 0, requests, tie_certificate };
        prop_assert_eq!(frame, marp_wire::to_bytes(&NodeMsg::Update(update)));
        let frame = NodeMsg::commit_frame(agent, records.iter().cloned());
        prop_assert_eq!(frame, marp_wire::to_bytes(&NodeMsg::Commit(CommitMsg { agent, records })));
    }

    #[test]
    fn node_msgs_roundtrip(msg in arb_node_msg()) {
        let bytes = marp_wire::to_bytes(&msg);
        let back: NodeMsg = marp_wire::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn change_notices_roundtrip(finished in arb_agent_id(), ms in 0u64..1_000_000) {
        let notice = AgentReply::LlChanged { finished, at: SimTime::from_millis(ms) };
        let bytes = marp_wire::to_bytes(&notice);
        let back: AgentReply = marp_wire::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, notice);
    }

    /// Bit-flipping a valid message never panics (it errors or decodes
    /// to some other valid message — both acceptable; replicas treat
    /// content defensively).
    #[test]
    fn bitflips_never_panic(msg in arb_node_msg(), pos in any::<proptest::sample::Index>(), bit in 0u8..8) {
        let bytes = marp_wire::to_bytes(&msg);
        if bytes.is_empty() {
            return Ok(());
        }
        let mut raw = bytes.to_vec();
        let idx = pos.index(raw.len());
        raw[idx] ^= 1 << bit;
        let _ = marp_wire::from_bytes::<NodeMsg>(&Bytes::from(raw));
    }
}
