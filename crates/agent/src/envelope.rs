//! The agent-transport envelope.
//!
//! Code mobility is emulated (see `DESIGN.md`): an agent "moves" by
//! having its behaviour state serialized into [`AgentEnvelope::Migrate`]
//! and shipped to the destination host, which decodes it and resumes the
//! state machine. Migration is acknowledged so the source can retry and —
//! after enough failures — declare the destination unavailable, exactly
//! as the paper prescribes for unreachable replicas.

use crate::behavior::WrapFn;
use crate::horizon::Horizon;
use crate::id::AgentId;
use bytes::Bytes;
use marp_wire::Wire;

/// Messages exchanged by agent runtimes on different hosts. Host
/// processes embed this in their own message enum and hand received
/// envelopes to their [`AgentRuntime`](crate::AgentRuntime).
#[derive(Debug, Clone, PartialEq)]
pub enum AgentEnvelope {
    /// An agent's serialized state moving to a new host.
    Migrate {
        /// The migrating agent.
        agent: AgentId,
        /// Hop counter (completed migrations before this one).
        hop: u32,
        /// Wire-encoded behaviour state.
        state: Bytes,
    },
    /// Destination confirms it now hosts the agent.
    MigrateAck {
        /// The migrated agent.
        agent: AgentId,
        /// Hop the ack refers to (for retry deduplication).
        hop: u32,
        /// The acker's knowledge horizon about what the arriving agent
        /// works on (for MARP, its object key): `server → highest
        /// locking-list snapshot version` the acker held when the
        /// agent arrived. Future migrations *to* this host can
        /// delta-encode their Locking Table against it (empty when the
        /// host tracks no horizons, or could not decode the state).
        horizon: Horizon,
    },
    /// A message addressed to an agent resident at the destination host.
    ToAgent {
        /// The addressee.
        agent: AgentId,
        /// Opaque payload, interpreted by the behaviour.
        payload: Bytes,
    },
}

const TAG_MIGRATE: u8 = 0;
const TAG_MIGRATE_ACK: u8 = 1;
const TAG_TO_AGENT: u8 = 2;

marp_wire::wire_enum!(AgentEnvelope {
    TAG_MIGRATE => Migrate { agent, hop, state },
    TAG_MIGRATE_ACK => MigrateAck { agent, hop, horizon },
    TAG_TO_AGENT => ToAgent { agent, payload },
});

/// The frames a runtime sends, each written in one pass into one
/// buffer from values it holds: the owner's header (`wrap`), then the
/// envelope's fields in the order the declaration above lists them,
/// a nested state or payload in place. Each is byte for byte the owner
/// message wrapping the envelope that owns those values.
impl AgentEnvelope {
    /// The leading byte of a [`AgentEnvelope::MigrateAck`]: the one
    /// envelope that owns a buffer (its horizon), which an owner that
    /// decodes envelopes into ones it keeps may keep apart.
    pub const ACK_TAG: u8 = TAG_MIGRATE_ACK;

    /// A [`AgentEnvelope::Migrate`] frame whose state is `behavior`'s
    /// encoding, and that state's length.
    pub fn migrate_frame<B: Wire>(
        wrap: WrapFn,
        agent: AgentId,
        hop: u32,
        behavior: &B,
    ) -> (Bytes, usize) {
        let mut state_len = 0;
        let frame = marp_wire::frame(|buf| {
            wrap(buf);
            TAG_MIGRATE.encode(buf);
            agent.encode(buf);
            hop.encode(buf);
            state_len = marp_wire::put_nested(buf, behavior);
        });
        (frame, state_len)
    }

    /// A [`AgentEnvelope::MigrateAck`] frame advertising `horizon`.
    pub fn ack_frame(wrap: WrapFn, agent: AgentId, hop: u32, horizon: &Horizon) -> Bytes {
        marp_wire::frame(|buf| {
            wrap(buf);
            TAG_MIGRATE_ACK.encode(buf);
            agent.encode(buf);
            hop.encode(buf);
            horizon.encode(buf);
        })
    }

    /// A [`AgentEnvelope::ToAgent`] frame whose payload is `payload`'s
    /// encoding, and that payload's length.
    pub fn to_agent_frame<T: Wire>(wrap: WrapFn, agent: AgentId, payload: &T) -> (Bytes, usize) {
        let mut payload_len = 0;
        let frame = marp_wire::frame(|buf| {
            wrap(buf);
            TAG_TO_AGENT.encode(buf);
            agent.encode(buf);
            payload_len = marp_wire::put_nested(buf, payload);
        });
        (frame, payload_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::SimTime;

    fn sample_id() -> AgentId {
        AgentId::new(2, SimTime::from_millis(10), 7)
    }

    #[test]
    fn migrate_roundtrips() {
        let env = AgentEnvelope::Migrate {
            agent: sample_id(),
            hop: 3,
            state: Bytes::from_static(b"state-bytes"),
        };
        let bytes = marp_wire::to_bytes(&env);
        assert_eq!(marp_wire::from_bytes::<AgentEnvelope>(&bytes).unwrap(), env);
    }

    #[test]
    fn ack_roundtrips() {
        let env = AgentEnvelope::MigrateAck {
            agent: sample_id(),
            hop: 3,
            horizon: Horizon::from_iter([(0, 4), (2, 9)]),
        };
        let bytes = marp_wire::to_bytes(&env);
        assert_eq!(marp_wire::from_bytes::<AgentEnvelope>(&bytes).unwrap(), env);
    }

    #[test]
    fn to_agent_roundtrips() {
        let env = AgentEnvelope::ToAgent {
            agent: sample_id(),
            payload: Bytes::from_static(b"ack:17"),
        };
        let bytes = marp_wire::to_bytes(&env);
        assert_eq!(marp_wire::from_bytes::<AgentEnvelope>(&bytes).unwrap(), env);
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let bytes = Bytes::from_static(&[9]);
        assert!(matches!(
            marp_wire::from_bytes::<AgentEnvelope>(&bytes),
            Err(marp_wire::WireError::InvalidTag { .. })
        ));
    }
}
