//! The agent-transport envelope.
//!
//! Code mobility is emulated (see `DESIGN.md`): an agent "moves" by
//! having its behaviour state serialized into [`AgentEnvelope::Migrate`]
//! and shipped to the destination host, which decodes it and resumes the
//! state machine. Migration is acknowledged so the source can retry and —
//! after enough failures — declare the destination unavailable, exactly
//! as the paper prescribes for unreachable replicas.

use crate::id::AgentId;
use bytes::Bytes;
use marp_sim::NodeId;
use std::collections::BTreeMap;

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
        horizon: BTreeMap<NodeId, u64>,
    },
    /// A message addressed to an agent resident at the destination host.
    ToAgent {
        /// The addressee.
        agent: AgentId,
        /// Opaque payload, interpreted by the behaviour.
        payload: Bytes,
    },
}

marp_wire::wire_enum!(AgentEnvelope {
    0 => Migrate { agent, hop, state },
    1 => MigrateAck { agent, hop, horizon },
    2 => ToAgent { agent, payload },
});

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
            horizon: BTreeMap::from([(0, 4u64), (2, 9)]),
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
