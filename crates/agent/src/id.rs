//! Mobile agent identity.
//!
//! Paper §3.2: "When a mobile agent is created, it is assigned a unique
//! identifier consisting of the host-name of the replicated server where
//! the mobile agent is created plus the local creation time." We add a
//! per-home sequence number so two agents created in the same nanosecond
//! stay distinct, and we give identifiers a total order — the paper's tie
//! rule ("the tie is resolved by using the mobile agents' identifiers")
//! needs one.

use marp_sim::{agent_key, AgentKey, NodeId, SimTime};
use std::fmt;

/// Globally unique mobile-agent identifier.
///
/// Ordering is `(born, home, seq)`: older agents sort first, so the tie
/// rule favours seniority and no agent can be starved by a stream of
/// younger rivals. The default (seq 0 of node 0, born at time zero) is
/// what an agent state decoded without its envelope holds until
/// [`AgentBehavior::set_id`](crate::AgentBehavior::set_id) names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AgentId {
    /// Creation time at the home server (the paper's "local creation
    /// time"; virtual clocks are synchronized in simulation, which only
    /// strengthens the ordering's fairness).
    pub born: SimTime,
    /// The replica that created and dispatched the agent.
    pub home: NodeId,
    /// Per-home creation counter.
    pub seq: u32,
}

marp_wire::wire_struct!(AgentId { born, home, seq });

impl AgentId {
    /// Create an identifier.
    pub fn new(home: NodeId, born: SimTime, seq: u32) -> Self {
        AgentId { born, home, seq }
    }

    /// Compact 64-bit key for trace events.
    pub fn key(&self) -> AgentKey {
        agent_key(self.home, self.seq)
    }

    /// True when the home is a server of an `n`-server system: every
    /// agent is launched by one.
    pub fn validate(self, n: usize) -> bool {
        usize::from(self.home) < n
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent:{}/{}@{}", self.home, self.seq, self.born)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_prefers_seniority() {
        let old = AgentId::new(5, SimTime::from_millis(1), 0);
        let young = AgentId::new(2, SimTime::from_millis(9), 0);
        assert!(old < young);
    }

    #[test]
    fn same_birth_orders_by_home_then_seq() {
        let t = SimTime::from_millis(4);
        assert!(AgentId::new(1, t, 0) < AgentId::new(2, t, 0));
        assert!(AgentId::new(1, t, 0) < AgentId::new(1, t, 1));
    }

    #[test]
    fn wire_roundtrip() {
        let id = AgentId::new(3, SimTime::from_micros(123), 42);
        let bytes = marp_wire::to_bytes(&id);
        assert_eq!(marp_wire::from_bytes::<AgentId>(&bytes).unwrap(), id);
    }

    #[test]
    fn key_is_home_and_seq() {
        let id = AgentId::new(7, SimTime::from_millis(1), 9);
        assert_eq!(marp_sim::agent_key_parts(id.key()), (7, 9));
    }

    #[test]
    fn display_is_readable() {
        let id = AgentId::new(1, SimTime::from_millis(2), 3);
        assert_eq!(id.to_string(), "agent:1/3@2.000ms");
    }
}
