//! Per-host routing tables.
//!
//! Paper §3.2: "each server has a routing table containing the cost of
//! transferring a mobile agent from the local server to another server in
//! the network. This information […] can be used by a visiting mobile
//! agent to determine the replicated server to visit next." A
//! [`RoutingTable`] holds those cost estimates; agents sort their
//! Un-visited Servers List by them, and servers refine the estimates from
//! observed migration times with an exponentially weighted moving
//! average.

use crate::topology::Topology;
use marp_sim::NodeId;

/// A host's estimate of the agent-transfer cost (in milliseconds) to
/// every node in the system.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    me: NodeId,
    cost_ms: Vec<f64>,
}

impl RoutingTable {
    /// Ground-truth costs straight from the topology.
    pub fn from_topology(me: NodeId, topo: &Topology) -> Self {
        let cost_ms = (0..topo.len() as NodeId)
            .map(|to| topo.latency_nanos(me, to) as f64 / 1e6)
            .collect();
        RoutingTable { me, cost_ms }
    }

    /// Node this table belongs to.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Estimated cost to `to` in milliseconds.
    pub fn cost(&self, to: NodeId) -> f64 {
        self.cost_ms[usize::from(to)]
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.cost_ms.len()
    }

    /// True when the table covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.cost_ms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn heterogeneous_topo() -> Topology {
        let mut topo = Topology::uniform_lan(4, Duration::from_millis(10));
        topo.set_latency(0, 1, Duration::from_millis(5));
        topo.set_latency(0, 2, Duration::from_millis(30));
        topo.set_latency(0, 3, Duration::from_millis(1));
        topo
    }

    #[test]
    fn from_topology_copies_costs() {
        let table = RoutingTable::from_topology(0, &heterogeneous_topo());
        assert_eq!(table.cost(1), 5.0);
        assert_eq!(table.cost(2), 30.0);
        assert_eq!(table.cost(0), 0.0);
        assert_eq!(table.len(), 4);
    }
}
