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
use marp_sim::{NodeId, SimRng};

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

    /// Topology costs perturbed by multiplicative noise in
    /// `[1 − noise, 1 + noise]`, modelling stale or imprecise estimates.
    pub fn with_noise(me: NodeId, topo: &Topology, noise: f64, rng: &mut SimRng) -> Self {
        let mut table = Self::from_topology(me, topo);
        for (to, cost) in table.cost_ms.iter_mut().enumerate() {
            if to != usize::from(me) {
                let factor = 1.0 - noise + 2.0 * noise * rng.f64();
                *cost *= factor.max(0.0);
            }
        }
        table
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

    /// Stable-sort candidate nodes cheapest-first according to this
    /// table (ties keep input order, so results are deterministic).
    pub fn sort_cheapest_first(&self, nodes: &mut [NodeId]) {
        nodes.sort_by(|&a, &b| {
            self.cost(a)
                .partial_cmp(&self.cost(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }

    /// The cheapest node among `candidates`, or `None` if empty.
    pub fn cheapest(&self, candidates: &[NodeId]) -> Option<NodeId> {
        candidates.iter().copied().min_by(|&a, &b| {
            self.cost(a)
                .partial_cmp(&self.cost(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
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

    #[test]
    fn sorts_cheapest_first() {
        let table = RoutingTable::from_topology(0, &heterogeneous_topo());
        let mut nodes = vec![1u16, 2, 3];
        table.sort_cheapest_first(&mut nodes);
        assert_eq!(nodes, vec![3, 1, 2]);
        assert_eq!(table.cheapest(&[2, 1]), Some(1));
        assert_eq!(table.cheapest(&[]), None);
    }

    #[test]
    fn noise_stays_within_band_and_is_deterministic() {
        let topo = heterogeneous_topo();
        let mut rng = SimRng::from_seed(5);
        let noisy = RoutingTable::with_noise(0, &topo, 0.2, &mut rng);
        for to in 1..4u16 {
            let truth = RoutingTable::from_topology(0, &topo).cost(to);
            assert!(
                (noisy.cost(to) - truth).abs() <= truth * 0.2 + 1e-9,
                "cost {} vs truth {}",
                noisy.cost(to),
                truth
            );
        }
        let mut rng2 = SimRng::from_seed(5);
        let again = RoutingTable::with_noise(0, &topo, 0.2, &mut rng2);
        for to in 0..4u16 {
            assert_eq!(noisy.cost(to), again.cost(to));
        }
    }

    #[test]
    fn tie_costs_keep_input_order() {
        let topo = Topology::uniform_lan(4, Duration::from_millis(10));
        let table = RoutingTable::from_topology(0, &topo);
        let mut nodes = vec![3u16, 1, 2];
        table.sort_cheapest_first(&mut nodes);
        assert_eq!(nodes, vec![3, 1, 2]);
    }
}
