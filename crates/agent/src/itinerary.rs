//! Agent itineraries: the paper's Un-visited Servers List (USL).
//!
//! Paper §3.2: "Un-visited Servers List (USL): a list of servers which
//! have not been visited by this mobile agent. Initially, this list
//! contains all the replicated servers in the system and is sorted by
//! the cost of travelling from the current location." The USL travels
//! with the agent (it is part of the serialized state); its ordering
//! policy is the host's, and the subject of ablation experiment E9.

use marp_sim::{splitmix64, NodeId};

/// How the next destination is chosen from the unvisited set. Every
/// host of a deployment holds the same one, so it never travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItineraryPolicy {
    /// The paper's default: cheapest-from-here first, using the current
    /// host's routing-table costs.
    CostSorted,
    /// Ignore costs; always travel to the lowest unvisited node id
    /// (a fixed ring order).
    FixedOrder,
    /// Pseudorandom order, deterministic per (seed, stops remaining).
    Random {
        /// Seed mixed into every pick.
        seed: u64,
    },
}

/// The travelling USL plus the set of replicas the agent has declared
/// unavailable for this round (paper §2: after repeated failed migration
/// attempts the replica "is not visited again until the next round").
/// Every other server of the system has been visited: the home at
/// launch, the rest as the agent was sent to them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Itinerary {
    unvisited: Vec<NodeId>,
    unavailable: Vec<NodeId>,
}

marp_wire::wire_struct!(Itinerary {
    unvisited,
    unavailable
});

impl Itinerary {
    /// All nodes in `0..n` except `home`.
    pub fn for_system(n: usize, home: NodeId) -> Self {
        Self::default().restart(n, home)
    }

    /// [`Self::for_system`], in the buffers this itinerary holds.
    pub fn restart(mut self, n: usize, home: NodeId) -> Self {
        self.unvisited.clear();
        self.unvisited
            .extend((0..n as NodeId).filter(|&node| node != home));
        self.unavailable.clear();
        self
    }

    /// True when every server named is one of an `n`-server system
    /// other than `here`, where the agent has just arrived: the stop
    /// that brought it there was taken off the list.
    pub fn validate(&self, n: usize, here: NodeId) -> bool {
        let named = self.unvisited.iter().chain(&self.unavailable);
        named
            .copied()
            .all(|server| usize::from(server) < n && server != here)
    }

    /// Remaining unvisited nodes (excluding unavailable ones).
    pub fn remaining(&self) -> usize {
        self.unvisited.len()
    }

    /// True when every reachable server has been visited.
    pub fn exhausted(&self) -> bool {
        self.unvisited.is_empty()
    }

    /// Nodes declared unavailable so far.
    pub fn unavailable(&self) -> &[NodeId] {
        &self.unavailable
    }

    /// Servers of an `n`-server system visited so far, the home among
    /// them: all that are neither unvisited nor unavailable. The lists
    /// may come off the wire, so a forged pair longer than `n` counts
    /// as none.
    pub fn visited(&self, n: usize) -> usize {
        n.saturating_sub(self.unvisited.len())
            .saturating_sub(self.unavailable.len())
    }

    /// Choose (and remove) the next destination under `policy`.
    /// `cost_of` supplies the current host's routing-table estimate to
    /// each candidate — the paper re-sorts the USL at every hop because
    /// costs are relative to the agent's present location.
    pub fn next_destination<F>(&mut self, policy: ItineraryPolicy, cost_of: F) -> Option<NodeId>
    where
        F: Fn(NodeId) -> f64,
    {
        if self.unvisited.is_empty() {
            return None;
        }
        let idx = match policy {
            ItineraryPolicy::CostSorted => self
                .unvisited
                .iter()
                .enumerate()
                .min_by(|(_, &a), (_, &b)| {
                    cost_of(a)
                        .partial_cmp(&cost_of(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        // Tie on cost: lower node id for determinism.
                        .then(a.cmp(&b))
                })
                .map(|(i, _)| i)
                .expect("non-empty"),
            ItineraryPolicy::FixedOrder => self
                .unvisited
                .iter()
                .enumerate()
                .min_by_key(|(_, &node)| node)
                .map(|(i, _)| i)
                .expect("non-empty"),
            ItineraryPolicy::Random { seed } => {
                let remaining = self.unvisited.len() as u64;
                (splitmix64(seed ^ remaining) % remaining) as usize
            }
        };
        Some(self.unvisited.swap_remove(idx))
    }

    /// Declare a node unavailable for this round: it will not be offered
    /// again by [`Itinerary::next_destination`].
    pub fn mark_unavailable(&mut self, node: NodeId) {
        self.unvisited.retain(|&n| n != node);
        if !self.unavailable.contains(&node) {
            self.unavailable.push(node);
        }
    }

    /// Start a "next round" for the replicas previously declared
    /// unavailable (the paper skips an unreachable replica only "until
    /// the next round of request"): they become visitable again.
    /// Returns how many were re-queued.
    pub fn begin_next_round(&mut self) -> usize {
        let restored = self.unavailable.len();
        self.unvisited.append(&mut self.unavailable);
        restored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(from_costs: &[(NodeId, f64)]) -> impl Fn(NodeId) -> f64 + '_ {
        move |node| {
            from_costs
                .iter()
                .find(|(n, _)| *n == node)
                .map(|(_, c)| *c)
                .unwrap_or(f64::MAX)
        }
    }

    #[test]
    fn for_system_excludes_home() {
        let it = Itinerary::for_system(5, 2);
        assert_eq!(it.remaining(), 4);
        assert_eq!(it.visited(5), 1);
    }

    #[test]
    fn cost_sorted_picks_cheapest() {
        let mut it = Itinerary::for_system(4, 0);
        let table = [(1u16, 10.0), (2, 3.0), (3, 7.0)];
        let mut next = || it.next_destination(ItineraryPolicy::CostSorted, costs(&table));
        assert_eq!(next(), Some(2));
        assert_eq!(next(), Some(3));
        assert_eq!(next(), Some(1));
        assert_eq!(next(), None);
        assert!(it.exhausted());
    }

    #[test]
    fn cost_ties_break_by_node_id() {
        let mut it = Itinerary::for_system(4, 0);
        let mut next = || it.next_destination(ItineraryPolicy::CostSorted, |_| 1.0);
        assert_eq!(next(), Some(1));
        assert_eq!(next(), Some(2));
        assert_eq!(next(), Some(3));
    }

    #[test]
    fn fixed_order_ignores_costs() {
        let mut it = Itinerary::for_system(4, 2);
        let table = [(0u16, 99.0), (1, 50.0), (3, 1.0)];
        let mut next = || it.next_destination(ItineraryPolicy::FixedOrder, costs(&table));
        assert_eq!(next(), Some(0));
        assert_eq!(next(), Some(1));
        assert_eq!(next(), Some(3));
    }

    #[test]
    fn random_policy_is_deterministic_and_complete() {
        let run = |seed| {
            let mut it = Itinerary::for_system(6, 0);
            let mut order = Vec::new();
            while let Some(node) = it.next_destination(ItineraryPolicy::Random { seed }, |_| 0.0) {
                order.push(node);
            }
            order
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4, 5]);
        // A different seed should usually shuffle differently.
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn mark_unavailable_removes_candidate() {
        let mut it = Itinerary::for_system(4, 0);
        it.mark_unavailable(1);
        assert_eq!(it.remaining(), 2);
        assert_eq!(it.unavailable(), &[1]);
        assert_eq!(
            it.next_destination(ItineraryPolicy::FixedOrder, |_| 0.0),
            Some(2)
        );
    }

    #[test]
    fn next_round_restores_unavailable_nodes() {
        let mut it = Itinerary::for_system(4, 0);
        it.mark_unavailable(1);
        it.mark_unavailable(3);
        assert_eq!(it.remaining(), 1);
        assert_eq!(it.begin_next_round(), 2);
        assert_eq!(it.remaining(), 3);
        assert!(it.unavailable().is_empty());
        assert_eq!(it.begin_next_round(), 0);
    }

    #[test]
    fn wire_roundtrip_preserves_state() {
        let mut it = Itinerary::for_system(5, 1);
        it.next_destination(ItineraryPolicy::Random { seed: 3 }, |_| 0.0);
        it.mark_unavailable(4);
        let bytes = marp_wire::to_bytes(&it);
        let back: Itinerary = marp_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, it);
    }

    /// Visited is what neither list names: a stop drawn counts at once,
    /// a stop declared unavailable stops counting, and a new round
    /// restores it to the unvisited without counting it.
    #[test]
    fn visited_follows_draws_unavailability_and_new_rounds() {
        let mut it = Itinerary::for_system(5, 0);
        assert_eq!(it.visited(5), 1);
        let first = it.next_destination(ItineraryPolicy::FixedOrder, |_| 0.0);
        assert_eq!(first, Some(1));
        assert_eq!(it.visited(5), 2);
        // The migration to 1 failed: 1 was never reached.
        it.mark_unavailable(1);
        assert_eq!(it.visited(5), 1);
        // 3 was still unvisited; it moves across without being visited.
        it.mark_unavailable(3);
        assert_eq!((it.remaining(), it.visited(5)), (2, 1));
        assert_eq!(it.begin_next_round(), 2);
        assert_eq!((it.remaining(), it.visited(5)), (4, 1));
        while it
            .next_destination(ItineraryPolicy::FixedOrder, |_| 0.0)
            .is_some()
        {}
        assert_eq!(it.visited(5), 5);
    }

    #[test]
    fn a_forged_itinerary_longer_than_the_system_counts_no_visits() {
        let bytes = marp_wire::to_bytes(&(vec![1u16, 2, 3, 4], vec![5u16, 6]));
        let forged: Itinerary = marp_wire::from_bytes(&bytes).unwrap();
        assert_eq!(forged.visited(5), 0);
        assert_eq!(forged.visited(3), 0);
    }
}
