//! Server-side information sharing boards.
//!
//! Paper §3.3: "Mobile agents can exchange their locking information by
//! leaving the information at the servers they visited. This information
//! may be used by a mobile agent to determine which replicated server to
//! visit next." A [`GossipBoard`] is that shared blackboard: a visiting
//! agent picks up what earlier visitors left and leaves what it knows in
//! one [`exchange`](GossipBoard::exchange), so information spreads
//! without extra messages. Disabling the board is ablation experiment
//! E10.
//!
//! With the keyed lock table the board keeps one accumulated
//! [`LockingTable`] per object key: lock queues of different keys are
//! unrelated, so agents only exchange knowledge about their own key.

use crate::lt::LockingTable;
use marp_agent::AgentId;
use marp_sim::{NodeId, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;

thread_local! {
    /// The board merged back into, which a debug build's
    /// [`GossipBoard::exchange`] compares with the visitor's table: kept
    /// for its buffers, so the check allocates nothing once warm.
    static MERGED_BACK: RefCell<LockingTable> = RefCell::new(LockingTable::new());
}

/// A server's blackboard of LL snapshots left behind by visiting
/// agents, partitioned by object key.
#[derive(Debug, Clone, Default)]
pub struct GossipBoard {
    tables: BTreeMap<u64, LockingTable>,
}

impl GossipBoard {
    /// An empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// A visiting agent's whole use of the board: merge what the board
    /// holds for `key` into `lt`, then leave `lt` there. Both end with
    /// the freshest snapshot per server either knew. After the merge no
    /// row of the board is fresher than the visitor's, so merging back
    /// would rebuild the visitor's table id by id; the board takes a
    /// copy instead, into the buffers it already holds. (A server bumps
    /// its LL's version with every change to the sequence, so a row
    /// neither side holds fresher is the same row.)
    pub fn exchange(&mut self, key: u64, lt: &mut LockingTable) {
        let board = self.tables.entry(key).or_default();
        lt.merge_table(board);
        debug_assert!(
            MERGED_BACK.with_borrow_mut(|both| {
                both.clone_from(board);
                both.merge_table(lt);
                both == lt
            }),
            "a server issued two queues under one version"
        );
        board.clone_from(lt);
    }

    /// Leave one snapshot directly (servers post their own per-key LL,
    /// read in place: see [`LockingTable::offer_row`]).
    pub fn post(
        &mut self,
        key: u64,
        server: NodeId,
        version: u64,
        taken_at: SimTime,
        queue: impl ExactSizeIterator<Item = AgentId>,
    ) {
        let table = self.tables.entry(key).or_default();
        table.offer_row(server, version, taken_at, queue);
    }

    /// The accumulated knowledge about `key`, for a visiting agent to
    /// merge, if any visitor left some.
    pub fn contents(&self, key: u64) -> Option<&LockingTable> {
        self.tables.get(&key)
    }

    /// Number of servers the board has information about for `key`.
    pub fn known_servers(&self, key: u64) -> usize {
        self.tables.get(&key).map_or(0, LockingTable::known_servers)
    }

    /// Reset (volatile across crashes).
    pub fn clear(&mut self) {
        self.tables.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_replica::LlSnapshot;

    fn snap(ms: u64, agents: &[AgentId]) -> LlSnapshot {
        LlSnapshot {
            version: ms,
            taken_at: SimTime::from_millis(ms),
            queue: agents.to_vec(),
        }
    }

    impl GossipBoard {
        fn post_snapshot(&mut self, key: u64, server: NodeId, snap: LlSnapshot) {
            let queue = snap.queue.into_iter();
            self.post(key, server, snap.version, snap.taken_at, queue);
        }
    }

    #[test]
    fn deposit_and_pick_up() {
        let a = AgentId::new(1, SimTime::ZERO, 0);
        let b = AgentId::new(2, SimTime::ZERO, 0);
        let mut board = GossipBoard::new();
        board.post_snapshot(0, 1, snap(4, &[a, b]));
        board.post_snapshot(0, 2, snap(3, &[b]));
        let mut lt = LockingTable::new();
        lt.merge(2, snap(5, &[a]));
        lt.merge(3, snap(1, &[]));
        board.exchange(0, &mut lt);
        assert_eq!(
            lt.horizon(),
            marp_agent::Horizon::from_iter([(1, 4), (2, 5), (3, 1)])
        );
        assert_eq!(lt.roster(), [a, b]);
        assert_eq!(board.contents(0), Some(&lt));
        // Another key's visitor sees none of it.
        let mut other = LockingTable::new();
        board.exchange(9, &mut other);
        assert_eq!(other.known_servers(), 0);
    }

    #[test]
    fn board_keeps_freshest() {
        let a = AgentId::new(1, SimTime::ZERO, 0);
        let b = AgentId::new(2, SimTime::ZERO, 0);
        let mut board = GossipBoard::new();
        board.post_snapshot(0, 0, snap(5, &[a]));
        board.post_snapshot(0, 0, snap(3, &[b]));
        assert_eq!(board.contents(0).unwrap().roster(), [a]);
        board.post_snapshot(0, 0, snap(7, &[b]));
        assert_eq!(board.contents(0).unwrap().roster(), [b]);
    }

    #[test]
    fn keys_are_partitioned() {
        let a = AgentId::new(1, SimTime::ZERO, 0);
        let mut board = GossipBoard::new();
        board.post_snapshot(7, 0, snap(5, &[a]));
        assert_eq!(board.known_servers(7), 1);
        assert_eq!(board.known_servers(8), 0);
        assert!(board.contents(8).is_none());
    }

    #[test]
    fn clear_empties_board() {
        let mut board = GossipBoard::new();
        board.post_snapshot(0, 0, snap(1, &[]));
        board.clear();
        assert_eq!(board.known_servers(0), 0);
    }
}
