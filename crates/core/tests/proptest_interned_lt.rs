//! Representation oracle for the Locking Table.
//!
//! However `LockingTable` stores its rows, it must answer exactly like
//! the plain structure the protocol was designed against: the freshest
//! `LlSnapshot` per server in a `BTreeMap`. That structure and the
//! priority rules over it are copied here as the reference [`Model`];
//! the property drives model and table through the same arbitrary
//! sequence of mutations and demands, after every step, that every
//! query agrees — rows, horizon, tops, presence, rivals and the
//! `decide` verdict with its tie certificate — and that the table
//! survives the wire unchanged with an exact `encoded_len`.
//!
//! Snapshots are deliberately *not* generated under the protocol's
//! invariants: versions tie and regress, equal versions carry different
//! queues, queues repeat an agent. The table may not lean on any of it.

use marp_agent::AgentId;
use marp_core::lt::{decide, majority, LockingTable, Priority};
use marp_replica::{LlSnapshot, UpdatedList};
use marp_sim::{NodeId, SimTime};
use marp_wire::Wire;
use proptest::prelude::*;
use std::collections::BTreeMap;

const SERVERS: NodeId = 9;
/// A pool small enough that most agents queue at several servers.
const AGENTS: u16 = 40;

/// Pool agent `i`. Births collide four at a time, so the id order is
/// decided by every field in turn.
fn agent(i: u16) -> AgentId {
    AgentId::new(
        i % SERVERS,
        SimTime::from_millis(u64::from(i / 4)),
        u32::from(i % 3),
    )
}

/// The reference table: the pre-interning `LockingTable`, verbatim.
#[derive(Debug, Clone, Default)]
struct Model {
    snapshots: BTreeMap<NodeId, LlSnapshot>,
}

impl Model {
    fn merge(&mut self, server: NodeId, snapshot: LlSnapshot) {
        match self.snapshots.get(&server) {
            Some(existing) if !existing.is_older_than(&snapshot) => {}
            _ => {
                self.snapshots.insert(server, snapshot);
            }
        }
    }

    fn merge_table(&mut self, other: &Model) {
        for (&server, snapshot) in &other.snapshots {
            self.merge(server, snapshot.clone());
        }
    }

    fn effective_top(&self, server: NodeId, finished: &UpdatedList) -> Option<AgentId> {
        self.snapshots
            .get(&server)?
            .queue
            .iter()
            .find(|a| !finished.contains(**a))
            .copied()
    }

    fn top_counts(&self, finished: &UpdatedList) -> BTreeMap<AgentId, usize> {
        let mut counts = BTreeMap::new();
        for &server in self.snapshots.keys() {
            if let Some(top) = self.effective_top(server, finished) {
                *counts.entry(top).or_insert(0) += 1;
            }
        }
        counts
    }

    fn presence_count(&self, agent: AgentId) -> usize {
        self.snapshots
            .values()
            .filter(|snap| snap.queue.contains(&agent))
            .count()
    }

    fn horizon(&self) -> BTreeMap<NodeId, u64> {
        self.snapshots
            .iter()
            .map(|(&server, snap)| (server, snap.version))
            .collect()
    }

    fn prune_covered_by(&mut self, horizon: &BTreeMap<NodeId, u64>) {
        self.snapshots
            .retain(|server, snap| horizon.get(server).is_none_or(|&v| snap.version > v));
    }

    fn drop_server(&mut self, server: NodeId) {
        self.snapshots.remove(&server);
    }

    fn known_agents(&self, finished: &UpdatedList) -> Vec<AgentId> {
        let mut agents: Vec<AgentId> = self
            .snapshots
            .values()
            .flat_map(|snap| snap.queue.iter().copied())
            .filter(|a| !finished.contains(*a))
            .collect();
        agents.sort_unstable();
        agents.dedup();
        agents
    }

    /// The priority rules of `marp_core::lt::decide`, verbatim.
    fn decide(
        &self,
        me: AgentId,
        n: usize,
        finished: &UpdatedList,
        unavailable: &[NodeId],
    ) -> Priority {
        let maj = majority(n);
        let counts = self.top_counts(finished);
        let my_tops = counts.get(&me).copied().unwrap_or(0);
        if my_tops >= maj {
            return Priority::Win {
                via_tie: false,
                certificate: Vec::new(),
            };
        }
        let known = |s: &NodeId| self.snapshots.contains_key(s);
        if !(0..n as NodeId).all(|s| known(&s) || unavailable.contains(&s)) {
            return Priority::NotYet;
        }
        let claimable = (0..n as NodeId)
            .filter(|s| {
                !unavailable.contains(s) && known(s) && self.effective_top(*s, finished).is_none()
            })
            .count();
        let best = counts.values().copied().max().unwrap_or(0);
        if best + claimable >= maj || my_tops + claimable >= maj {
            return Priority::NotYet;
        }
        let Some(winner) = counts
            .iter()
            .map(|(&agent, &tops)| (std::cmp::Reverse(tops), agent))
            .min()
            .map(|(_, agent)| agent)
        else {
            return Priority::NotYet;
        };
        if winner != me || self.presence_count(me) < maj {
            return Priority::NotYet;
        }
        Priority::Win {
            via_tie: true,
            certificate: self
                .known_agents(finished)
                .into_iter()
                .filter(|&a| a != me)
                .collect(),
        }
    }
}

/// One mutation, applied to model and table alike.
#[derive(Debug, Clone)]
enum Op {
    Merge(NodeId, LlSnapshot),
    MergeTable(Vec<(NodeId, LlSnapshot)>),
    DropServer(NodeId),
    Prune(BTreeMap<NodeId, u64>),
}

/// Few versions and fewer timestamps: ties and regressions are the
/// common case.
fn arb_snapshot() -> impl Strategy<Value = LlSnapshot> {
    (
        0u64..6,
        0u64..3,
        proptest::collection::vec(0..AGENTS, 0..14),
    )
        .prop_map(|(version, at, queue)| LlSnapshot {
            version,
            taken_at: SimTime::from_millis(at),
            queue: queue.into_iter().map(agent).collect(),
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    let row = || (0..SERVERS, arb_snapshot());
    prop_oneof![
        row().prop_map(|(server, snap)| Op::Merge(server, snap)),
        row().prop_map(|(server, snap)| Op::Merge(server, snap)),
        proptest::collection::vec(row(), 0..7).prop_map(Op::MergeTable),
        (0..SERVERS).prop_map(Op::DropServer),
        proptest::collection::btree_map(0..SERVERS, 0u64..6, 0..5).prop_map(Op::Prune),
    ]
}

/// Build the same table twice: as the model and as the real thing.
fn build(rows: &[(NodeId, LlSnapshot)]) -> (Model, LockingTable) {
    let mut model = Model::default();
    let mut table = LockingTable::new();
    for (server, snap) in rows {
        model.merge(*server, snap.clone());
        table.merge(*server, snap.clone());
    }
    (model, table)
}

/// Every row of the table, in full.
fn rows(table: &LockingTable) -> Vec<(NodeId, u64, SimTime, Vec<AgentId>)> {
    table
        .iter()
        .map(|(server, snap)| (server, snap.version, snap.taken_at, snap.queue.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn table_answers_like_the_plain_map(
        start in proptest::collection::vec((0..SERVERS, arb_snapshot()), 0..10),
        ops in proptest::collection::vec(arb_op(), 1..8),
        finished in proptest::collection::vec(0..AGENTS, 0..12),
        unavailable in proptest::collection::vec(0..SERVERS, 0..3),
        n in 1usize..=SERVERS as usize,
    ) {
        let (mut model, mut table) = build(&start);
        let mut ual = UpdatedList::new();
        for a in finished {
            ual.record(agent(a), SimTime::ZERO);
        }
        let nobody = UpdatedList::new();

        for op in ops {
            match op {
                Op::Merge(server, snap) => {
                    model.merge(server, snap.clone());
                    table.merge(server, snap);
                }
                Op::MergeTable(other) => {
                    let (other_model, other_table) = build(&other);
                    model.merge_table(&other_model);
                    table.merge_table(&other_table);
                }
                Op::DropServer(server) => {
                    model.drop_server(server);
                    table.drop_server(server);
                }
                Op::Prune(horizon) => {
                    model.prune_covered_by(&horizon);
                    table.prune_covered_by(&horizon);
                }
            }

            let expected: Vec<_> = model
                .snapshots
                .iter()
                .map(|(&s, snap)| (s, snap.version, snap.taken_at, snap.queue.clone()))
                .collect();
            prop_assert_eq!(rows(&table), expected);
            prop_assert_eq!(table.known_servers(), model.snapshots.len());
            prop_assert_eq!(table.horizon(), model.horizon());
            for server in 0..SERVERS {
                prop_assert_eq!(
                    table.snapshot(server).map(|row| (row.version, row.taken_at)),
                    model.snapshots.get(&server).map(|snap| (snap.version, snap.taken_at))
                );
            }
            for done in [&nobody, &ual] {
                for server in 0..SERVERS {
                    prop_assert_eq!(
                        table.effective_top(server, done),
                        model.effective_top(server, done)
                    );
                }
                prop_assert_eq!(table.top_counts(done), model.top_counts(done));
                prop_assert_eq!(table.known_agents(done), model.known_agents(done));
            }
            for me in (0..AGENTS).map(agent) {
                prop_assert_eq!(table.presence_count(me), model.presence_count(me));
                for (done, down, n) in [(&nobody, &[][..], n), (&ual, &unavailable[..], n)] {
                    prop_assert_eq!(
                        decide(&table, me, n, done, down),
                        model.decide(me, n, done, down),
                        "agent {} of {} servers, {} down", me, n, down.len()
                    );
                }
            }

            let bytes = marp_wire::to_bytes(&table);
            prop_assert_eq!(table.encoded_len(), bytes.len());
            prop_assert_eq!(marp_wire::from_bytes::<LockingTable>(&bytes), Ok(table.clone()));
        }
    }
}
