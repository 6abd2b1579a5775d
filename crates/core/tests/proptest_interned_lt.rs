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
//! survives the wire unchanged. A second
//! property builds what a convoy leaves behind — queues 32 to 64 deep
//! sharing one order, their first 0…all entries finished, tops held at
//! servers declared unavailable, finished ids no row names — the shape
//! the priority calculation spends its time on and the first property's
//! short, scattered queues almost never reach. A third holds the board
//! exchange to the two merges it replaced. A fourth holds `merge_table`
//! to the per-server merge on pairs of tables whose rosters interleave,
//! whose stale rows name ids nobody else does, and which name more
//! agents than a table remaps on the stack.
//!
//! Snapshots are deliberately *not* generated under the protocol's
//! invariants: versions tie and regress, equal versions carry different
//! queues, queues repeat an agent. The table may not lean on any of it.
//! The exchange leans on one, and its property grants only that one:
//! two rows of one server with one version and time are the same row.

use marp_agent::AgentId;
use marp_core::lt::{decide, majority, ranking, LockingTable, Priority};
use marp_core::GossipBoard;
use marp_replica::{LlSnapshot, UpdatedList};
use marp_sim::{NodeId, SimTime};
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

    fn ranking(&self, finished: &UpdatedList) -> Vec<(AgentId, usize)> {
        let mut ranked: Vec<(AgentId, usize)> = self.top_counts(finished).into_iter().collect();
        ranked.sort_by_key(|&(agent, tops)| (std::cmp::Reverse(tops), agent));
        ranked
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

/// How deep a convoy's queues go, and how many agents they draw on.
const CONVOY: u16 = 64;

/// One server's view of a convoy, before the head is known: how deep
/// its queue goes, its snapshot version, and where neighbours overtook
/// each other, counted from the head.
type ConvoyRow = (u16, u64, Vec<(u16, u16)>);

fn arb_convoy_row() -> impl Strategy<Value = ConvoyRow> {
    // Depths cluster at both ends, so that a head in between has drained
    // some servers' queues whole and others' not.
    let len = prop_oneof![Just(32), 32..=CONVOY, Just(CONVOY)];
    let swaps = proptest::collection::vec((0..4u16, 1..4u16), 0..4);
    (len, 0u64..6, swaps)
}

/// The first `len` agents of the shared order, the ones around `head`
/// swapped: the servers disagree about who leads the unfinished rest.
fn convoy_snapshot(head: u16, (len, version, swaps): &ConvoyRow) -> LlSnapshot {
    let mut order: Vec<u16> = (0..CONVOY).collect();
    for (at, by) in swaps {
        let at = (head + at) % CONVOY;
        order.swap(usize::from(at), usize::from((at + by) % CONVOY));
    }
    LlSnapshot {
        version: *version,
        taken_at: SimTime::from_millis(*version),
        queue: order[..usize::from(*len)]
            .iter()
            .map(|&i| agent(i))
            .collect(),
    }
}

/// What one server's LL looked like at a few moments: no two of them
/// under one `(version, taken_at)`.
fn arb_history() -> impl Strategy<Value = Vec<LlSnapshot>> {
    let queue = proptest::collection::vec(0..AGENTS, 0..14);
    proptest::collection::btree_map((0u64..6, 0u64..3), queue, 1..4).prop_map(|moments| {
        let snapshot = |((version, at), queue): (_, Vec<u16>)| LlSnapshot {
            version,
            taken_at: SimTime::from_millis(at),
            queue: queue.into_iter().map(agent).collect(),
        };
        moments.into_iter().map(snapshot).collect()
    })
}

/// One side of a merge: per server, maybe a row — its version, its
/// time, and its queue as pool indices.
type Side = Vec<Option<(u64, u64, Vec<u16>)>>;

fn arb_side(pool: u16, depth: std::ops::Range<usize>) -> impl Strategy<Value = Side> {
    let row = (0u64..4, 0u64..2, proptest::collection::vec(0..pool, depth));
    proptest::collection::vec(proptest::option::of(row), SERVERS as usize)
}

/// Both sides of a merge, from one pool: the 40 agents with short
/// queues, so each side's ids fall between the other's; or a thousand
/// with queues 40 to 64 deep, so the rosters pass the 256 agents a
/// table remaps on the stack.
fn arb_sides() -> impl Strategy<Value = (Side, Side)> {
    prop_oneof![
        (arb_side(AGENTS, 0..14), arb_side(AGENTS, 0..14)),
        (arb_side(1000, 40..65), arb_side(1000, 40..65)),
    ]
}

fn side_rows(side: &Side) -> Vec<(NodeId, LlSnapshot)> {
    let rows = (0..SERVERS).zip(side);
    rows.filter_map(|(server, row)| {
        let (version, at, queue) = row.as_ref()?;
        let snapshot = LlSnapshot {
            version: *version,
            taken_at: SimTime::from_millis(*at),
            queue: queue.iter().map(|&i| agent(i)).collect(),
        };
        Some((server, snapshot))
    })
    .collect()
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
            prop_assert_eq!(marp_wire::from_bytes::<LockingTable>(&bytes), Ok(table.clone()));
        }
    }
    #[test]
    fn deep_finished_prefixes_are_read_like_the_plain_map(
        rows in proptest::collection::vec(arb_convoy_row(), SERVERS as usize),
        unseen in proptest::collection::vec(0..SERVERS, 0..3),
        // The convoy's head has finished: the first `head` agents of the
        // shared order, which covers a row whole when `head` is past its end.
        head in prop_oneof![0..=CONVOY, 32..48u16],
        stragglers in proptest::collection::vec(0..CONVOY, 0..4),
        // Finished agents no row names (ids among, and past, the roster's).
        strangers in proptest::collection::vec(CONVOY..CONVOY + 24, 0..6),
        unavailable in proptest::collection::vec(0..SERVERS, 0..4),
        n in 1usize..=SERVERS as usize,
    ) {
        let rows: Vec<(NodeId, LlSnapshot)> = (0..SERVERS)
            .zip(&rows)
            .filter(|(server, _)| !unseen.contains(server))
            .map(|(server, row)| (server, convoy_snapshot(head, row)))
            .collect();
        let (model, table) = build(&rows);
        let mut ual = UpdatedList::new();
        for a in (0..head).chain(stragglers).chain(strangers) {
            ual.record(agent(a), SimTime::ZERO);
        }

        for server in 0..SERVERS {
            prop_assert_eq!(
                table.effective_top(server, &ual),
                model.effective_top(server, &ual)
            );
        }
        prop_assert_eq!(table.top_counts(&ual), model.top_counts(&ual));
        prop_assert_eq!(table.known_agents(&ual), model.known_agents(&ual));
        prop_assert_eq!(ranking(&table, &ual), model.ranking(&ual));
        // Whoever wins stands just behind the head; the others are one
        // finished agent, the convoy's tail and one no row names.
        let contenders = head.saturating_sub(1)..(head + 8).min(CONVOY);
        for me in contenders.chain([0, CONVOY - 1, CONVOY]).map(agent) {
            prop_assert_eq!(table.presence_count(me), model.presence_count(me));
            for down in [&[][..], &unavailable[..]] {
                prop_assert_eq!(
                    decide(&table, me, n, &ual, down),
                    model.decide(me, n, &ual, down),
                    "agent {} of {} servers, {:?} down", me, n, down
                );
            }
        }
    }
    #[test]
    fn an_exchange_is_the_two_merges(
        histories in proptest::collection::vec(arb_history(), SERVERS as usize),
        // Which of its server's moments each side holds, if any.
        visitor in proptest::collection::vec(proptest::option::of(0usize..3), SERVERS as usize),
        board in proptest::collection::vec(proptest::option::of(0usize..3), SERVERS as usize),
    ) {
        let held = |picks: &[Option<usize>]| {
            let rows = (0..SERVERS).zip(&histories).zip(picks);
            rows.filter_map(|((server, history), pick)| {
                Some((server, history[(*pick)? % history.len()].clone()))
            })
            .collect::<Vec<_>>()
        };
        let (_, mut visitor) = build(&held(&visitor));
        let mut gossip = GossipBoard::new();
        for (server, snap) in held(&board) {
            gossip.post(7, server, snap);
        }

        // Pick up what the board holds, then leave the result there.
        let mut merged = visitor.clone();
        let mut left = gossip.contents(7).cloned().unwrap_or_default();
        merged.merge_table(&left);
        left.merge_table(&merged);

        gossip.exchange(7, &mut visitor);
        let board = gossip.contents(7).expect("the visitor left its table");
        prop_assert_eq!(&visitor, &merged);
        prop_assert_eq!(board, &left);
        prop_assert_eq!(marp_wire::to_bytes(&visitor), marp_wire::to_bytes(&merged));
        prop_assert_eq!(marp_wire::to_bytes(board), marp_wire::to_bytes(&left));
        prop_assert!(gossip.contents(8).is_none());
    }
    #[test]
    fn merge_table_is_the_per_server_merge(
        (mine, mut theirs) in arb_sides(),
        // One time in four, `other` holds nothing fresher: each of its
        // rows stamped at or before the one held, at a server held.
        stale in 0u8..4,
    ) {
        if stale == 0 {
            for (theirs, mine) in theirs.iter_mut().zip(&mine) {
                match (theirs.as_mut(), mine) {
                    (Some((version, at, _)), Some((held, held_at, _))) => {
                        if (*version, *at) > (*held, *held_at) {
                            (*version, *at) = (*held, *held_at);
                        }
                    }
                    _ => *theirs = None,
                }
            }
        }
        let (mut model, mut table) = build(&side_rows(&mine));
        let (other_model, other) = build(&side_rows(&theirs));
        let before = table.clone();

        model.merge_table(&other_model);
        table.merge_table(&other);

        let expected: Vec<_> = model
            .snapshots
            .iter()
            .map(|(&s, snap)| (s, snap.version, snap.taken_at, snap.queue.clone()))
            .collect();
        prop_assert_eq!(rows(&table), expected);
        // The roster is exactly the ids the surviving rows name: none
        // from a stale row of `other`, none left over from a replaced one.
        let mut named: Vec<AgentId> = model
            .snapshots
            .values()
            .flat_map(|snap| snap.queue.iter().copied())
            .collect();
        named.sort_unstable();
        named.dedup();
        prop_assert_eq!(table.roster(), &named[..]);
        // Equal content, equal table: as if built row by row from scratch.
        let rebuilt: Vec<_> = model.snapshots.clone().into_iter().collect();
        prop_assert_eq!(&table, &build(&rebuilt).1);
        if stale == 0 {
            prop_assert_eq!(&table, &before);
        }
        let bytes = marp_wire::to_bytes(&table);
        prop_assert_eq!(marp_wire::from_bytes::<LockingTable>(&bytes), Ok(table.clone()));
    }
}
