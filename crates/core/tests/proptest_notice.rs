//! The equivalence the COMMIT change notice rests on.
//!
//! A server answers a COMMIT by telling each queued agent only "agent
//! `w` finished"; the agent records `w` in its Updated-Agents List and
//! re-runs the priority calculation over Locking-List snapshots that
//! still name `w`. That is sound iff deciding over a stale table with
//! `w` marked finished gives the same answer as deciding over the table
//! the server would have sent afresh — the same queues with `w` gone:
//!
//! `decide(lt, ual ∪ {w}) == decide(lt with w removed from every queue, ual)`

use marp_agent::AgentId;
use marp_core::lt::{decide, LockingTable};
use marp_replica::{LlSnapshot, UpdatedList};
use marp_sim::{NodeId, SimTime};
use proptest::prelude::*;

/// A small pool, so queues overlap and one agent often tops a majority.
const POOL: u16 = 4;

fn agent(i: u16) -> AgentId {
    AgentId::new(i, SimTime::from_millis(u64::from(i)), 0)
}

/// One server's queue: distinct agents from the pool, in pool order
/// (the property rotates it).
fn arb_queue() -> impl Strategy<Value = Vec<AgentId>> {
    proptest::sample::subsequence((0..POOL).collect::<Vec<u16>>(), 0..=POOL as usize)
        .prop_map(|picked| picked.into_iter().map(agent).collect())
}

/// The table over `queues` (server `i` holds `queues[i]`), minus the
/// servers in `unknown`, with `without` struck from every queue.
fn table(queues: &[Vec<AgentId>], unknown: &[NodeId], without: Option<AgentId>) -> LockingTable {
    let mut lt = LockingTable::new();
    for (server, queue) in queues.iter().enumerate() {
        if unknown.contains(&(server as NodeId)) {
            continue;
        }
        lt.merge(
            server as NodeId,
            LlSnapshot {
                version: 1,
                taken_at: SimTime::from_millis(1),
                queue: queue
                    .iter()
                    .copied()
                    .filter(|&a| Some(a) != without)
                    .collect(),
            },
        );
    }
    lt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn finished_mark_equals_removal(
        n in 1usize..8,
        queues in proptest::collection::vec(arb_queue(), 7),
        rotate in proptest::collection::vec(0usize..4, 7),
        unknown in proptest::collection::vec(0u16..7, 0..2),
        already in proptest::collection::vec(0u16..POOL, 0..2),
        me in 0u16..POOL,
        w in 0u16..POOL,
        unavailable in proptest::collection::vec(0u16..7, 0..2),
    ) {
        if me == w {
            return Ok(()); // a finished agent has disposed; it never decides
        }
        // Subsequences keep pool order; rotate each queue so FIFO
        // orders differ between servers.
        let queues: Vec<Vec<AgentId>> = queues
            .into_iter()
            .zip(rotate)
            .take(n)
            .map(|(mut queue, by)| {
                if !queue.is_empty() {
                    let by = by % queue.len();
                    queue.rotate_left(by);
                }
                queue
            })
            .collect();
        let mut ual = UpdatedList::new();
        for a in already {
            ual.record(agent(a), SimTime::ZERO);
        }
        let mut ual_with_w = ual.clone();
        ual_with_w.record(agent(w), SimTime::from_millis(5));

        let stale = table(&queues, &unknown, None);
        let fresh = table(&queues, &unknown, Some(agent(w)));
        let noticed = decide(&stale, agent(me), n, &ual_with_w, &unavailable);
        let fresh = decide(&fresh, agent(me), n, &ual, &unavailable);
        prop_assert_eq!(noticed, fresh);
    }
}
