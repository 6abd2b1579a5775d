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
//!
//! for every verdict: a win, not yet, and behind a settled rival.

use marp_agent::AgentId;
use marp_core::lt::{decide, LockingTable, Priority};
use marp_replica::{LlSnapshot, UpdatedList};
use marp_sim::{NodeId, SimTime};
use proptest::prelude::*;
use proptest::test_runner::{run_property_test, Gen};

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

/// One drawn case: the verdict both ways, or `None` for a case that
/// cannot occur (a finished agent has disposed; it never decides).
fn notice_case(gen: &mut Gen) -> Option<(Priority, Priority)> {
    let n = (1usize..8).generate(gen);
    let queues = proptest::collection::vec(arb_queue(), 7).generate(gen);
    let rotate = proptest::collection::vec(0usize..4, 7).generate(gen);
    let unknown = proptest::collection::vec(0u16..7, 0..2).generate(gen);
    let already = proptest::collection::vec(0u16..POOL, 0..2).generate(gen);
    let me = (0u16..POOL).generate(gen);
    let w = (0u16..POOL).generate(gen);
    let unavailable = proptest::collection::vec(0u16..7, 0..2).generate(gen);
    if me == w {
        return None;
    }
    // Subsequences keep pool order; rotate each queue so FIFO orders
    // differ between servers.
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
    Some((
        decide(&stale, agent(me), n, &ual_with_w, &unavailable),
        decide(&fresh, agent(me), n, &ual, &unavailable),
    ))
}

/// The equivalence, over cases that draw each of `decide`'s three
/// verdicts: a notice must leave a settled rival settled (`Behind`)
/// exactly as a fresh table would.
#[test]
fn finished_mark_equals_removal() {
    let mut drawn = [0u32; 3];
    run_property_test(
        concat!(module_path!(), "::finished_mark_equals_removal"),
        &ProptestConfig::with_cases(2048),
        |gen| {
            let Some((noticed, fresh)) = notice_case(gen) else {
                return Ok(());
            };
            drawn[match noticed {
                Priority::Win(_) => 0,
                Priority::NotYet => 1,
                Priority::Behind => 2,
            }] += 1;
            prop_assert_eq!(noticed, fresh);
            Ok(())
        },
    );
    assert!(
        drawn.iter().all(|&cases| cases >= 50),
        "verdicts drawn (win, not yet, behind): {drawn:?}"
    );
}
