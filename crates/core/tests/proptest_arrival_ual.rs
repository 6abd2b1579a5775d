//! The equivalence reading a host's Updated List in place rests on.
//!
//! An arriving agent used to copy the host's whole Updated List into
//! its UAL and, on leaving, shed every entry its Locking Table did not
//! name. It now takes only the entries the table names (and its own).
//! `decide` asks about no other id and the shed keeps no other id, so
//! for any table, carried UAL and host list:
//!
//! * the zombie-clone self-check answers the same,
//! * `decide` answers the same, and
//! * the UAL that leaves on the next hop is the same set with the same
//!   record times.

use marp_agent::AgentId;
use marp_core::lt::{decide, LockingTable};
use marp_replica::{LlSnapshot, UpdatedList};
use marp_sim::{NodeId, SimTime};
use proptest::prelude::*;

/// Agents that queue: a small pool, so queues overlap.
const POOL: u16 = 4;
/// Agents that only ever appear in Updated Lists (other keys' history).
const BYSTANDERS: u16 = 12;

fn agent(i: u16) -> AgentId {
    AgentId::new(i, SimTime::from_millis(u64::from(i)), 0)
}

fn arb_queue() -> impl Strategy<Value = Vec<AgentId>> {
    proptest::sample::subsequence((0..POOL).collect::<Vec<u16>>(), 0..=POOL as usize)
        .prop_map(|picked| picked.into_iter().map(agent).collect())
}

/// A list of finished agents — queueing ones and bystanders — with
/// arbitrary record times.
fn arb_updated_list() -> impl Strategy<Value = UpdatedList> {
    proptest::collection::vec((0..POOL + BYSTANDERS, 0u64..50), 0..12).prop_map(|entries| {
        let mut ul = UpdatedList::new();
        for (i, at) in entries {
            ul.record(agent(i), SimTime::from_millis(at));
        }
        ul
    })
}

fn snapshot(version: u64, queue: Vec<AgentId>) -> LlSnapshot {
    LlSnapshot {
        version,
        taken_at: SimTime::from_millis(version),
        queue,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn taking_the_named_entries_equals_copying_the_list_and_shedding(
        n in 1usize..8,
        carried_queues in proptest::collection::vec(arb_queue(), 7),
        unknown in proptest::collection::vec(0u16..7, 0..3),
        here in 0u16..7,
        here_queue in arb_queue(),
        carried_ual in arb_updated_list(),
        host_ul in arb_updated_list(),
        me in 0u16..POOL,
        dest in 0u16..7,
        unavailable in proptest::collection::vec(0u16..7, 0..2),
    ) {
        let me = agent(me);
        // The table as it arrives, then the host's own row on top.
        let mut lt = LockingTable::new();
        for (server, queue) in carried_queues.into_iter().enumerate().take(n) {
            if !unknown.contains(&(server as NodeId)) {
                lt.merge(server as NodeId, snapshot(1, queue));
            }
        }
        lt.merge(here, snapshot(2, here_queue));

        // Before: copy the host's list whole.
        let mut copied = carried_ual.clone();
        copied.merge(&host_ul);
        // Now: look up what the table names, and the agent itself.
        let mut taken = carried_ual.clone();
        taken.absorb(&host_ul, lt.roster().iter().copied().chain([me]));

        prop_assert_eq!(
            copied.contains(me),
            carried_ual.contains(me) || host_ul.contains(me),
            "zombie-clone self-check"
        );
        prop_assert_eq!(
            decide(&lt, me, n, &copied, &unavailable),
            decide(&lt, me, n, &taken, &unavailable)
        );

        // What `before_migrate` lets travel to `dest`.
        lt.drop_server(dest);
        copied.retain(|a| a == me || lt.names(a));
        taken.retain(|a| a == me || lt.names(a));
        prop_assert_eq!(copied, taken);
    }
}
