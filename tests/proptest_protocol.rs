//! Property-based protocol tests: arbitrary small workloads and
//! locking-table configurations must never violate the paper's
//! invariants.

use marp_agent::AgentId;
use marp_core::lt::{decide, LockingTable, Priority};
use marp_lab::{run_scenario, Scenario};
use marp_replica::{LlSnapshot, UpdatedList};
use marp_sim::{NodeId, SimTime};
use proptest::prelude::*;

proptest! {
    // Each case is a full simulation.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any small MARP workload completes everything, totally ordered.
    #[test]
    fn random_workloads_stay_consistent(
        n in 3usize..6,
        mean_ms in 3.0f64..60.0,
        requests in 2u64..8,
        seed in any::<u64>(),
    ) {
        let mut scenario = Scenario::paper(n, mean_ms, seed);
        scenario.requests_per_client = requests;
        let outcome = run_scenario(&scenario);
        outcome.audit.assert_ok();
        prop_assert_eq!(outcome.metrics.completed, n as u64 * requests);
        prop_assert_eq!(outcome.audit.duplicate_completions, 0);
    }
}

/// Strategy: a locking table over `n` servers populated from a pool of
/// agents with arbitrary queue orders.
fn arbitrary_table(n: usize, agents: usize) -> impl Strategy<Value = (LockingTable, Vec<AgentId>)> {
    let ids: Vec<AgentId> = (0..agents)
        .map(|i| AgentId::new(i as NodeId, SimTime::from_millis(i as u64 % 3), i as u32))
        .collect();
    let queues =
        proptest::collection::vec(proptest::collection::vec(0..agents, 0..agents.max(1)), n);
    (queues, Just(ids)).prop_map(move |(queues, ids)| {
        let mut table = LockingTable::new();
        for (server, queue) in queues.into_iter().enumerate() {
            let mut seen = Vec::new();
            let agents_in_order: Vec<AgentId> = queue
                .into_iter()
                .filter(|idx| {
                    if seen.contains(idx) {
                        false
                    } else {
                        seen.push(*idx);
                        true
                    }
                })
                .map(|idx| ids[idx])
                .collect();
            table.merge(
                server as NodeId,
                LlSnapshot {
                    version: 1,
                    taken_at: SimTime::from_millis(1),
                    queue: agents_in_order,
                },
            );
        }
        (table, ids)
    })
}

proptest! {
    /// Theorem 2 property: with a shared view, at most one agent ever
    /// decides it has won.
    #[test]
    fn at_most_one_winner_per_view((table, ids) in arbitrary_table(5, 4)) {
        let finished = UpdatedList::new();
        let winners: Vec<AgentId> = ids
            .iter()
            .copied()
            .filter(|&me| {
                matches!(
                    decide(&table, me, 5, &finished, &[]),
                    Priority::Win(_)
                )
            })
            .collect();
        prop_assert!(winners.len() <= 1, "multiple winners: {winners:?}");
    }

    /// An outright winner really is top at a strict majority.
    #[test]
    fn outright_wins_imply_majority_tops((table, ids) in arbitrary_table(5, 4)) {
        let finished = UpdatedList::new();
        for me in ids.iter().copied() {
            if let Priority::Win(None) =
                decide(&table, me, 5, &finished, &[])
            {
                let tops = table
                    .top_counts(&finished)
                    .get(&me)
                    .copied()
                    .unwrap_or(0);
                prop_assert!(tops >= 3, "outright win with only {tops} tops");
            }
        }
    }

    /// Tie wins carry a certificate naming every rival the winner knows
    /// about.
    #[test]
    fn tie_wins_have_complete_certificates((table, ids) in arbitrary_table(4, 4)) {
        let finished = UpdatedList::new();
        for me in ids.iter().copied() {
            if let Priority::Win(Some(certificate)) = decide(&table, me, 4, &finished, &[])
            {
                for rival in table.known_agents(&finished) {
                    if rival != me {
                        prop_assert!(
                            certificate.contains(&rival),
                            "certificate misses rival {rival}"
                        );
                    }
                }
            }
        }
    }

    /// Marking agents finished can only help (never un-win) the
    /// remaining agents' standing monotonically: a finished agent never
    /// appears as anyone's blocker.
    #[test]
    fn finished_agents_never_count_as_tops((table, ids) in arbitrary_table(5, 4)) {
        let mut finished = UpdatedList::new();
        for &done in ids.iter().take(2) {
            finished.record(done, SimTime::from_millis(1));
        }
        let counts = table.top_counts(&finished);
        for done in ids.iter().take(2) {
            prop_assert!(!counts.contains_key(done));
        }
    }
}
