//! Randomized fault fuzzing: arbitrary crash/outage schedules that keep
//! a majority alive must never violate consistency, and the system must
//! keep making progress.

use marp_lab::{run_scenario, Scenario};
use marp_net::FaultPlan;
use marp_sim::SimTime;
use proptest::prelude::*;
use std::time::Duration;

/// A schedule of up to three staggered crashes over a 5-node cluster.
/// Crashes target distinct nodes and are long enough to overlap, but by
/// construction at most two nodes are ever down at once, so a majority
/// (3 of 5) survives.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::sample::subsequence(vec![0u16, 1, 2, 3, 4], 1..=2),
        proptest::collection::vec((100u64..5_000, 200u64..8_000), 1..=2),
        0u64..200,
    )
        .prop_map(|(nodes, windows, detect_ms)| {
            let mut plan = FaultPlan::new(5).detect_delay(Duration::from_millis(50 + detect_ms));
            for (&node, &(at_ms, outage_ms)) in nodes.iter().zip(windows.iter()) {
                plan = plan.crash(
                    node,
                    SimTime::from_millis(at_ms),
                    Duration::from_millis(outage_ms),
                );
            }
            plan
        })
}

proptest! {
    // Each case is a long fault-injected simulation.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_crash_schedules_stay_consistent(
        plan in arb_fault_plan(),
        mean_ms in 40.0f64..150.0,
        seed in any::<u64>(),
    ) {
        let mut scenario = Scenario::paper(5, mean_ms, seed);
        scenario.requests_per_client = 6;
        scenario.horizon = Some(Duration::from_secs(240));
        scenario.faults = Some(plan);
        let outcome = run_scenario(&scenario);
        // The invariants hold unconditionally...
        outcome.audit.assert_ok();
        // ...and with a majority always alive, most work finishes
        // (requests accepted by a server that crashes before
        // dispatching can be lost until its recovery re-issues them,
        // and the horizon bounds stragglers).
        prop_assert!(
            outcome.metrics.completed >= 30 * 8 / 10,
            "completed only {} of 30",
            outcome.metrics.completed
        );
    }
}

#[test]
fn back_to_back_crashes_of_the_same_node() {
    let plan = FaultPlan::new(5)
        .crash(2, SimTime::from_millis(500), Duration::from_millis(800))
        .crash(2, SimTime::from_millis(2_000), Duration::from_millis(800))
        .crash(2, SimTime::from_millis(4_000), Duration::from_millis(800));
    let mut scenario = Scenario::paper(5, 80.0, 99);
    scenario.requests_per_client = 8;
    scenario.horizon = Some(Duration::from_secs(240));
    scenario.faults = Some(plan);
    let outcome = run_scenario(&scenario);
    outcome.audit.assert_ok();
    assert!(
        outcome.metrics.completed >= 36,
        "completed only {} of 40",
        outcome.metrics.completed
    );
}
