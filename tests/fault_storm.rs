//! Fault-storm integration tests: crashes, transient outages and
//! partitions thrown at a MARP cluster; consistency must survive and
//! recovering replicas must catch up.

use marp_core::{wire_tag_name, MarpNode};
use marp_lab::{run_scenario, ProtocolKind, RunOutcome, Scenario};
use marp_net::FaultPlan;
use marp_sim::SimTime;
use std::time::Duration;

#[test]
fn crash_storm_stays_consistent() {
    let mut s = Scenario::paper(5, 50.0, 13);
    s.requests_per_client = 15;
    s.horizon = Some(Duration::from_secs(240));
    s.faults = Some(
        FaultPlan::new(5)
            .detect_delay(Duration::from_millis(100))
            .crash(1, SimTime::from_secs(1), Duration::from_secs(10))
            .crash(3, SimTime::from_secs(4), Duration::from_secs(15))
            .transient(0, SimTime::from_secs(8), Duration::from_millis(300))
            .transient(2, SimTime::from_secs(12), Duration::from_millis(500)),
    );
    let outcome = run_scenario(&s);
    outcome.audit.assert_ok();
    // Majority stayed alive throughout (never more than 2 down), so the
    // vast majority of writes must complete within the horizon;
    // requests accepted by a server in its pre-crash life are lost with
    // it until re-dispatch, so allow a small shortfall.
    let expected = 75u64;
    assert!(
        outcome.metrics.completed >= expected - 5,
        "only {} of {expected} completed",
        outcome.metrics.completed
    );
}

#[test]
fn partition_heals_and_minority_catches_up() {
    let mut s = Scenario::paper(5, 40.0, 17);
    s.requests_per_client = 12;
    s.horizon = Some(Duration::from_secs(240));
    // Servers 3,4 cut off for 5 s; the 0-1-2 majority keeps committing.
    s.faults = Some(FaultPlan::new(5).partition(
        SimTime::from_secs(1),
        Duration::from_secs(5),
        &[&[0, 1, 2], &[3, 4]],
    ));
    let outcome = run_scenario(&s);
    outcome.audit.assert_ok();
    assert!(
        outcome.metrics.completed >= 55,
        "only {} completed",
        outcome.metrics.completed
    );
}

#[test]
fn crashed_agents_requests_are_redispatched() {
    // The home of a dispatched agent crashes while the agent may be
    // anywhere; lock leases clean up its entries and the home's
    // re-dispatch machinery (or the agent itself, if it survived
    // elsewhere) finishes the work.
    let mut s = Scenario::paper(5, 20.0, 23);
    s.requests_per_client = 10;
    s.horizon = Some(Duration::from_secs(300));
    s.faults = Some(
        FaultPlan::new(5)
            .detect_delay(Duration::from_millis(100))
            .crash(0, SimTime::from_millis(1500), Duration::from_secs(5))
            .crash(4, SimTime::from_millis(1800), Duration::from_secs(5)),
    );
    let outcome = run_scenario(&s);
    outcome.audit.assert_ok();
    assert!(
        outcome.metrics.completed >= 40,
        "only {} of 50 completed",
        outcome.metrics.completed
    );
}

#[test]
fn primary_copy_stalls_where_marp_does_not() {
    // Same fault (node 0 dies for good), same workload: MARP keeps
    // committing, primary-copy cannot commit anything new.
    let faults = FaultPlan::new(5)
        .detect_delay(Duration::from_millis(100))
        .crash_forever(0, SimTime::from_millis(100));

    let mut marp = Scenario::paper(5, 100.0, 31);
    marp.requests_per_client = 8;
    marp.horizon = Some(Duration::from_secs(240));
    marp.faults = Some(faults.clone());
    let marp_out = run_scenario(&marp);
    marp_out.audit.assert_ok();

    let mut pc = marp.clone().with_protocol(ProtocolKind::PrimaryCopy);
    pc.faults = Some(faults);
    let pc_out = run_scenario(&pc);

    // Clients of the 4 surviving MARP servers all finish (32 writes);
    // node 0's own client cannot reach its dead server.
    assert!(
        marp_out.metrics.completed >= 32,
        "MARP completed only {}",
        marp_out.metrics.completed
    );
    assert!(
        pc_out.metrics.completed < marp_out.metrics.completed / 2,
        "primary-copy should stall without its primary (completed {})",
        pc_out.metrics.completed
    );
}

#[test]
fn recovered_replica_log_matches_survivors() {
    use marp_core::{build_cluster, wrap_client_request, MarpConfig};
    use marp_net::{LinkModel, SimTransport, Topology};
    use marp_replica::ClientProcess;
    use marp_sim::{SimRng, Simulation, TraceLevel};
    use marp_workload::WorkloadSource;

    let n = 5usize;
    let topo = Topology::uniform_lan(n + 2, Duration::from_millis(2));
    let plan = FaultPlan::new(n).crash(2, SimTime::from_millis(100), Duration::from_secs(4));
    let transport = SimTransport::new(topo.clone(), LinkModel::ideal(), SimRng::from_seed(3))
        .with_schedule(plan.net_schedule());
    let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    for k in 0..2 {
        sim.add_process(Box::new(ClientProcess::new(
            k,
            Box::new(WorkloadSource::paper_writes(80.0, 12, 900 + u64::from(k))),
            wrap_client_request,
        )));
    }
    plan.schedule_controls(&mut sim);
    sim.run_until(SimTime::from_secs(60));

    let logs: Vec<Vec<u64>> = (0..n as u16)
        .map(|s| {
            sim.process::<MarpNode>(s)
                .unwrap()
                .state()
                .core
                .store
                .log()
                .iter()
                .map(|r| r.version)
                .collect()
        })
        .collect();
    assert_eq!(logs[0].len(), 24);
    for (server, log) in logs.iter().enumerate() {
        assert_eq!(log, &logs[0], "server {server} diverged");
    }
}

#[test]
fn regression_presence_gate_prevents_claim_abort_livelock() {
    // Exact configuration that once livelocked: node 0 crashes at 1 s
    // for 20 s, node 1 blips at 2 s, seed 202. Agents whose itinerary
    // ended early (replicas declared unavailable during the crash) used
    // to tie-"win" with presence at fewer than a majority of Locking
    // Lists and then claim/abort forever; the presence gate in
    // `marp_core::lt::decide` keeps them travelling instead.
    let mut s = Scenario::paper(5, 100.0, 202);
    s.requests_per_client = 40;
    s.horizon = Some(Duration::from_secs(180));
    s.faults = Some(
        FaultPlan::new(5)
            .detect_delay(Duration::from_millis(100))
            .crash(0, SimTime::from_secs(1), Duration::from_secs(20))
            .transient(1, SimTime::from_secs(2), Duration::from_millis(400)),
    );
    let outcome = run_scenario(&s);
    outcome.audit.assert_ok();
    // Nearly everything commits (requests sent to the dead server while
    // it was down are lost at the client, which does not retry).
    assert!(
        outcome.metrics.completed >= 160,
        "completed only {} of 200",
        outcome.metrics.completed
    );
    // The livelock burned hundreds of thousands of messages; a healthy
    // run is two orders of magnitude cheaper.
    assert!(
        outcome.stats.messages_sent < 100_000,
        "suspicious message volume: {}",
        outcome.stats.messages_sent
    );
}

#[test]
fn lossy_network_degrades_gracefully_and_stays_consistent() {
    // 1% independent message loss. MARP's channels are nominally
    // reliable (paper §2), but every layer already retries or repairs:
    // migrations are acked, claims time out and re-run, missed commits
    // are back-filled by anti-entropy. Consistency must be untouched;
    // a small completion shortfall (lost client traffic has no retry)
    // is acceptable.
    let mut s = Scenario::paper(5, 60.0, 55);
    s.requests_per_client = 8;
    s.horizon = Some(Duration::from_secs(120));
    s.faults = Some(FaultPlan::new(5).loss(SimTime::ZERO, 0.01));
    let outcome = run_scenario(&s);
    outcome.audit.assert_ok();
    assert!(
        outcome.metrics.completed >= 34,
        "only {} of 40 completed under 1% loss",
        outcome.metrics.completed
    );
}

#[test]
fn directional_link_outage_is_routed_around() {
    // The 0→1 link (only) is dead for 3 s. Agents migrating 0→1 fail
    // and retry or declare node 1 unavailable for the round; everything
    // still commits because majorities avoid the broken direction.
    let mut s = Scenario::paper(5, 50.0, 66);
    s.requests_per_client = 10;
    s.horizon = Some(Duration::from_secs(240));
    s.faults = Some(FaultPlan::new(5).link_outage(
        0,
        1,
        SimTime::from_millis(200),
        Duration::from_secs(3),
    ));
    let outcome = run_scenario(&s);
    outcome.audit.assert_ok();
    assert_eq!(
        outcome.metrics.completed, 50,
        "a one-way link outage must not lose updates"
    );
}

/// The storm recipes' shape (the `regression_storm_*` rows of FAULTS.md
/// §2): the paper's N=5, 200 ms load, 40 writes per client, clients
/// resending after 2 s — under `faults`, with `seed`.
fn storm_recipe(seed: u64, faults: FaultPlan) -> RunOutcome {
    let mut s = Scenario::paper(5, 200.0, seed);
    s.requests_per_client = 40;
    s.client_retry = Some((Duration::from_secs(2), 8));
    s.faults = Some(faults);
    run_scenario(&s)
}

/// What every recipe must end as: a clean audit, every write answered,
/// and no storm (a clean run of this shape is 8–16 k events). A storm
/// is reported by what was measured — the event count and the message
/// kind that carried the most bytes — not by a guess at its cause.
fn assert_calm(outcome: &RunOutcome, max_events: u64) {
    outcome.audit.assert_ok();
    assert_eq!(outcome.acked_writes, 200, "every write is answered");
    let stats = &outcome.stats;
    let (tag, bytes) = (0..16u8)
        .map(|tag| (tag, stats.bytes_for_kind(tag)))
        .max_by_key(|&(_, bytes)| bytes)
        .unwrap_or_default();
    assert!(
        stats.events < max_events,
        "{} events against a cap of {max_events}; {} messages, {} B, \
         {bytes} B of them `{}` frames",
        stats.events,
        stats.messages_sent,
        stats.bytes_sent,
        wire_tag_name(tag),
    );
}

fn partition_3_2() -> FaultPlan {
    FaultPlan::new(5).partition(
        SimTime::from_millis(500),
        Duration::from_secs(1),
        &[&[0, 1, 3], &[2, 4]],
    )
}

fn loss_2pct_for_a_second() -> FaultPlan {
    FaultPlan::new(5)
        .loss(SimTime::from_millis(500), 0.02)
        .loss(SimTime::from_millis(1500), 0.0)
}

fn crash_2_for_a_second() -> FaultPlan {
    FaultPlan::new(5).crash(2, SimTime::from_millis(500), Duration::from_secs(1))
}

#[test]
fn regression_recovered_servers_locking_list_supersedes_its_pre_crash_self() {
    // Node 2 crashes at 500 ms for 1 s under the paper's N=5, 200 ms
    // load. Its Locking-List versions used to restart at 0, so every
    // snapshot it took after recovery lost to the dead pre-crash queue
    // still held in peers' boards and agents' tables: agents claimed on
    // that stale view, were refused, and re-polled — 600 k events —
    // until the 30 s lock lease ran out.
    assert_calm(&storm_recipe(2373, crash_2_for_a_second()), 60_000);
}

#[test]
fn regression_push_learned_commit_frees_the_lock() {
    // 2 % loss for one second drops a winner's COMMIT on its way to a
    // server that acked its UPDATE. The server sees the gap at the next
    // commit and pulls, and the Push that answers carries the lost
    // record: it must retire the winner exactly as the COMMIT would
    // have. It used to strip the Locking-List entry only, so the
    // reservation stood for the rest of `reserve_lease` with the
    // successor's claim held behind it, unanswered (66 k events).
    assert_calm(&storm_recipe(1219, loss_2pct_for_a_second()), 20_000);
}

#[test]
fn regression_commit_lost_to_its_own_quorum() {
    // A 3|2 partition begins at 500 ms, between an agent's UPDATE —
    // acked by nodes 2, 0 and 1 — and its COMMIT, broadcast once at
    // 501 ms: nodes 2 and 4 apply it as version 17, and the copies for
    // 0, 1 and 3 are dropped. No later commit leaves them a gap to see.
    // They used to refuse every rival behind the dead winner's entry
    // (~760 k events) until the 30 s lock lease forgot it, and then let
    // a rival commit *its* write as version 17: `order-preservation`
    // and `version-conflict`. A server whose Locking-List top or
    // reservation holder is older than two ack timeouts now asks a
    // peer, and learns version 17 once the partition heals.
    assert_calm(&storm_recipe(9007, partition_3_2()), 60_000);
}

// The same lost newest commit, with a clean audit: the servers that
// missed it refused every rival until the 30 s lock lease forgot the
// winner (760–800 k events each) before they learned to ask.

#[test]
fn regression_storm_partition_seed_10330() {
    assert_calm(&storm_recipe(10330, partition_3_2()), 60_000);
}

#[test]
fn regression_storm_loss_seed_815() {
    assert_calm(&storm_recipe(815, loss_2pct_for_a_second()), 60_000);
}

#[test]
fn regression_storm_loss_seed_1118() {
    assert_calm(&storm_recipe(1118, loss_2pct_for_a_second()), 60_000);
}

#[test]
fn regression_superseded_claimants_leave_no_dead_top() {
    // E7's crash shape: node 4 down from 1 s for 20 s, node 0 out from
    // 2 s for 400 ms. Node 0 forgets a request in flight and dispatches
    // a client's resend again; the first agent commits it, so the
    // duplicate is refused as superseded when it claims and disposes.
    // Its Locking-List entries used to stand until their 30 s lease
    // lapsed, with the agent next in line parked behind them, and a
    // chain of such duplicates held the key for 30 s each: 2.2 M
    // events, 153 of 200 writes answered in 180 s.
    let mut s = Scenario::paper(5, 100.0, 4);
    s.horizon = Some(Duration::from_secs(180));
    s.client_retry = Some((Duration::from_secs(2), 8));
    s.faults = Some(
        FaultPlan::new(5)
            .detect_delay(Duration::from_millis(100))
            .crash(4, SimTime::from_secs(1), Duration::from_secs(20))
            .transient(0, SimTime::from_secs(2), Duration::from_millis(400)),
    );
    assert_calm(&run_scenario(&s), 60_000);
}

#[test]
fn regression_storm_e7_crash0_seed_1000() {
    // E7's MARP crash shape with node 0 crashed: node 0 down 1–21 s,
    // node 1 out 2.0–2.4 s. Agent 0x8 (home 0) wins at node 2 at
    // 1.002 s on Locking-List tops at nodes 0, 1 and 2, 2 ms after
    // node 0 crashed, with node 4 not yet visited. Its claim gets two
    // acks, two refusals and silence from node 0, and aborts at
    // `ack_timeout`. Re-deciding on the same table, which still counts
    // node 0's row, grants the lock again: 78 claims in 20 s and no
    // commit from 0.958 s to 21.23 s, while the agents parked behind it
    // poll (298 762 events, 149.8 MB of `LlInfo` replies). So an
    // aborted claim tours on to a server it skipped and queues there
    // first: 8 412 events, 4 836 messages, 0.48 MB.
    let mut s = Scenario::paper(5, 100.0, 1000);
    s.horizon = Some(Duration::from_secs(180));
    s.client_retry = Some((Duration::from_secs(2), 8));
    s.faults = Some(
        FaultPlan::new(5)
            .detect_delay(Duration::from_millis(100))
            .crash(0, SimTime::from_secs(1), Duration::from_secs(20))
            .transient(1, SimTime::from_secs(2), Duration::from_millis(400)),
    );
    assert_calm(&run_scenario(&s), 60_000);
}

#[test]
#[ignore = "ROADMAP items 2 and 3: a poll storm behind a winner that died before any COMMIT existed"]
fn regression_storm_crash_seed_757() {
    // Node 2 crashes at 500 ms with the winner on board, after a
    // majority acked its UPDATE and before it sent COMMIT: no server
    // holds a decision to pull. The acked servers keep its reservation
    // and Locking-List entry until their leases lapse, and the agents
    // parked behind it re-poll at full rate meanwhile (~500 MB of
    // `agent` frames).
    assert_calm(&storm_recipe(757, crash_2_for_a_second()), 60_000);
}
