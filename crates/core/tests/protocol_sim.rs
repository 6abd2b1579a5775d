//! End-to-end protocol tests: MARP clusters under the discrete-event
//! simulator, checking the paper's claimed properties on every run.

use marp_core::{build_cluster, wrap_client_request, MarpConfig, MarpNode};
use marp_net::{FaultPlan, LinkModel, SimTransport, Topology};
use marp_replica::{ClientProcess, Operation, ScriptedSource};
use marp_sim::{NodeId, SimRng, SimTime, Simulation, TraceEvent, TraceLevel};
use std::collections::BTreeMap;
use std::time::Duration;

fn lan_sim(n_servers: usize, n_clients: usize, seed: u64) -> (Simulation, Topology) {
    let topo = Topology::uniform_lan(n_servers + n_clients, Duration::from_millis(2));
    let transport = SimTransport::new(topo.clone(), LinkModel::ideal(), SimRng::from_seed(seed));
    (
        Simulation::new(Box::new(transport), TraceLevel::Protocol),
        topo,
    )
}

fn add_client(sim: &mut Simulation, server: NodeId, script: Vec<(Duration, Operation)>) -> NodeId {
    sim.add_process(Box::new(ClientProcess::new(
        server,
        Box::new(ScriptedSource::new(script)),
        wrap_client_request,
    )))
}

/// A server's applied commit history, one dense log of
/// `(version, key, value)` per object key (MARP stores run the
/// per-key chain discipline).
type CommitLog = BTreeMap<u64, Vec<(u64, u64, u64)>>;

fn commit_log_of(sim: &Simulation, server: NodeId) -> CommitLog {
    let node = sim.process::<MarpNode>(server).unwrap();
    let store = &node.state().core.store;
    store
        .chain_versions()
        .keys()
        .map(|&chain| {
            (
                chain,
                store
                    .log_suffix_for(chain, 0)
                    .iter()
                    .map(|r| (r.version, r.key, r.value))
                    .collect(),
            )
        })
        .collect()
}

fn total_commits(log: &CommitLog) -> usize {
    log.values().map(Vec::len).sum()
}

/// All servers applied the same commits in the same order *per key*
/// (the paper's order-preservation property, held independently on
/// every key's chain), modulo a shorter prefix on servers that are
/// still catching up.
fn assert_consistent(sim: &Simulation, n: usize) {
    let logs: Vec<CommitLog> = (0..n as NodeId).map(|s| commit_log_of(sim, s)).collect();
    let keys: std::collections::BTreeSet<u64> =
        logs.iter().flat_map(|l| l.keys().copied()).collect();
    for key in keys {
        let empty = Vec::new();
        let chains: Vec<&Vec<(u64, u64, u64)>> =
            logs.iter().map(|l| l.get(&key).unwrap_or(&empty)).collect();
        let longest = chains.iter().map(|c| c.len()).max().unwrap_or(0);
        let reference = chains
            .iter()
            .find(|c| c.len() == longest)
            .expect("at least one chain");
        for (server, chain) in chains.iter().enumerate() {
            assert_eq!(
                chain.as_slice(),
                &reference[..chain.len()],
                "server {server} diverges from the common prefix on key {key}"
            );
        }
    }
}

#[test]
fn single_write_reaches_all_replicas() {
    let n = 5;
    let (mut sim, topo) = lan_sim(n, 1, 1);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    add_client(
        &mut sim,
        0,
        vec![(
            Duration::from_millis(1),
            Operation::Write { key: 7, value: 70 },
        )],
    );
    sim.run_until(SimTime::from_secs(2));

    for server in 0..n as NodeId {
        let node = sim.process::<MarpNode>(server).unwrap();
        assert_eq!(
            node.state().core.store.get(7).map(|s| s.value),
            Some(70),
            "server {server} missing the write"
        );
        assert_eq!(node.resident_agents(), 0);
        assert_eq!(node.outstanding_batches(), 0);
    }
    assert_eq!(
        sim.trace()
            .count(|e| matches!(e, TraceEvent::AgentDisposed { .. })),
        1
    );
    assert_consistent(&sim, n);
}

#[test]
fn client_gets_write_done_and_fresh_read() {
    let n = 3;
    let (mut sim, topo) = lan_sim(n, 1, 2);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    let client = add_client(
        &mut sim,
        1,
        vec![
            (
                Duration::from_millis(1),
                Operation::Write { key: 3, value: 30 },
            ),
            (Duration::from_millis(200), Operation::Read { key: 3 }),
        ],
    );
    sim.run_until(SimTime::from_secs(2));
    let client_proc = sim.process::<ClientProcess>(client).unwrap();
    assert_eq!(client_proc.stats.write_latencies.len(), 1);
    assert_eq!(client_proc.stats.read_latencies.len(), 1);
    // The read, issued 200 ms after the write, observes it.
    assert_eq!(client_proc.stats.read_versions, vec![1]);
    // Local read over one 2 ms hop each way: far cheaper than the write.
    assert!(client_proc.stats.mean_read_ms().unwrap() < 6.0);
    assert!(client_proc.stats.mean_write_ms().unwrap() > client_proc.stats.mean_read_ms().unwrap());
}

#[test]
fn concurrent_writers_from_every_server_stay_consistent() {
    let n = 5;
    let writes_per_client = 6;
    let (mut sim, topo) = lan_sim(n, n, 3);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    for server in 0..n as NodeId {
        let script: Vec<(Duration, Operation)> = (0..writes_per_client)
            .map(|i| {
                (
                    Duration::from_millis(5),
                    Operation::Write {
                        key: u64::from(server),
                        value: u64::from(server) * 1000 + i,
                    },
                )
            })
            .collect();
        add_client(&mut sim, server, script);
    }
    sim.run_until(SimTime::from_secs(20));

    let total = n * writes_per_client as usize;
    let log0 = commit_log_of(&sim, 0);
    assert_eq!(total_commits(&log0), total, "all writes must commit");
    // Each key's chain is dense 1..=len — independent keys version
    // independently.
    assert_eq!(log0.len(), n, "one chain per key");
    for (key, chain) in &log0 {
        let versions: Vec<u64> = chain.iter().map(|&(v, _, _)| v).collect();
        assert_eq!(
            versions,
            (1..=chain.len() as u64).collect::<Vec<_>>(),
            "key {key} chain not dense"
        );
    }
    assert_consistent(&sim, n);

    // Every request completed exactly once.
    assert_eq!(
        sim.trace()
            .count(|e| matches!(e, TraceEvent::UpdateCompleted { .. })),
        total
    );
}

#[test]
fn theorem3_visit_bounds_hold() {
    let n = 5;
    let (mut sim, topo) = lan_sim(n, n, 4);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    for server in 0..n as NodeId {
        let script: Vec<(Duration, Operation)> = (0..4)
            .map(|i| {
                (
                    Duration::from_millis(10),
                    Operation::Write {
                        key: 1,
                        value: u64::from(server) * 100 + i,
                    },
                )
            })
            .collect();
        add_client(&mut sim, server, script);
    }
    sim.run_until(SimTime::from_secs(20));

    let window = marp_metrics::theorem3_visits(n);
    let mut grants = 0;
    for record in sim
        .trace()
        .filter(|e| matches!(e, TraceEvent::LockGranted { .. }))
    {
        let TraceEvent::LockGranted { visits, .. } = record.event else {
            unreachable!()
        };
        grants += 1;
        assert!(
            window.contains(&(visits as usize)),
            "visits {visits} outside Theorem 3 bounds {window:?}"
        );
    }
    assert!(grants >= n as u32 * 4, "every batch should win eventually");
    assert_consistent(&sim, n);
}

#[test]
fn works_with_three_servers_and_jitter() {
    let n = 3;
    let topo = Topology::uniform_lan(n + 2, Duration::from_millis(2));
    let transport = SimTransport::new(topo.clone(), LinkModel::lan_1990s(), SimRng::from_seed(5));
    let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    for (client_idx, server) in [(0u16, 0u16), (1, 1)] {
        let _ = client_idx;
        let script: Vec<(Duration, Operation)> = (0..5)
            .map(|i| {
                (
                    Duration::from_millis(8),
                    Operation::Write {
                        key: u64::from(server),
                        value: i,
                    },
                )
            })
            .collect();
        add_client(&mut sim, server, script);
    }
    sim.run_until(SimTime::from_secs(20));
    assert_eq!(total_commits(&commit_log_of(&sim, 0)), 10);
    assert_consistent(&sim, n);
}

#[test]
fn crashed_replica_catches_up_after_recovery() {
    let n = 5;
    let (mut sim, topo) = lan_sim(n, 1, 6);
    let cfg = MarpConfig::new(n);
    build_cluster(&mut sim, &cfg, &topo);
    // Server 4 is down from 5 ms to 3 s; writes flow meanwhile.
    let plan = FaultPlan::new(n).crash(4, SimTime::from_millis(5), Duration::from_secs(3));
    plan.schedule_controls(&mut sim);
    let script: Vec<(Duration, Operation)> = (0..8)
        .map(|i| {
            (
                Duration::from_millis(40),
                Operation::Write { key: 9, value: i },
            )
        })
        .collect();
    add_client(&mut sim, 0, script);
    sim.run_until(SimTime::from_secs(30));

    // All 8 writes committed despite the crash (majority alive).
    assert_eq!(total_commits(&commit_log_of(&sim, 0)), 8);
    // The recovered server pulled the history it missed.
    assert_eq!(
        total_commits(&commit_log_of(&sim, 4)),
        8,
        "server 4 should catch up via anti-entropy"
    );
    assert_consistent(&sim, n);
}

#[test]
fn update_is_majority_acked_before_commit() {
    let n = 5;
    let (mut sim, topo) = lan_sim(n, 1, 7);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    add_client(
        &mut sim,
        2,
        vec![(
            Duration::from_millis(1),
            Operation::Write { key: 1, value: 1 },
        )],
    );
    sim.run_until(SimTime::from_secs(2));
    let positive_acks = sim
        .trace()
        .count(|e| matches!(e, TraceEvent::UpdateAcked { positive: true, .. }));
    assert!(
        positive_acks >= 3,
        "majority of acks required, saw {positive_acks}"
    );
    assert_eq!(
        sim.trace()
            .count(|e| matches!(e, TraceEvent::CommitApplied { .. })),
        n
    );
}

#[test]
fn deterministic_replay_bytes_identical() {
    let build = || {
        let n = 4;
        let (mut sim, topo) = lan_sim(n, 2, 11);
        build_cluster(&mut sim, &MarpConfig::new(n), &topo);
        add_client(
            &mut sim,
            0,
            vec![
                (
                    Duration::from_millis(1),
                    Operation::Write { key: 1, value: 1 },
                ),
                (
                    Duration::from_millis(3),
                    Operation::Write { key: 2, value: 2 },
                ),
            ],
        );
        add_client(
            &mut sim,
            1,
            vec![(
                Duration::from_millis(2),
                Operation::Write { key: 3, value: 3 },
            )],
        );
        sim.run_until(SimTime::from_secs(5));
        sim.into_trace()
    };
    let t1 = build();
    let t2 = build();
    assert_eq!(t1.records(), t2.records());
}

#[test]
fn single_server_degenerates_gracefully() {
    let n = 1;
    let (mut sim, topo) = lan_sim(n, 1, 8);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    add_client(
        &mut sim,
        0,
        vec![(
            Duration::from_millis(1),
            Operation::Write { key: 5, value: 55 },
        )],
    );
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(
        commit_log_of(&sim, 0),
        BTreeMap::from([(5, vec![(1, 5, 55)])])
    );
}

#[test]
fn gossip_off_still_converges() {
    let n = 5;
    let (mut sim, topo) = lan_sim(n, 2, 9);
    let mut cfg = MarpConfig::new(n);
    cfg.gossip = false;
    build_cluster(&mut sim, &cfg, &topo);
    for server in 0..2u16 {
        let script: Vec<(Duration, Operation)> = (0..3)
            .map(|i| {
                (
                    Duration::from_millis(5),
                    Operation::Write { key: 4, value: i },
                )
            })
            .collect();
        add_client(&mut sim, server, script);
    }
    sim.run_until(SimTime::from_secs(20));
    assert_eq!(total_commits(&commit_log_of(&sim, 0)), 6);
    assert_consistent(&sim, n);
}

#[test]
fn batching_coalesces_requests_into_one_agent() {
    let n = 3;
    let (mut sim, topo) = lan_sim(n, 1, 10);
    let mut cfg = MarpConfig::new(n);
    cfg.batch.max_batch = 4;
    build_cluster(&mut sim, &cfg, &topo);
    // Same key throughout: agents are key-uniform, so a single-key
    // batch must coalesce into exactly one agent.
    let script: Vec<(Duration, Operation)> = (0..4)
        .map(|i| {
            (
                Duration::from_millis(1),
                Operation::Write { key: 7, value: i },
            )
        })
        .collect();
    add_client(&mut sim, 0, script);
    sim.run_until(SimTime::from_secs(5));

    // One agent carried all four writes.
    let dispatches: Vec<usize> = sim
        .trace()
        .filter(|e| matches!(e, TraceEvent::AgentDispatched { .. }))
        .map(|r| match r.event {
            TraceEvent::AgentDispatched { batch, .. } => batch,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(dispatches, vec![4]);
    assert_eq!(total_commits(&commit_log_of(&sim, 0)), 4);
    assert_consistent(&sim, n);
}

#[test]
fn fresh_read_consults_a_majority_and_sees_the_latest_value() {
    let n = 5;
    let (mut sim, topo) = lan_sim(n, 1, 12);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    let client = add_client(
        &mut sim,
        2,
        vec![
            (
                Duration::from_millis(1),
                Operation::Write { key: 4, value: 44 },
            ),
            (Duration::from_millis(150), Operation::ReadFresh { key: 4 }),
        ],
    );
    sim.run_until(SimTime::from_secs(3));
    let proc = sim.process::<ClientProcess>(client).unwrap();
    assert_eq!(proc.stats.read_latencies.len(), 1);
    assert_eq!(proc.stats.read_versions, vec![1]);
    // The read agent visited a majority: its latency covers at least
    // ceil((n+1)/2) - 1 = 2 migrations beyond the local visit, so it is
    // strictly slower than a local read round trip (4 ms) but far
    // cheaper than a write.
    let read_ms = proc.stats.mean_read_ms().unwrap();
    assert!(read_ms > 4.0, "fresh read too fast to be quorum: {read_ms}");
    // No read agents left resident anywhere.
    for server in 0..n as NodeId {
        let node = sim.process::<MarpNode>(server).unwrap();
        assert_eq!(node.resident_read_agents(), 0);
    }
}

#[test]
fn fresh_read_is_rejected_when_majority_unreachable() {
    let n = 5;
    let (mut sim, topo) = lan_sim(n, 1, 13);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    // Three of five servers down: majority reads impossible.
    for node in [1u16, 3, 4] {
        sim.schedule_control(
            SimTime::ZERO,
            marp_sim::Control::SetNodeUp { node, up: false },
        );
    }
    let client = add_client(
        &mut sim,
        0,
        vec![(Duration::from_millis(1), Operation::ReadFresh { key: 4 })],
    );
    sim.run_until(SimTime::from_secs(30));
    let proc = sim.process::<ClientProcess>(client).unwrap();
    assert_eq!(proc.stats.rejected, 1, "expected a refusal");
    assert_eq!(proc.stats.read_latencies.len(), 0);
}

#[test]
fn fresh_read_answers_from_the_three_live_replicas_when_two_are_down() {
    let n = 5;
    let (mut sim, topo) = lan_sim(n, 1, 15);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    // Two of five servers down: the live three are the only majority,
    // and the read agent must skip the two it cannot reach.
    for node in [1u16, 3] {
        sim.schedule_control(
            SimTime::ZERO,
            marp_sim::Control::SetNodeUp { node, up: false },
        );
    }
    let client = add_client(
        &mut sim,
        0,
        vec![
            (
                Duration::from_millis(1),
                Operation::Write { key: 4, value: 44 },
            ),
            (
                Duration::from_millis(400),
                Operation::Write { key: 4, value: 45 },
            ),
            (Duration::from_millis(400), Operation::ReadFresh { key: 4 }),
        ],
    );
    sim.run_until(SimTime::from_secs(30));
    let proc = sim.process::<ClientProcess>(client).unwrap();
    assert_eq!(proc.stats.rejected, 0);
    assert_eq!(proc.stats.read_versions, vec![2]);
    for server in [0u16, 2, 4] {
        let node = sim.process::<MarpNode>(server).unwrap();
        assert_eq!(node.resident_read_agents(), 0);
    }
}

#[test]
fn plain_reads_can_be_stale_but_fresh_reads_are_not() {
    // Write through server 0; immediately read key through server 4,
    // both plain and fresh, racing the commit propagation. The fresh
    // read must observe the committed value once the write completed.
    let n = 5;
    let (mut sim, topo) = lan_sim(n, 2, 14);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    add_client(
        &mut sim,
        0,
        vec![(
            Duration::from_millis(1),
            Operation::Write { key: 9, value: 90 },
        )],
    );
    let reader = add_client(
        &mut sim,
        4,
        vec![(Duration::from_millis(300), Operation::ReadFresh { key: 9 })],
    );
    sim.run_until(SimTime::from_secs(3));
    let proc = sim.process::<ClientProcess>(reader).unwrap();
    assert_eq!(proc.stats.read_versions, vec![1]);
}

#[test]
fn winner_crash_between_update_and_commit_does_not_wedge_rivals() {
    // Client on server 0 writes; its agent wins and broadcasts UPDATE at
    // ~11 ms. Server 0 (hosting the winner) crashes at 12 ms — after
    // reservations were granted, before COMMIT. Rivals from server 1
    // must eventually commit: the dead winner's reservations expire
    // after `reserve_lease` and its LL entries after the lock lease.
    let n = 5;
    let (mut sim, topo) = lan_sim(n, 2, 21);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    add_client(
        &mut sim,
        0,
        vec![(
            Duration::from_millis(1),
            Operation::Write { key: 1, value: 11 },
        )],
    );
    add_client(
        &mut sim,
        1,
        vec![(
            Duration::from_millis(30),
            Operation::Write { key: 2, value: 22 },
        )],
    );
    sim.schedule_control(
        SimTime::from_millis(12),
        marp_sim::Control::SetNodeUp { node: 0, up: false },
    );
    sim.run_until(SimTime::from_secs(120));

    // The rival's write committed on the surviving majority.
    let node1 = sim.process::<MarpNode>(1).unwrap();
    assert_eq!(
        node1.state().core.store.get(2).map(|s| s.value),
        Some(22),
        "rival write never committed"
    );
    marp_metrics::audit_keyed(sim.trace(), n).assert_ok();
}

fn queued_behind_events(sim: &Simulation) -> usize {
    sim.trace().count(|e| {
        matches!(
            e,
            TraceEvent::Custom {
                kind: marp_sim::trace::LOCK_QUEUED_BEHIND,
                ..
            }
        )
    })
}

#[test]
fn mixed_key_batch_fans_out_into_per_key_agents() {
    // Four writes to four keys arriving inside one batching window:
    // the batcher coalesces them, but dispatch splits the ripe batch
    // into one key-uniform agent per key.
    let n = 3;
    let (mut sim, topo) = lan_sim(n, 1, 15);
    let mut cfg = MarpConfig::new(n);
    cfg.batch.max_batch = 4;
    build_cluster(&mut sim, &cfg, &topo);
    let script: Vec<(Duration, Operation)> = (0..4)
        .map(|i| {
            (
                Duration::from_millis(1),
                Operation::Write { key: i, value: i },
            )
        })
        .collect();
    add_client(&mut sim, 0, script);
    sim.run_until(SimTime::from_secs(5));

    let dispatches: Vec<usize> = sim
        .trace()
        .filter(|e| matches!(e, TraceEvent::AgentDispatched { .. }))
        .map(|r| match r.event {
            TraceEvent::AgentDispatched { batch, .. } => batch,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(dispatches, vec![1, 1, 1, 1], "one agent per key");
    let log = commit_log_of(&sim, 0);
    assert_eq!(log.len(), 4, "one chain per key");
    assert_eq!(total_commits(&log), 4);
    assert_consistent(&sim, n);
    marp_metrics::audit_keyed(sim.trace(), n).assert_ok();
}

#[test]
fn disjoint_key_writers_never_wait_on_each_others_locks() {
    // Two writers on different servers write two different keys
    // concurrently (spaced so each writer's own agents never overlap —
    // any queuing would be *between* the writers). Locking Lists are
    // per key, so neither agent must ever find the other queued ahead
    // of it: zero lock waits.
    let n = 5;
    let (mut sim, topo) = lan_sim(n, 2, 16);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    for (server, key) in [(0u16, 1u64), (1, 2)] {
        let script: Vec<(Duration, Operation)> = (0..6)
            .map(|i| {
                (
                    Duration::from_millis(100),
                    Operation::Write { key, value: i },
                )
            })
            .collect();
        add_client(&mut sim, server, script);
    }
    sim.run_until(SimTime::from_secs(20));

    assert_eq!(total_commits(&commit_log_of(&sim, 0)), 12);
    assert_eq!(
        queued_behind_events(&sim),
        0,
        "disjoint-key agents queued behind each other"
    );
    assert_consistent(&sim, n);
    marp_metrics::audit_keyed(sim.trace(), n).assert_ok();
}

#[test]
fn same_key_writers_do_queue_behind_each_other() {
    // Control for the disjoint-key regression: the same workload on a
    // single shared key must exhibit lock waits — otherwise the
    // `lock-queued-behind` probe itself is broken.
    let n = 5;
    let (mut sim, topo) = lan_sim(n, 2, 16);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    for server in [0u16, 1] {
        let script: Vec<(Duration, Operation)> = (0..6)
            .map(|i| {
                (
                    Duration::from_millis(100),
                    Operation::Write { key: 1, value: i },
                )
            })
            .collect();
        add_client(&mut sim, server, script);
    }
    sim.run_until(SimTime::from_secs(20));

    assert_eq!(total_commits(&commit_log_of(&sim, 0)), 12);
    assert!(
        queued_behind_events(&sim) > 0,
        "contending same-key agents never queued — probe broken?"
    );
    assert_consistent(&sim, n);
    marp_metrics::audit_keyed(sim.trace(), n).assert_ok();
}
