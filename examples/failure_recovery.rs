//! Failure and recovery: the paper's fault model in action.
//!
//! A 5-replica MARP cluster keeps committing while one replica is
//! crashed for twenty seconds and another suffers a short transient
//! outage. Watch the retry/declare-unavailable machinery, the lock-lease
//! cleanup for an agent that dies with its host, and the recovered
//! replica catching up by anti-entropy — all while the consistency audit
//! stays clean.
//!
//! Run with: `cargo run --release --example failure_recovery`

use marp_core::{build_cluster, wrap_client_request, MarpConfig, MarpNode};
use marp_metrics::audit;
use marp_net::{FaultPlan, LinkModel, SimTransport, Topology};
use marp_replica::ClientProcess;
use marp_sim::{trace, SimRng, SimTime, Simulation, TraceEvent, TraceLevel};
use marp_workload::WorkloadSource;
use std::time::Duration;

fn main() {
    let n = 5usize;
    let clients = n;
    let topo = Topology::uniform_lan(n + clients, Duration::from_millis(2));
    let plan = FaultPlan::new(n)
        .detect_delay(Duration::from_millis(150))
        // Server 4 crashes at t=1s for 20s.
        .crash(4, SimTime::from_secs(1), Duration::from_secs(20))
        // Server 2 blips out briefly at t=3s.
        .transient(2, SimTime::from_secs(3), Duration::from_millis(400));

    let transport = SimTransport::new(topo.clone(), LinkModel::lan_1990s(), SimRng::from_seed(7))
        .with_schedule(plan.net_schedule());
    let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
    let cfg = MarpConfig::new(n);
    build_cluster(&mut sim, &cfg, &topo);
    for k in 0..clients {
        let source = WorkloadSource::paper_writes(400.0, 25, 1000 + k as u64);
        sim.add_process(Box::new(ClientProcess::new(
            (k % n) as u16,
            Box::new(source),
            wrap_client_request,
        )));
    }
    plan.schedule_controls(&mut sim);

    sim.run_until(SimTime::from_secs(120));

    println!("=== fault timeline ===");
    for record in sim.trace().records() {
        match &record.event {
            TraceEvent::NodeDown(node) => {
                println!("{:>10}  server {node} CRASHED", record.at.to_string())
            }
            TraceEvent::NodeUp(node) => {
                println!("{:>10}  server {node} recovered", record.at.to_string())
            }
            TraceEvent::AgentMigrateFailed { agent, to, .. } => println!(
                "{:>10}  agent {agent:#x} migration to {to} timed out, retrying",
                record.at.to_string()
            ),
            TraceEvent::ReplicaDeclaredUnavailable { agent, node } => println!(
                "{:>10}  agent {agent:#x} declared server {node} unavailable for this round",
                record.at.to_string()
            ),
            TraceEvent::Custom {
                kind: trace::LOCK_LEASE_EXPIRED,
                a,
                b,
            } => println!(
                "{:>10}  server {b} purged the expired lock of dead agent {a:#x}",
                record.at.to_string()
            ),
            TraceEvent::Custom {
                kind: trace::AGENT_REGENERATED,
                a,
                b,
            } => println!(
                "{:>10}  home re-dispatched {b} request(s) lost with agent {a:#x}",
                record.at.to_string()
            ),
            _ => {}
        }
    }

    // The recovered replica caught up.
    println!("\n=== final state ===");
    let reference = sim
        .process::<MarpNode>(0)
        .unwrap()
        .state()
        .core
        .store
        .applied_version();
    for server in 0..n as u16 {
        let node = sim.process::<MarpNode>(server).unwrap();
        let version = node.state().core.store.applied_version();
        println!("server {server}: applied version {version}");
        assert_eq!(version, reference, "server {server} failed to catch up");
    }

    let report = audit(sim.trace(), n);
    report.assert_ok();
    let completed = sim
        .trace()
        .count(|e| matches!(e, TraceEvent::UpdateCompleted { .. }));
    println!(
        "\naudit: clean — {} updates committed in the same order at all {n} replicas \
         despite 1 crash + 1 transient outage ({} duplicate completions from re-dispatch)",
        completed, report.duplicate_completions
    );
}

#[test]
fn runs() {
    main();
}
