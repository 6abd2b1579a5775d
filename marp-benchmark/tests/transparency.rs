//! The timing wrappers must not change what the simulation does: the
//! traced rebuild reproduces `run_scenario`'s counts exactly, `as_any`
//! still reaches the wrapped process, and the spans fold into a ledger
//! that accounts for the whole run.

use marp_benchmark::facts::Facts;
use marp_benchmark::rebuild;
use marp_benchmark::trace::{Class, Ledger, Tracer};
use marp_core::MarpNode;
use marp_lab::{run_scenario_traced, ProtocolKind, Scenario};
use marp_replica::ClientProcess;
use marp_sim::TraceEvent;

fn small(protocol: ProtocolKind) -> Scenario {
    let mut scenario = Scenario::paper(3, 40.0, 7).with_protocol(protocol);
    scenario.requests_per_client = 5;
    scenario
}

fn assert_transparent(scenario: &Scenario, marp: bool) -> Ledger {
    let (outcome, trace) = run_scenario_traced(scenario);
    let reference = Facts::of_run(&outcome, &trace);
    assert_eq!(reference.completed, 15);

    let tracer = Tracer::new(scenario.n_servers, marp);
    let mut built = rebuild::build(scenario, Some(&tracer));
    // Stepping the run must not change it either.
    let horizon = built.horizon;
    tracer.run_until(&mut built.sim, marp_sim::SimTime::from_millis(100));
    let stats = tracer.run_until(&mut built.sim, horizon);

    assert_eq!(stats.events, reference.events);
    assert_eq!(stats.messages_sent, reference.messages);
    assert_eq!(stats.bytes_sent, reference.bytes);
    assert_eq!(stats.bytes_by_kind, reference.bytes_by_kind);
    assert_eq!(stats.timers_fired, reference.timers);
    let committed = built
        .sim
        .trace()
        .count(|e| matches!(e, TraceEvent::UpdateCompleted { .. })) as u64;
    assert_eq!(committed, reference.completed);
    assert_eq!(built.sim.trace().records(), trace.records());

    // The wrapper is invisible to post-run inspection.
    if marp {
        assert!(built.sim.process::<MarpNode>(0).is_some());
    }
    let mut latencies = Vec::new();
    for &client in &built.clients {
        let process = built
            .sim
            .process::<ClientProcess>(client)
            .expect("a client behind the wrapper");
        latencies.extend(
            process
                .stats
                .write_latencies
                .iter()
                .map(|d| d.as_secs_f64() * 1e3),
        );
    }
    assert_eq!(latencies, reference.write_ms);

    let recording = tracer.finish();
    assert!(!recording.payloads.is_empty());
    let mut ledger = Ledger::default();
    ledger.fold(&recording.spans).expect("spans nest");
    assert_eq!(ledger.run.count, 2);
    // One handler span per event that reached a process: each node's
    // start, each delivery, each timer that was still armed.
    assert_eq!(
        ledger.handler_events(),
        built.sim.node_count() as u64 + stats.messages_delivered + stats.timers_fired
    );
    assert_eq!(ledger.route.count, stats.messages_sent);
    assert_eq!(
        ledger.handler_self_ns() + ledger.ctx_ns() + ledger.route.ns + ledger.engine_ns(),
        ledger.run.ns
    );
    ledger
}

#[test]
fn marp_rebuild_with_wrappers_is_run_scenario() {
    let ledger = assert_transparent(&small(ProtocolKind::marp()), true);
    // 15 client requests reached servers as `client`-tagged messages.
    assert_eq!(ledger.handler(Class::Client).count, 15);
    assert_eq!(ledger.handler(Class::Baseline).count, 0);
    assert!(ledger.handler(Class::Commit).count > 0);
    assert!(ledger.handler(Class::ClientProc).count > 0);
}

#[test]
fn mcv_rebuild_with_wrappers_is_run_scenario() {
    let ledger = assert_transparent(&small(ProtocolKind::Mcv), false);
    assert_eq!(ledger.handler(Class::Client).count, 0);
    assert!(ledger.handler(Class::Baseline).count > 0);
}

#[test]
fn unwrapped_rebuild_is_run_scenario_too() {
    let scenario = small(ProtocolKind::marp());
    let (_, trace) = run_scenario_traced(&scenario);
    let mut built = rebuild::build(&scenario, None);
    built.sim.run_until(built.horizon);
    assert_eq!(built.sim.trace().records(), trace.records());
}

#[test]
fn every_benchmark_workload_rebuilds() {
    for workload in &marp_benchmark::workloads::ALL {
        let scenario = workload.scenario(3);
        let built = rebuild::build(&scenario, None);
        assert_eq!(
            built.sim.node_count(),
            scenario.n_servers * (1 + scenario.clients_per_server),
            "{}",
            workload.name
        );
    }
}
