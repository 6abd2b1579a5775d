//! Cross-backend validation: the same MARP cluster driven by the
//! deterministic discrete-event engine and by real OS threads must
//! agree on what was committed.

use marp_core::{build_cluster, wrap_client_request, MarpConfig, MarpNode};
use marp_metrics::{audit, PaperMetrics};
use marp_net::{LinkModel, RoutingTable, SimTransport, Topology};
use marp_replica::ClientProcess;
use marp_sim::{Process, SimRng, SimTime, Simulation, TraceLevel};
use marp_threaded::run_threaded;
use marp_workload::WorkloadSource;
use std::time::Duration;

const N: usize = 3;
const REQUESTS: u64 = 8;

fn topology() -> Topology {
    Topology::uniform_lan(N + N, Duration::from_millis(1))
}

#[test]
fn threaded_backend_matches_des_on_commits() {
    // --- deterministic engine ---
    let topo = topology();
    let transport = SimTransport::new(topo.clone(), LinkModel::ideal(), SimRng::from_seed(9));
    let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
    build_cluster(&mut sim, &MarpConfig::new(N), &topo);
    for k in 0..N {
        sim.add_process(Box::new(ClientProcess::new(
            k as u16,
            Box::new(WorkloadSource::paper_writes(30.0, REQUESTS, 500 + k as u64)),
            wrap_client_request,
        )));
    }
    sim.run_until(SimTime::from_secs(30));
    let des_metrics = PaperMetrics::from_trace(sim.trace());
    audit(sim.trace(), N).assert_ok();
    assert_eq!(des_metrics.completed, N as u64 * REQUESTS);
    let des_final = sim
        .process::<MarpNode>(0)
        .unwrap()
        .state()
        .core
        .store
        .applied_version();

    // --- threaded backend, same processes ---
    let topo = topology();
    let mut processes: Vec<Box<dyn Process>> = Vec::new();
    for me in 0..N as u16 {
        processes.push(Box::new(MarpNode::new(
            me,
            MarpConfig::new(N),
            RoutingTable::from_topology(me, &topo),
        )));
    }
    for k in 0..N {
        processes.push(Box::new(ClientProcess::new(
            k as u16,
            Box::new(WorkloadSource::paper_writes(30.0, REQUESTS, 500 + k as u64)),
            wrap_client_request,
        )));
    }
    let transport = SimTransport::new(topo, LinkModel::ideal(), SimRng::from_seed(9));
    let run = run_threaded(processes, Box::new(transport), Duration::from_secs(6));
    let threaded_metrics = PaperMetrics::from_trace(&run.trace);
    audit(&run.trace, N).assert_ok();

    // Wall-clock jitter means the threaded run may cut off a straggler,
    // but the overwhelming majority must commit and nothing may violate
    // consistency.
    assert!(
        threaded_metrics.completed >= (N as u64 * REQUESTS).saturating_sub(2),
        "threaded completed only {} of {}",
        threaded_metrics.completed,
        N as u64 * REQUESTS
    );
    let threaded_final = run
        .process::<MarpNode>(0)
        .unwrap()
        .state()
        .core
        .store
        .applied_version();
    assert!(
        threaded_final + 2 >= des_final,
        "threaded applied {threaded_final}, DES applied {des_final}"
    );
}
