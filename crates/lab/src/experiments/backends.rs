//! E12 — cross-validation: the same MARP scenario under the
//! deterministic discrete-event engine and under the threaded runtime
//! (real OS threads + `std::sync::mpsc` channels) must produce statistically
//! matching results.

use marp_core::{wrap_client_request, MarpConfig, MarpNode};
use marp_metrics::{audit_keyed, fmt_ms, PaperMetrics, Table};
use marp_net::{LinkModel, SimTransport, Topology};
use marp_replica::ClientProcess;
use marp_sim::{Process, SimRng, SimTime, Simulation, TraceLevel, TraceLog};
use marp_threaded::run_threaded;
use marp_workload::WorkloadSource;
use std::time::Duration;

const N: usize = 3;
const REQUESTS: u64 = 15;
const MEAN_MS: f64 = 40.0;

fn topology() -> Topology {
    Topology::uniform_lan(N + N, Duration::from_millis(1))
}

fn make_processes() -> Vec<Box<dyn Process>> {
    let topo = topology();
    let cfg = MarpConfig::new(N);
    let mut processes: Vec<Box<dyn Process>> = Vec::new();
    for me in 0..N as u16 {
        let routing = marp_net::RoutingTable::from_topology(me, &topo);
        processes.push(Box::new(MarpNode::new(me, cfg, routing)));
    }
    for k in 0..N {
        let source = WorkloadSource::paper_writes(MEAN_MS, REQUESTS, 77 + k as u64);
        processes.push(Box::new(ClientProcess::new(
            k as u16,
            Box::new(source),
            wrap_client_request,
        )));
    }
    processes
}

/// The discrete-event run of the same processes; its trace is what
/// `--trace-out` records (there is no `Scenario` to re-run).
pub(super) fn des_trace() -> TraceLog {
    let transport = SimTransport::new(topology(), LinkModel::ideal(), SimRng::from_seed(5));
    let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
    for process in make_processes() {
        sim.add_process(process);
    }
    sim.run_until(SimTime::from_secs(30));
    sim.into_trace()
}

pub(super) fn run() -> String {
    let des_trace = des_trace();
    let des = PaperMetrics::from_trace(&des_trace);
    audit_keyed(&des_trace, N).assert_ok();

    // Threaded run (same processes, real concurrency, 4x speed).
    let transport = SimTransport::new(topology(), LinkModel::ideal(), SimRng::from_seed(5));
    let run = run_threaded(
        make_processes(),
        Box::new(transport),
        Duration::from_secs(8),
    );
    let threaded = PaperMetrics::from_trace(&run.trace);
    audit_keyed(&run.trace, N).assert_ok();

    let mut table = Table::new(
        "E12 — DES vs threaded backend (N = 3, 45 writes)",
        &["backend", "completed", "ALT (ms)", "ATT (ms)"],
    );
    for (backend, metrics) in [("discrete-event", &des), ("threaded", &threaded)] {
        table.row(vec![
            backend.into(),
            metrics.completed.to_string(),
            fmt_ms(metrics.mean_alt_ms()),
            fmt_ms(metrics.mean_att_ms()),
        ]);
    }
    assert_eq!(des.completed, N as u64 * REQUESTS);
    assert!(
        threaded.completed >= (N as u64 * REQUESTS) * 9 / 10,
        "threaded backend lost too many updates: {}",
        threaded.completed
    );
    format!("{}\n", table.render())
}
