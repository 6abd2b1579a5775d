//! The sans-io claim, proven across protocols: the very same MCV and
//! MARP node state machines that run under the deterministic engine run
//! unmodified under real OS threads.

use marp_baselines::{wrap_mcv_client_request, McvConfig, McvNode};
use marp_metrics::PaperMetrics;
use marp_net::{LinkModel, SimTransport, Topology};
use marp_replica::{ClientProcess, Operation, ScriptedSource};
use marp_sim::{Process, SimRng};
use marp_threaded::{run_threaded, ThreadedConfig};
use std::time::Duration;

#[test]
fn mcv_commits_under_real_threads() {
    let n = 3usize;
    let topo = Topology::uniform_lan(n + 1, Duration::from_millis(1));
    let mut processes: Vec<Box<dyn Process>> = Vec::new();
    for me in 0..n as u16 {
        processes.push(Box::new(McvNode::new(me, McvConfig::new(n))));
    }
    let script: Vec<(Duration, Operation)> = (0..6)
        .map(|i| {
            (
                Duration::from_millis(20),
                Operation::Write { key: 1, value: i },
            )
        })
        .collect();
    processes.push(Box::new(ClientProcess::new(
        0,
        Box::new(ScriptedSource::new(script)),
        wrap_mcv_client_request,
    )));

    let transport = SimTransport::new(topo, LinkModel::ideal(), SimRng::from_seed(3));
    let run = run_threaded(
        processes,
        Box::new(transport),
        Duration::from_secs(4),
        ThreadedConfig { speed: 4.0 },
    );
    let metrics = PaperMetrics::from_trace(&run.trace);
    assert!(
        metrics.completed >= 5,
        "only {} of 6 writes completed under threads",
        metrics.completed
    );
    // All replicas converged to a common prefix.
    let logs: Vec<Vec<u64>> = (0..n as u16)
        .map(|s| {
            run.process::<McvNode>(s)
                .unwrap()
                .core
                .store
                .log()
                .iter()
                .map(|r| r.version)
                .collect()
        })
        .collect();
    let longest = logs.iter().map(|l| l.len()).max().unwrap();
    let reference = logs.iter().find(|l| l.len() == longest).unwrap();
    for log in &logs {
        assert_eq!(&reference[..log.len()], log.as_slice());
    }
}

#[test]
fn workload_sources_drive_threaded_clients() {
    use marp_workload::WorkloadSource;
    let n = 3usize;
    let topo = Topology::uniform_lan(n + 1, Duration::from_millis(1));
    let mut processes: Vec<Box<dyn Process>> = Vec::new();
    for me in 0..n as u16 {
        processes.push(Box::new(McvNode::new(me, McvConfig::new(n))));
    }
    processes.push(Box::new(ClientProcess::new(
        1,
        Box::new(WorkloadSource::paper_writes(25.0, 8, 77)),
        wrap_mcv_client_request,
    )));
    let transport = SimTransport::new(topo, LinkModel::ideal(), SimRng::from_seed(5));
    let run = run_threaded(
        processes,
        Box::new(transport),
        Duration::from_secs(4),
        ThreadedConfig { speed: 4.0 },
    );
    let metrics = PaperMetrics::from_trace(&run.trace);
    assert!(
        metrics.writes_arrived >= 7,
        "arrived {}",
        metrics.writes_arrived
    );
    assert!(metrics.completed >= 7, "completed {}", metrics.completed);
}
