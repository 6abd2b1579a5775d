//! Quickstart: a 5-replica MARP cluster serving one client.
//!
//! Builds the paper's system — five agent-enabled replica servers on a
//! LAN — sends a handful of writes and reads through it, and prints the
//! protocol timeline an update agent produces.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Pass `--trace-out run.bin` to record the run for `marp-trace`
//! (export, journey, metrics, critical-path, ...).

use marp_core::{build_cluster, wrap_client_request, MarpConfig, MarpNode};
use marp_metrics::{audit_keyed, PaperMetrics};
use marp_net::{LinkModel, SimTransport, Topology};
use marp_replica::{ClientProcess, Operation, ScriptedSource};
use marp_sim::{SimRng, SimTime, Simulation, TraceLevel};
use std::time::Duration;

fn main() {
    let obs = marp_lab::ObsOptions::from_env();
    let n = 5;
    // One extra node for the client.
    let topo = Topology::uniform_lan(n + 1, Duration::from_millis(2));
    let transport = SimTransport::new(topo.clone(), LinkModel::lan_1990s(), SimRng::from_seed(42));
    let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);

    // The replicated servers (nodes 0..5).
    let cfg = MarpConfig::new(n);
    build_cluster(&mut sim, &cfg, &topo);

    // A client attached to server 0: three writes, then a read.
    let script = ScriptedSource::new([
        (
            Duration::from_millis(5),
            Operation::Write { key: 1, value: 10 },
        ),
        (
            Duration::from_millis(5),
            Operation::Write { key: 2, value: 20 },
        ),
        (
            Duration::from_millis(5),
            Operation::Write { key: 1, value: 11 },
        ),
        (Duration::from_millis(200), Operation::Read { key: 1 }),
    ]);
    let client = sim.add_process(Box::new(ClientProcess::new(
        0,
        Box::new(script),
        wrap_client_request,
    )));

    sim.run_until(SimTime::from_secs(5));

    // --- What happened? ---
    println!("=== protocol timeline (per agent) ===");
    print!("{}", marp_obs::Journeys::from_trace(sim.trace()).render());

    // Every replica holds the same data, at the same version of each
    // key (each key's commits are numbered on its own chain).
    println!("=== final replica state ===");
    let mut versions = None;
    for server in 0..n as u16 {
        let node = sim.process::<MarpNode>(server).unwrap();
        let store = &node.state().core.store;
        let held = [1, 2].map(|key| store.applied_version_for(key));
        println!(
            "server {server}: key1={:?} (version {})  key2={:?} (version {})",
            store.get(1).map(|s| s.value),
            held[0],
            store.get(2).map(|s| s.value),
            held[1],
        );
        assert_eq!(store.get(1).map(|s| s.value), Some(11));
        assert_eq!(store.get(2).map(|s| s.value), Some(20));
        assert_eq!(*versions.get_or_insert(held), held, "server {server}");
    }
    assert_eq!(versions, Some([2, 1]), "two writes to key 1, one to key 2");

    // Client-side view.
    let client_proc = sim.process::<ClientProcess>(client).unwrap();
    println!("\n=== client view ===");
    println!(
        "writes completed: {} (mean {:.2} ms) — read latency {:.2} ms (local read)",
        client_proc.stats.write_latencies.len(),
        client_proc.stats.mean_write_ms().unwrap(),
        client_proc.stats.mean_read_ms().unwrap(),
    );

    // Machine-checked consistency.
    let metrics = PaperMetrics::from_trace(sim.trace());
    let report = audit_keyed(sim.trace(), n);
    report.assert_ok();
    println!(
        "\naudit: clean ({} versions committed, {} lock grants, ALT {:.2} ms, ATT {:.2} ms)",
        report.committed_versions,
        report.lock_grants,
        metrics.mean_alt_ms().unwrap(),
        metrics.mean_att_ms().unwrap(),
    );

    match obs.write(sim.trace()) {
        Ok(Some(line)) => eprintln!("{line}"),
        Ok(None) => {}
        Err(err) => eprintln!("trace output failed: {err}"),
    }
}

#[test]
fn runs() {
    main();
}
