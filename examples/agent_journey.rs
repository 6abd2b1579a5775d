//! Follow one mobile agent's journey under contention.
//!
//! Three servers dispatch update agents at nearly the same instant, so
//! they race for the distributed lock. The example replays the trace as
//! a narrated journey per agent: lock requests appended to Locking
//! Lists, migrations, a win (possibly via the tie rule), the
//! UPDATE/ACK/COMMIT round, and disposal — Algorithm 1, step by step.
//!
//! Run with: `cargo run --example agent_journey`
//!
//! Pass `--trace-out run.bin` to record the run for `marp-trace`
//! (export, journey, metrics, critical-path, ...).

use marp_core::{build_cluster, wrap_client_request, MarpConfig};
use marp_metrics::audit;
use marp_net::{LinkModel, SimTransport, Topology};
use marp_replica::{ClientProcess, Operation, ScriptedSource};
use marp_sim::{SimRng, SimTime, Simulation, TraceLevel};
use std::time::Duration;

fn main() {
    let obs = marp_lab::ObsOptions::from_env();
    let n = 5usize;
    let writers = 3usize;
    let topo = Topology::uniform_lan(n + writers, Duration::from_millis(2));
    let transport = SimTransport::new(topo.clone(), LinkModel::ideal(), SimRng::from_seed(11));
    let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
    build_cluster(&mut sim, &MarpConfig::new(n), &topo);
    // Three near-simultaneous writers on different home servers.
    for w in 0..writers {
        let script = ScriptedSource::new([(
            Duration::from_millis(1 + w as u64), // 1, 2, 3 ms apart
            Operation::Write {
                key: 7,
                value: 100 + w as u64,
            },
        )]);
        sim.add_process(Box::new(ClientProcess::new(
            w as u16,
            Box::new(script),
            wrap_client_request,
        )));
    }
    sim.run_until(SimTime::from_secs(5));

    // One narrated timeline per agent: dispatch, Locking-List entries,
    // migrations, the win, the UPDATE round and disposal.
    print!("{}", marp_obs::Journeys::from_trace(sim.trace()).render());

    audit(sim.trace(), n).assert_ok();
    println!(
        "All three updates serialized into one global order (audit clean).\n\
         Note how losers park after visiting every server and win later,\n\
         notified when the previous winner's COMMIT removed its lock entries."
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
