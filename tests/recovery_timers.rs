//! A recovered server re-arms its timers. A crash drops every timer the
//! node had armed, so a process with a maintenance cycle must arm it
//! again in `on_recover`; one that forgets never pulls a missed write
//! or flushes a batch again.

use marp_repro::baselines::{McvConfig, McvNode, PcConfig, PcNode};
use marp_repro::core::{build_cluster, MarpConfig};
use marp_repro::net::{LinkModel, SimTransport, Topology};
use marp_repro::sim::{Control, PendingKind, Process, SimRng, SimTime, Simulation, TraceLevel};
use std::time::Duration;

fn cluster(protocol: &str) -> Simulation {
    let topo = Topology::uniform_lan(3, Duration::from_millis(1));
    let transport = SimTransport::new(topo.clone(), LinkModel::ideal(), SimRng::from_seed(1));
    let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
    if protocol == "MARP" {
        build_cluster(&mut sim, &MarpConfig::new(3), &topo);
        return sim;
    }
    for me in 0..3 {
        let node: Box<dyn Process> = match protocol {
            "MCV" => Box::new(McvNode::new(me, McvConfig::new(3))),
            _ => Box::new(PcNode::new(me, PcConfig::new(3))),
        };
        sim.add_process(node);
    }
    sim
}

fn live_timers(sim: &mut Simulation, of: u16) -> usize {
    let pending = sim.pending_events();
    pending
        .iter()
        .filter(|e| matches!(e.kind, PendingKind::Timer { node, .. } if node == of))
        .count()
}

#[test]
fn a_recovered_server_re_arms_its_timers() {
    for protocol in ["MARP", "MCV", "PC"] {
        let mut sim = cluster(protocol);
        sim.run_until(SimTime::from_millis(5));
        assert!(live_timers(&mut sim, 1) > 0, "{protocol}: armed at start");
        sim.apply_control_now(Control::SetNodeUp { node: 1, up: false });
        assert_eq!(
            live_timers(&mut sim, 1),
            0,
            "{protocol}: a crash drops them"
        );
        sim.apply_control_now(Control::SetNodeUp { node: 1, up: true });
        assert!(
            live_timers(&mut sim, 1) > 0,
            "{protocol}: re-armed on recovery"
        );
    }
}
