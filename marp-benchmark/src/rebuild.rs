//! Rebuild a benchmark scenario's simulation from the product's public
//! constructors — the same topology, transport, cluster, clients and
//! fault schedule `marp_lab::run_scenario` assembles behind its private
//! helpers — so the benchmark can time construction on its own
//! (`setup_s`) and slip timing wrappers around every process and the
//! transport (the traced run). The transparency check holds this copy to
//! `run_scenario`'s exact event, message and byte counts.

use crate::trace::Tracer;
use marp_baselines::{wrap_mcv_client_request, McvConfig, McvNode};
use marp_core::{wrap_client_request as wrap_marp_client_request, MarpConfig, MarpNode};
use marp_lab::{LinkKind, ProtocolKind, Scenario, TopologyKind};
use marp_net::{LinkModel, RoutingTable, SimTransport, Topology};
use marp_replica::{ClientProcess, ClientWrapFn};
use marp_sim::{NodeId, Process, SimRng, SimTime, Simulation, TraceLevel, Transport};
use marp_workload::{ArrivalProcess, OpMix, WorkloadSource};
use std::time::Duration;

/// A constructed, not yet started, simulation.
pub struct Built {
    /// The simulation: servers are nodes `0..n`, clients follow.
    pub sim: Simulation,
    /// Client node ids.
    pub clients: Vec<NodeId>,
    /// Virtual time to run to.
    pub horizon: SimTime,
}

/// Servers on a uniform LAN, client `k` 0.1 ms from server `k % n`.
fn topology(n: usize, clients: usize, latency_ms: f64) -> Topology {
    let servers = Topology::uniform_lan(n, Duration::from_micros((latency_ms * 1e3) as u64));
    let near = Duration::from_micros(100);
    let total = n + clients;
    let server_of = |node: usize| if node < n { node } else { (node - n) % n };
    let mut lat = Vec::with_capacity(total * total);
    for a in 0..total {
        for b in 0..total {
            let mut base = servers.latency(server_of(a) as NodeId, server_of(b) as NodeId);
            if a >= n {
                base += near;
            }
            if b >= n {
                base += near;
            }
            lat.push(if a == b {
                Duration::ZERO
            } else if base.is_zero() {
                near
            } else {
                base
            });
        }
    }
    Topology::from_matrix(total, lat)
}

/// Build `scenario`'s simulation; with a tracer, every process and the
/// transport are wrapped in its timing shims.
///
/// # Panics
/// On a scenario shape no benchmark workload uses (non-LAN topology,
/// bursty arrivals, a protocol other than MARP or MCV): this is the
/// benchmark's builder, not a second `run_scenario`.
pub fn build(scenario: &Scenario, tracer: Option<&Tracer>) -> Built {
    let n = scenario.n_servers;
    let n_clients = n * scenario.clients_per_server;
    let TopologyKind::Lan { latency_ms } = scenario.topology else {
        panic!("benchmark workloads run on the LAN topology");
    };
    assert!(
        !scenario.bursty,
        "benchmark workloads use exponential arrivals"
    );
    let topo = topology(n, n_clients, latency_ms);
    let link = match scenario.link {
        LinkKind::Ideal => LinkModel::ideal(),
        LinkKind::Lan1990s => LinkModel::lan_1990s(),
        LinkKind::Wan => LinkModel::wan(),
    };
    let mut transport = SimTransport::new(
        topo.clone(),
        link,
        SimRng::derive(scenario.seed, "link-jitter"),
    );
    if let Some(plan) = &scenario.faults {
        transport = transport.with_schedule(plan.net_schedule());
    }
    let transport: Box<dyn Transport> = match tracer {
        Some(t) => t.wrap_transport(Box::new(transport)),
        None => Box::new(transport),
    };
    let mut sim = Simulation::new(transport, TraceLevel::Protocol);
    let add = |sim: &mut Simulation, process: Box<dyn Process>| -> NodeId {
        let node = sim.node_count() as NodeId;
        sim.add_process(match tracer {
            Some(t) => t.wrap_process(node, process),
            None => process,
        })
    };

    let max_latency = topo.max_latency();
    let client_wrap: ClientWrapFn = match &scenario.protocol {
        ProtocolKind::Marp {
            gossip,
            itinerary,
            batch_max,
        } => {
            let mut cfg = MarpConfig::new(n).scaled_to_latency(max_latency);
            cfg.gossip = *gossip;
            cfg.itinerary = *itinerary;
            cfg.batch.max_batch = *batch_max;
            cfg.adaptive_batching = scenario.adaptive_batching;
            cfg.lt_delta = scenario.lt_delta;
            cfg.regeneration = scenario.regeneration;
            for me in 0..n as NodeId {
                let routing = RoutingTable::from_topology(me, &topo);
                add(&mut sim, Box::new(MarpNode::new(me, cfg, routing)));
            }
            wrap_marp_client_request
        }
        ProtocolKind::Mcv => {
            let cfg = McvConfig::new(n).scaled_to_latency(max_latency);
            for me in 0..n as NodeId {
                add(&mut sim, Box::new(McvNode::new(me, cfg)));
            }
            wrap_mcv_client_request
        }
        other => panic!("no benchmark workload runs {}", other.label()),
    };

    let arrival = ArrivalProcess::Exponential {
        mean_ms: scenario.mean_interarrival_ms,
    };
    let mix = OpMix::new(scenario.write_fraction, scenario.keys.clone())
        .with_fresh_reads(scenario.fresh_reads);
    let mut clients = Vec::with_capacity(n_clients);
    for k in 0..n_clients {
        let source = WorkloadSource::new(
            &arrival,
            &mix,
            scenario.requests_per_client,
            marp_sim::splitmix64(scenario.seed ^ (k as u64 + 0x1234)),
        );
        let mut process = ClientProcess::new((k % n) as NodeId, Box::new(source), client_wrap);
        if let Some((timeout, max_attempts)) = scenario.client_retry {
            process = process.with_retry(timeout, max_attempts);
        }
        clients.push(add(&mut sim, Box::new(process)));
    }

    if let Some(plan) = &scenario.faults {
        plan.schedule_controls(&mut sim);
    }

    let horizon = scenario.horizon.unwrap_or_else(|| {
        let workload_ms = scenario.mean_interarrival_ms * scenario.requests_per_client as f64;
        Duration::from_millis((workload_ms * 4.0 + 60_000.0).min(30_000_000.0) as u64)
    });
    Built {
        sim,
        clients,
        horizon: SimTime::ZERO + horizon,
    }
}
