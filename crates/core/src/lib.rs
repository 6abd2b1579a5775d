//! **MARP** — Mobile Agent enabled Replication Protocols.
//!
//! Rust reproduction of the consistent replication protocol from
//! *"Achieving Replication Consistency Using Cooperating Mobile
//! Agents"* (J. Cao, A.T.S. Chan, J. Wu; ICPP 2001). One mobile agent is
//! dispatched per batch of client writes; it travels the replica set
//! appending itself to per-server Locking Lists, accumulates a Locking
//! Table of everything it has seen, wins the distributed lock when it is
//! top of a strict majority of Locking Lists (with deterministic
//! identifier-based resolution of provably stuck configurations), then
//! broadcasts `UPDATE`, collects a majority of acknowledgements, and
//! broadcasts `COMMIT`. Reads are served from the local replica.
//!
//! Module map:
//!
//! * [`lt`] — the Locking Table and the priority calculation
//!   (Algorithm 1's decision core; Theorems 1–2 territory).
//! * [`UpdateAgent`] — the travelling agent behaviour (Algorithm 1).
//! * [`MarpServerState`] — server-side handlers (Algorithm 2) plus the
//!   validation/reservation refinement documented in `DESIGN.md`.
//! * [`MarpNode`] — the full replica node [`marp_sim::Process`]:
//!   batching, agent hosting, protocol message dispatch, maintenance,
//!   crash recovery.
//! * [`GossipBoard`] — §3.3's information sharing between agents.
//!
//! # Quick start
//!
//! ```
//! use marp_core::{build_cluster, MarpConfig};
//! use marp_net::{LinkModel, SimTransport, Topology};
//! use marp_replica::{ClientProcess, Operation, ScriptedSource};
//! use marp_sim::{SimRng, SimTime, Simulation, TraceLevel};
//! use std::time::Duration;
//!
//! let n = 3;
//! let topo = Topology::uniform_lan(n + 1, Duration::from_millis(2));
//! let transport = SimTransport::new(topo.clone(), LinkModel::ideal(), SimRng::from_seed(7));
//! let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
//! build_cluster(&mut sim, &MarpConfig::new(n), &topo);
//! // One client writing once through server 0.
//! let source = ScriptedSource::new([(Duration::from_millis(1), Operation::Write { key: 1, value: 42 })]);
//! sim.add_process(Box::new(ClientProcess::new(
//!     0,
//!     Box::new(source),
//!     marp_core::wrap_client_request,
//! )));
//! sim.run_until(SimTime::from_secs(2));
//! // All three replicas applied the write.
//! for server in 0..n as u16 {
//!     let node = sim.process::<marp_core::MarpNode>(server).unwrap();
//!     assert_eq!(node.state().core.store.get(1).unwrap().value, 42);
//! }
//! ```

#![warn(missing_docs)]
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod agent;
mod config;
mod gossip;
mod host;
pub mod lt;
mod msg;
mod node;
mod read_agent;

pub use agent::{Phase, UpdateAgent};
pub use config::MarpConfig;
pub use gossip::GossipBoard;
pub use host::{ClaimAnswer, CommitOutcome, MarpServerState};
pub use msg::{
    agent_header, read_agent_header, wire_tag_name, wrap_agent_envelope, wrap_client_request,
    wrap_sync, AgentReply, CommitMsg, NodeMsg, UpdateMsg, WIRE_TAG_SYNC,
};
pub use node::{MailCounters, MarpNode};
pub use read_agent::ReadAgent;

use marp_net::{RoutingTable, Topology};
use marp_sim::{NodeId, Simulation};

/// Add `cfg.n_servers` MARP replica nodes to a simulation, with routing
/// tables derived from `topo`. Servers occupy node ids `0..n_servers`;
/// add clients afterwards. Returns the server node ids.
pub fn build_cluster(sim: &mut Simulation, cfg: &MarpConfig, topo: &Topology) -> Vec<NodeId> {
    assert!(
        topo.len() >= cfg.n_servers,
        "topology smaller than the server count"
    );
    (0..cfg.n_servers as NodeId)
        .map(|me| {
            let routing = RoutingTable::from_topology(me, topo);
            sim.add_process(Box::new(MarpNode::new(me, *cfg, routing)))
        })
        .collect()
}
