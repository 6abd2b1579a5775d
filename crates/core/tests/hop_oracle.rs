//! What crosses the wire on a hop, driven directly: an update-agent
//! runtime and its server state per host, a recording [`Context`]
//! between them. The crash-semantics half of
//! `crates/agent/tests/runtime_sim.rs` is the model — no simulator, so
//! every envelope can be opened and read.

use marp_agent::{AgentEnvelope, AgentId, AgentRuntime};
use marp_core::lt::LockingTable;
use marp_core::{agent_header, wrap_sync, MarpConfig, MarpServerState, NodeMsg, UpdateAgent};
use marp_net::{RoutingTable, Topology};
use marp_replica::{LlSnapshot, ServerConfig, ServerCore, WriteRequest};
use marp_sim::{NodeId, RecordingCtx, SimTime};
use std::time::Duration;

const N: usize = 5;

/// One replica server as the agent runtime sees it.
struct Host {
    state: MarpServerState,
    runtime: AgentRuntime<UpdateAgent>,
    /// Records what the host sends; timers are armed and never fire.
    ctx: RecordingCtx,
}

impl Host {
    fn new(me: NodeId, cfg: &MarpConfig) -> Self {
        let topo = Topology::uniform_lan(N, Duration::from_millis(1));
        Host {
            state: MarpServerState::new(
                ServerCore::keyed(me, ServerConfig::default(), wrap_sync),
                RoutingTable::from_topology(me, &topo),
                cfg,
            ),
            runtime: AgentRuntime::new(cfg.migration, agent_header),
            ctx: RecordingCtx::new(me, SimTime::from_millis(20)),
        }
    }

    fn deliver(&mut self, from: NodeId, mut envelope: AgentEnvelope) {
        self.runtime
            .handle_envelope(from, &mut envelope, &mut self.state, &mut self.ctx);
    }

    /// The agent envelopes this host has sent to `to`, oldest first.
    fn envelopes_to(&self, to: NodeId) -> Vec<AgentEnvelope> {
        self.ctx
            .sent_as()
            .into_iter()
            .filter(|(dest, _)| *dest == to)
            .filter_map(|(_, msg)| match msg {
                NodeMsg::Agent(envelope) => Some(envelope),
                _ => None,
            })
            .collect()
    }
}

fn aid(home: NodeId, seq: u32) -> AgentId {
    AgentId::new(home, SimTime::from_millis(1), seq)
}

fn agent_for(id: AgentId, key: u64, cfg: &MarpConfig) -> UpdateAgent {
    let write = WriteRequest {
        id: u64::from(id.seq) + 1,
        client: 9,
        key,
        value: 3,
        arrived: SimTime::ZERO,
    };
    UpdateAgent::new(None, id, cfg, vec![write])
}

/// The `Migrate` envelope a host has sent to `to`, if any.
fn migration_to(host: &Host, to: NodeId) -> Option<AgentEnvelope> {
    host.envelopes_to(to)
        .into_iter()
        .find(|e| matches!(e, AgentEnvelope::Migrate { .. }))
}

/// Dispatch an agent for `key` at `home` (host 0) and return it as it
/// leaves on its first hop (uniform costs: to host 1).
fn first_hop(home: &mut Host, id: AgentId, key: u64, cfg: &MarpConfig) -> AgentEnvelope {
    home.ctx.sent.clear();
    home.runtime
        .spawn(agent_for(id, key, cfg), &mut home.state, &mut home.ctx);
    migration_to(home, 1).expect("the first hop is to host 1")
}

/// What earlier visitors left about one key: `rival` queued at each of
/// `servers`, as of `version`.
fn board_rows(servers: &[(NodeId, u64)], rival: AgentId) -> LockingTable {
    let mut lt = LockingTable::new();
    for &(server, version) in servers {
        lt.merge(
            server,
            LlSnapshot {
                version,
                taken_at: SimTime::from_millis(version),
                queue: vec![rival],
            },
        );
    }
    lt
}

/// The horizon of the one `MigrateAck` among `envelopes`, as plain
/// `(slot, version)` pairs whatever integer type the slots have.
fn acked_horizon(envelopes: &[AgentEnvelope]) -> Vec<(u64, u64)> {
    let mut acks = envelopes.iter().filter_map(|envelope| match envelope {
        AgentEnvelope::MigrateAck { horizon, .. } => Some(
            horizon
                .iter()
                .map(|(slot, version)| (u64::from(slot), version))
                .collect::<Vec<_>>(),
        ),
        _ => None,
    });
    let horizon = acks.next().expect("an ack");
    assert!(acks.next().is_none(), "exactly one ack");
    horizon
}

#[test]
fn an_arrival_is_acked_with_the_horizon_of_its_own_key_only() {
    let cfg = MarpConfig::new(N);
    let mut host = Host::new(1, &cfg);
    let rival = aid(3, 0);
    // Boards for sixteen keys, four servers each; key 7's versions are
    // its own so a horizon for another key cannot pass for it.
    for key in 0..16u64 {
        let version = if key == 7 { 40 } else { key + 1 };
        let rows: Vec<(NodeId, u64)> = [0, 2, 3, 4].map(|s| (s, version + u64::from(s))).into();
        host.state
            .board
            .exchange(key, &mut board_rows(&rows, rival));
        // The host's own queues have history too: `key + 1` mutations.
        for round in 0..=key {
            let visitor = aid(4, 100 + round as u32);
            host.state.visit(visitor, key, SimTime::from_millis(2), 1);
        }
    }
    let own_version = host.state.core.ll.version(7);
    assert_eq!(own_version, 8);

    let arrival = first_hop(&mut Host::new(0, &cfg), aid(0, 0), 7, &cfg);
    host.deliver(0, arrival);

    let horizon = acked_horizon(&host.envelopes_to(0));
    assert!(
        horizon.len() <= N,
        "one key's horizon names at most n servers, got {} entries",
        horizon.len()
    );
    // Server → version for key 7: the board's rows and the host's own
    // queue as it stood before the arrival appended to it.
    assert_eq!(
        horizon,
        vec![(0, 40), (1, own_version), (2, 42), (3, 43), (4, 44)]
    );
}

/// Host 0 is told, by the ack of its first agent's hop, what host 1
/// holds about `key`; its next agent for `key` leaves for host 1
/// without the rows host 1 already has.
fn rows_shipped_to_a_host_that_advertised(key: u64) -> Vec<NodeId> {
    let cfg = MarpConfig::new(N);
    let rival = aid(3, 0);
    let mut source = Host::new(0, &cfg);
    let mut dest = Host::new(1, &cfg);
    dest.state
        .board
        .exchange(key, &mut board_rows(&[(2, 6), (3, 4)], rival));
    let arrival = first_hop(&mut source, aid(0, 0), key, &cfg);
    dest.deliver(0, arrival);
    let ack = dest
        .envelopes_to(0)
        .into_iter()
        .find(|e| matches!(e, AgentEnvelope::MigrateAck { .. }))
        .expect("the arrival is acked");
    source.deliver(1, ack);
    assert_eq!(source.runtime.in_flight(), 0, "the hop is complete");

    // Host 0's board knows what host 1 knows, and server 4 besides.
    source
        .state
        .board
        .exchange(key, &mut board_rows(&[(2, 6), (3, 4), (4, 2)], rival));
    let departure = first_hop(&mut source, aid(0, 1), key, &cfg);
    let AgentEnvelope::Migrate { state: shipped, .. } = departure else {
        unreachable!("migration_to returns Migrate envelopes");
    };
    let agent: UpdateAgent = marp_wire::from_bytes(&shipped).expect("agent state");
    assert_eq!(agent.key(), key);
    agent.locking_table().iter().map(|(s, _)| s).collect()
}

#[test]
fn a_key_above_two_to_the_48_is_pruned_like_any_other() {
    // Rows 2 and 3 are under host 1's horizon and stay behind; row 0 is
    // host 0's live queue and row 4 is news to host 1.
    assert_eq!(rows_shipped_to_a_host_that_advertised(7), vec![0, 4]);
    assert_eq!(rows_shipped_to_a_host_that_advertised(1 << 50), vec![0, 4]);
}

/// Three servers, each with `rivals` queued on `key` ahead of any
/// newcomer and `unrelated` finished agents of other keys in its
/// Updated List. Server `s` queues them rotated by `s`, so no rival
/// tops a majority: behind one that did, a newcomer enqueued at a
/// majority would park before its last stop.
fn contended_hosts(cfg: &MarpConfig, key: u64, rivals: &[AgentId], unrelated: u32) -> Vec<Host> {
    (0..3)
        .map(|me| {
            let mut host = Host::new(me, cfg);
            let rotated = rivals.iter().cycle().skip(usize::from(me));
            for &rival in rotated.take(rivals.len()) {
                host.state
                    .visit(rival, key, SimTime::from_millis(2), rival.home);
            }
            for seq in 0..unrelated {
                host.state
                    .core
                    .ul
                    .record(aid(1, 1_000 + seq), SimTime::from_millis(3));
            }
            host
        })
        .collect()
}

/// Send `id` on its whole tour 0 → 1 → 2; it ends parked on host 2,
/// behind the rivals everywhere. Returns the hosts as it left them.
fn tour_to_the_last_stop(
    mut hosts: Vec<Host>,
    id: AgentId,
    key: u64,
    cfg: &MarpConfig,
) -> Vec<Host> {
    let hop = first_hop(&mut hosts[0], id, key, cfg);
    hosts[1].deliver(0, hop);
    let hop = migration_to(&hosts[1], 2).expect("the second hop is to host 2");
    hosts[2].deliver(1, hop);
    hosts
}

#[test]
fn an_arrival_reads_only_what_its_table_names_of_the_hosts_updated_list() {
    let cfg = MarpConfig::new(3);
    let key = 7;
    let me = aid(0, 0);
    let rivals = [aid(1, 0), aid(2, 0), aid(1, 1)];

    let quiet = tour_to_the_last_stop(contended_hosts(&cfg, key, &rivals, 0), me, key, &cfg);
    let busy = tour_to_the_last_stop(contended_hosts(&cfg, key, &rivals, 10_000), me, key, &cfg);
    assert_eq!(busy[2].state.core.ul.len(), 10_000);

    let parked = busy[2].runtime.resident(me).expect("parked on host 2");
    assert!(
        parked.ual().len() <= rivals.len() + 1,
        "straight after on_arrive the agent holds {} finished agents; its table names {}",
        parked.ual().len(),
        parked.locking_table().roster().len(),
    );
    // The same Action, hop for hop: the same agent state parked, and the
    // same envelopes, timers and trace left behind on every host.
    assert_eq!(Some(parked), quiet[2].runtime.resident(me));
    for (busy, quiet) in busy.iter().zip(&quiet) {
        assert_eq!(busy.ctx.sent, quiet.ctx.sent);
        assert_eq!(busy.ctx.armed, quiet.ctx.armed);
        assert_eq!(busy.ctx.traced, quiet.ctx.traced);
    }
}

#[test]
fn a_finished_rival_the_table_names_is_learned_from_the_host() {
    let cfg = MarpConfig::new(3);
    let key = 7;
    let me = aid(0, 0);
    let rivals = [aid(1, 0), aid(2, 0)];
    let mut hosts = contended_hosts(&cfg, key, &rivals, 100);
    // Host 2 saw the first rival's COMMIT; its queue entry there is
    // gone, but the rows carried from hosts 0 and 1 still name it.
    let finished_at = SimTime::from_millis(9);
    hosts[2].state.core.ll.remove(key, rivals[0]);
    hosts[2].state.core.ul.record(rivals[0], finished_at);

    let hosts = tour_to_the_last_stop(hosts, me, key, &cfg);
    let parked = hosts[2].runtime.resident(me).expect("parked on host 2");
    assert_eq!(parked.ual().agents().collect::<Vec<_>>(), [rivals[0]]);
}

#[test]
fn a_clone_listed_only_in_the_hosts_updated_list_is_disposed() {
    let cfg = MarpConfig::new(3);
    let key = 7;
    let me = aid(0, 0);
    let mut hosts = contended_hosts(&cfg, key, &[aid(1, 0)], 10);
    // "It" already committed as far as host 1 knows; the copy arriving
    // now carries an empty UAL.
    hosts[1].state.core.ul.record(me, SimTime::from_millis(4));
    let hop = first_hop(&mut hosts[0], me, key, &cfg);
    hosts[1].deliver(0, hop);

    assert!(hosts[1].runtime.resident(me).is_none());
    assert!(
        migration_to(&hosts[1], 2).is_none(),
        "a zombie travels no further"
    );
    let disposed = hosts[1].ctx.traced.iter().any(|event| {
        matches!(
            event,
            marp_sim::TraceEvent::Custom {
                kind: marp_sim::trace::ZOMBIE_CLONE_DISPOSED,
                ..
            }
        )
    });
    assert!(disposed, "traced: {:?}", hosts[1].ctx.traced);
}
