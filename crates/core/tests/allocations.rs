//! What an arrival, a decision and a visit ask of the allocator once
//! the buffers they reuse are warm: an arriving agent decodes into the
//! behaviour an earlier agent left behind, `decide` tallies on the
//! stack, and a visit reads the Locking List where it lies.

use marp_agent::{AgentEnvelope, AgentId, AgentRuntime};
use marp_core::lt::{decide, LockingTable, Priority};
use marp_core::{
    wrap_agent_envelope, wrap_sync, MarpConfig, MarpServerState, NodeMsg, UpdateAgent,
};
use marp_net::{RoutingTable, Topology};
use marp_replica::{LlSnapshot, ServerConfig, ServerCore, UpdatedList, WriteRequest};
use marp_sim::{NodeId, RecordingCtx, SimTime};
use std::time::Duration;

#[path = "../../../tests/support/noting_alloc.rs"]
mod noting_alloc;

const N: usize = 3;

/// One replica server as the agent runtime sees it.
struct Host {
    state: MarpServerState,
    runtime: AgentRuntime<UpdateAgent>,
    ctx: RecordingCtx,
}

impl Host {
    /// Server `me`, with a rival queued ahead of any newcomer on keys 1
    /// and 2: agents for either key travel the whole itinerary.
    fn new(me: NodeId, cfg: &MarpConfig) -> Self {
        let topo = Topology::uniform_lan(N, Duration::from_millis(1));
        let mut host = Host {
            state: MarpServerState::new(
                ServerCore::keyed(me, ServerConfig::default(), wrap_sync),
                RoutingTable::from_topology(me, &topo),
                cfg,
            ),
            runtime: AgentRuntime::new(cfg.migration, wrap_agent_envelope),
            ctx: RecordingCtx::new(me, SimTime::from_millis(20)),
        };
        for key in [1, 2] {
            let rival = aid(1, 100 + key as u32);
            host.state.visit(rival, key, SimTime::from_millis(2), 1);
        }
        host
    }

    /// Deliver `envelope`; returns the allocations that took.
    fn deliver(&mut self, from: NodeId, envelope: AgentEnvelope) -> usize {
        let (state, runtime, ctx) = (&mut self.state, &mut self.runtime, &mut self.ctx);
        let ((), requests, _) = noting_alloc::requests_during(|| {
            runtime.handle_envelope(from, envelope, state, ctx);
        });
        requests
    }

    /// The last agent envelope this host sent to `to` that `pick` takes.
    fn sent_to(&self, to: NodeId, pick: fn(&AgentEnvelope) -> bool) -> AgentEnvelope {
        let sent = self.ctx.sent_as::<NodeMsg>().into_iter().rev();
        let mut envelopes = sent.filter_map(|(dest, msg)| match msg {
            NodeMsg::Agent(envelope) if dest == to && pick(&envelope) => Some(envelope),
            _ => None,
        });
        envelopes.next().expect("an envelope")
    }
}

fn aid(home: NodeId, seq: u32) -> AgentId {
    AgentId::new(home, SimTime::from_millis(1), seq)
}

fn is_migrate(envelope: &AgentEnvelope) -> bool {
    matches!(envelope, AgentEnvelope::Migrate { .. })
}

fn is_ack(envelope: &AgentEnvelope) -> bool {
    matches!(envelope, AgentEnvelope::MigrateAck { .. })
}

/// Dispatch an agent for `key` at host 0; it leaves for host 1.
fn dispatch(home: &mut Host, seq: u32, key: u64, cfg: &MarpConfig) -> AgentEnvelope {
    let write = WriteRequest {
        id: u64::from(seq),
        client: 9,
        key,
        value: 3,
        arrived: SimTime::ZERO,
    };
    let agent = UpdateAgent::new(aid(0, seq), cfg, vec![write]);
    home.runtime.spawn(agent, &mut home.state, &mut home.ctx);
    home.sent_to(1, is_migrate)
}

/// The agent state a migration carries.
fn state(envelope: &AgentEnvelope) -> &bytes::Bytes {
    let AgentEnvelope::Migrate { state, .. } = envelope else {
        panic!("not a migration: {envelope:?}");
    };
    state
}

/// Host 1 after hosting an agent for key 1 on its way from host 0 to
/// host 2, that hop acked — or, with `acked` false, acked for another
/// hop, so the agent stays in flight. Returns host 1, what arrives next
/// (an agent for key 2, of the first one's shape), and the first
/// agent's state as it arrived.
fn host_after_a_hop(acked: bool) -> (Host, AgentEnvelope, bytes::Bytes) {
    let cfg = MarpConfig::new(N);
    let mut home = Host::new(0, &cfg);
    let mut host = Host::new(1, &cfg);
    let first = dispatch(&mut home, 1, 1, &cfg);
    let first_state = state(&first).clone();
    host.deliver(0, first);
    let departed = host.sent_to(2, is_migrate);
    let AgentEnvelope::Migrate { agent, hop, .. } = departed else {
        unreachable!("sent_to picked a migration");
    };
    let mut next_hop = Host::new(2, &cfg);
    next_hop.deliver(1, departed);
    let AgentEnvelope::MigrateAck { horizon, .. } = next_hop.sent_to(1, is_ack) else {
        unreachable!("sent_to picked an ack");
    };
    let hop = if acked { hop } else { hop + 1 };
    host.deliver(
        2,
        AgentEnvelope::MigrateAck {
            agent,
            hop,
            horizon,
        },
    );
    let next = dispatch(&mut home, 2, 2, &cfg);
    (host, next, first_state)
}

#[test]
fn an_arrival_decodes_into_an_agent_of_its_shape_without_allocating() {
    let (_, next, first) = host_after_a_hop(true);
    let mut spare: UpdateAgent = marp_wire::from_bytes(&first).expect("agent state");
    let fresh: UpdateAgent = marp_wire::from_bytes(state(&next)).expect("agent state");
    assert_ne!(spare, fresh);
    let (decoded, requests, _) =
        noting_alloc::requests_during(|| marp_wire::from_bytes_into(&mut spare, state(&next)));
    assert_eq!(decoded, Ok(()));
    assert_eq!(spare, fresh);
    assert_eq!(requests, 0);
}

/// The agent a runtime acked away is the one the next arrival decodes
/// into: hosting that arrival saves at least every allocation a fresh
/// decode of its state makes.
#[test]
fn a_runtime_decodes_the_next_arrival_into_the_agent_it_acked_away() {
    let (mut warm, next, _) = host_after_a_hop(true);
    let (mut cold, same, _) = host_after_a_hop(false);
    assert_eq!(next, same);
    assert_eq!(warm.runtime.in_flight(), 0);
    assert_eq!(cold.runtime.in_flight(), 1, "the other hop's ack");
    let (_, fresh_decode, _) =
        noting_alloc::requests_during(|| marp_wire::from_bytes::<UpdateAgent>(state(&next)));
    assert!(fresh_decode > 0);

    let hosted = warm.deliver(0, next);
    let hosted_cold = cold.deliver(0, same);
    assert_eq!(warm.ctx.sent, cold.ctx.sent);
    assert!(
        hosted + fresh_decode <= hosted_cold,
        "{hosted} allocations with a spare, {hosted_cold} without; a fresh decode makes {fresh_decode}"
    );
}

fn agent(i: u32) -> AgentId {
    AgentId::new((i % 7) as NodeId, SimTime::from_millis(u64::from(i)), i)
}

/// A convoy at N = 9: 58 agents, each queued at five of the nine
/// servers, so every queue is 30 to 34 deep; the first `finished` have
/// committed.
fn convoy(finished: u32) -> (LockingTable, UpdatedList) {
    let mut lt = LockingTable::new();
    for server in 0..9u32 {
        let queue = (0..58).filter(|i| (server + 9 - i % 9) % 9 < 5).map(agent);
        let snapshot = LlSnapshot {
            version: 1,
            taken_at: SimTime::from_millis(1),
            queue: queue.collect(),
        };
        lt.merge(server as NodeId, snapshot);
    }
    let mut done = UpdatedList::new();
    for i in 0..finished {
        done.record(agent(i), SimTime::ZERO);
    }
    (lt, done)
}

/// Every verdict but a tie win, whose certificate is its own vector.
#[test]
fn deciding_on_a_convoy_table_allocates_nothing() {
    let mut decided = 0;
    for finished in [0, 24, 43] {
        let (lt, done) = convoy(finished);
        for me in (0..58).map(agent) {
            let (priority, requests, _) =
                noting_alloc::requests_during(|| decide(&lt, me, 9, &done, &[]));
            if !matches!(priority, Priority::Win { via_tie: true, .. }) {
                assert_eq!(requests, 0, "{finished} finished, deciding for {me:?}");
                decided += 1;
            }
        }
    }
    assert!(decided > 100);
}

/// A repeat visit refreshes the lease in place, and the visitor reads
/// the queue into the row its table already holds.
#[test]
fn a_visit_that_does_not_grow_the_queue_allocates_nothing() {
    let cfg = MarpConfig::new(N);
    let mut host = Host::new(0, &cfg);
    let me = aid(2, 7);
    let mut lt = LockingTable::new();
    let mut visit = |at: u64| {
        let now = SimTime::from_millis(at);
        host.state.visit(me, 1, now, 2);
        let (version, queue) = host.state.core.ll.queue(1);
        lt.offer_row(0, version, now, queue);
    };
    visit(3);
    let ((), requests, _) = noting_alloc::requests_during(|| visit(4));
    assert_eq!(requests, 0);
    assert_eq!(lt.known_servers(), 1);
    assert_eq!(lt.roster().len(), 2);
}
