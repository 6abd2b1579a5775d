//! End-to-end tests of the agent runtime running under the discrete-event
//! simulator: migration, retries, unavailability, agent messaging, and
//! agent timers.

use bytes::Bytes;
use marp_agent::{
    Action, AgentBehavior, AgentConfig, AgentEnv, AgentEnvelope, AgentId, AgentRuntime,
};
use marp_net::{LinkModel, SimTransport, Topology};
use marp_sim::{
    impl_as_any, Context, Control, NodeId, Process, RecordingCtx, SimRng, SimTime, Simulation,
    TimerId, TraceEvent, TraceLevel,
};
use std::collections::BTreeMap;
use std::time::Duration;

/// A toy agent that walks a fixed itinerary, stamping each host's
/// guestbook, then disposes.
#[derive(Debug, Clone, PartialEq)]
struct Hopper {
    id: AgentId,
    route: Vec<NodeId>,
    stamped: Vec<NodeId>,
    skipped: Vec<NodeId>,
}

marp_wire::wire_struct!(Hopper {
    id,
    route,
    stamped,
    skipped
});

/// Host-side state the agent interacts with locally.
#[derive(Debug, Default)]
struct GuestBook {
    stamps: Vec<u64>,
    pokes: Vec<Bytes>,
    /// What acking peers said they knew, as `(peer, horizon)`.
    advertised: Vec<(NodeId, BTreeMap<NodeId, u64>)>,
}

impl Hopper {
    fn next_action(&mut self, env: &mut AgentEnv<'_>) -> Action {
        match self.route.first().copied() {
            Some(next) if next == env.here() => {
                self.route.remove(0);
                self.next_action(env)
            }
            Some(next) => Action::Migrate(next),
            None => Action::Dispose,
        }
    }
}

impl AgentBehavior for Hopper {
    type Host = GuestBook;

    fn id(&self) -> AgentId {
        self.id
    }

    fn on_arrive(&mut self, host: &mut GuestBook, env: &mut AgentEnv<'_>) -> Action {
        host.stamps.push(self.id.key());
        self.stamped.push(env.here());
        self.next_action(env)
    }

    fn on_agent_message(
        &mut self,
        _from: NodeId,
        payload: Bytes,
        host: &mut GuestBook,
        _env: &mut AgentEnv<'_>,
    ) -> Action {
        host.pokes.push(payload);
        Action::Stay
    }

    fn on_migrate_failed(
        &mut self,
        dest: NodeId,
        _attempts: u32,
        _host: &mut GuestBook,
        env: &mut AgentEnv<'_>,
    ) -> Action {
        self.skipped.push(dest);
        self.route.retain(|&n| n != dest);
        self.next_action(env)
    }

    /// A guest book's "horizon": how many stamps it holds, filed under
    /// the arriving agent's home.
    fn host_horizon(&self, host: &GuestBook) -> BTreeMap<NodeId, u64> {
        BTreeMap::from([(self.id.home, host.stamps.len() as u64)])
    }

    fn record_peer_horizon(
        &self,
        host: &mut GuestBook,
        peer: NodeId,
        horizon: BTreeMap<NodeId, u64>,
    ) {
        host.advertised.push((peer, horizon));
    }
}

/// Owner process: a guest-book host embedding the agent runtime. Its
/// wire message space is just `AgentEnvelope`.
struct HostNode {
    book: GuestBook,
    runtime: AgentRuntime<Hopper>,
}

fn wrap(envelope: AgentEnvelope) -> Bytes {
    marp_wire::to_bytes(&envelope)
}

impl HostNode {
    fn new(cfg: AgentConfig) -> Self {
        HostNode {
            book: GuestBook::default(),
            runtime: AgentRuntime::new(cfg, wrap),
        }
    }
}

impl Process for HostNode {
    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        let envelope: AgentEnvelope = marp_wire::from_bytes(&msg).expect("valid envelope");
        self.runtime
            .handle_envelope(from, envelope, &mut self.book, ctx);
    }
    fn on_timer(&mut self, timer: TimerId, _tag: u64, ctx: &mut dyn Context) {
        let consumed = self.runtime.handle_timer(timer, &mut self.book, ctx);
        assert!(consumed, "host armed no timers of its own");
    }
    fn on_recover(&mut self, _ctx: &mut dyn Context) {
        self.runtime.clear_volatile();
    }
    impl_as_any!();
}

/// A spawner process that creates the hopper at time zero on node 0.
struct Spawner {
    inner: HostNode,
    route: Vec<NodeId>,
}

impl Process for Spawner {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        let hopper = Hopper {
            id: AgentId::new(ctx.me(), ctx.now(), 0),
            route: self.route.clone(),
            stamped: Vec::new(),
            skipped: Vec::new(),
        };
        self.inner.runtime.spawn(hopper, &mut self.inner.book, ctx);
    }
    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        self.inner.on_message(from, msg, ctx);
    }
    fn on_timer(&mut self, timer: TimerId, tag: u64, ctx: &mut dyn Context) {
        self.inner.on_timer(timer, tag, ctx);
    }
    impl_as_any!();
}

fn build_sim(n: usize, route: Vec<NodeId>, cfg: AgentConfig) -> Simulation {
    let topo = Topology::uniform_lan(n, Duration::from_millis(2));
    let transport = SimTransport::new(topo, LinkModel::ideal(), SimRng::from_seed(1));
    let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
    sim.add_process(Box::new(Spawner {
        inner: HostNode::new(cfg),
        route,
    }));
    for _ in 1..n {
        sim.add_process(Box::new(HostNode::new(cfg)));
    }
    sim
}

#[test]
fn hopper_visits_every_host_in_order() {
    let mut sim = build_sim(4, vec![1, 2, 3], AgentConfig::default());
    sim.run_to_quiescence();

    // Every host's guest book is stamped exactly once.
    let spawner: &Spawner = sim.process(0).unwrap();
    assert_eq!(spawner.inner.book.stamps.len(), 1);
    for node in 1..4u16 {
        let host: &HostNode = sim.process(node).unwrap();
        assert_eq!(host.book.stamps.len(), 1, "node {node}");
    }

    // Three migrations happened, with increasing hop counts.
    let hops: Vec<u32> = sim
        .trace()
        .filter(|e| matches!(e, TraceEvent::AgentMigrated { .. }))
        .map(|r| match r.event {
            TraceEvent::AgentMigrated { hops, .. } => hops,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(hops, vec![1, 2, 3]);

    // The agent disposed at the final stop.
    assert_eq!(
        sim.trace()
            .count(|e| matches!(e, TraceEvent::AgentDisposed { .. })),
        1
    );
    // Nobody hosts it any more, nothing is in flight.
    let last: &HostNode = sim.process(3).unwrap();
    assert_eq!(last.runtime.resident_count(), 0);
    assert_eq!(last.runtime.in_flight(), 0);
}

#[test]
fn migration_state_roundtrips_through_wire() {
    // The stamped list accumulates across hops, proving the serialized
    // state (not a shared reference) is what travels.
    let mut sim = build_sim(3, vec![1, 2], AgentConfig::default());
    sim.run_to_quiescence();
    let disposed_at: &HostNode = sim.process(2).unwrap();
    assert_eq!(disposed_at.book.stamps.len(), 1);
    // Reconstruct: agent stamped 0, then 1, then 2 — the trace has the
    // dispose only after all three stamps.
    let total_stamps: usize = (0..3u16)
        .map(|n| {
            if n == 0 {
                sim.process::<Spawner>(n).unwrap().inner.book.stamps.len()
            } else {
                sim.process::<HostNode>(n).unwrap().book.stamps.len()
            }
        })
        .sum();
    assert_eq!(total_stamps, 3);
}

#[test]
fn dead_destination_is_declared_unavailable_and_skipped() {
    let cfg = AgentConfig {
        migrate_timeout: Duration::from_millis(20),
        max_attempts: 3,
    };
    let mut sim = build_sim(4, vec![1, 2, 3], cfg);
    // Node 2 is down from the start.
    sim.schedule_control(SimTime::ZERO, Control::SetNodeUp { node: 2, up: false });
    sim.run_to_quiescence();

    // 3 failed attempts then declared unavailable.
    assert_eq!(
        sim.trace()
            .count(|e| matches!(e, TraceEvent::AgentMigrateFailed { to: 2, .. })),
        3
    );
    assert_eq!(
        sim.trace()
            .count(|e| matches!(e, TraceEvent::ReplicaDeclaredUnavailable { node: 2, .. })),
        1
    );
    // The rest of the route still completed.
    let host3: &HostNode = sim.process(3).unwrap();
    assert_eq!(host3.book.stamps.len(), 1);
    assert_eq!(
        sim.trace()
            .count(|e| matches!(e, TraceEvent::AgentDisposed { .. })),
        1
    );
}

#[test]
fn messages_reach_resident_agents() {
    // Route keeps the agent parked at node 1 (it never leaves because
    // route ends there and... we give it an empty onward route so it
    // disposes; instead park it by giving route [1] and poking before
    // it can dispose is racy — so use a stay-forever variant: route [1]
    // then poke arrives first because we inject it at the same time the
    // agent is still travelling).
    let cfg = AgentConfig::default();
    let mut sim = build_sim(2, vec![1], cfg);
    // Poke the agent at node 1 well after it arrives; Hopper disposes on
    // arrival though, so instead poke it at node 0 before it leaves:
    // the spawner runs at t=0 and immediately migrates, so send the poke
    // to node 0 at t=0 — it arrives after the agent left, exercising the
    // missed-delivery path.
    let agent = AgentId::new(0, SimTime::ZERO, 0);
    sim.schedule_external(
        SimTime::from_millis(1),
        0,
        marp_wire::to_bytes(&AgentEnvelope::ToAgent {
            agent,
            payload: Bytes::from_static(b"poke"),
        }),
    );
    sim.run_to_quiescence();
    assert_eq!(
        sim.trace().count(|e| matches!(
            e,
            TraceEvent::Custom {
                kind: "agent-msg-missed",
                ..
            }
        )),
        1
    );
}

/// An agent that parks forever and echoes pokes into the guest book.
#[derive(Debug, Clone, PartialEq)]
struct Sitter {
    id: AgentId,
    ticks: u32,
}

marp_wire::wire_struct!(Sitter { id, ticks });

impl AgentBehavior for Sitter {
    type Host = GuestBook;
    fn id(&self) -> AgentId {
        self.id
    }
    fn on_arrive(&mut self, _host: &mut GuestBook, env: &mut AgentEnv<'_>) -> Action {
        env.set_timer(Duration::from_millis(5), 7);
        Action::Stay
    }
    fn on_agent_message(
        &mut self,
        _from: NodeId,
        payload: Bytes,
        host: &mut GuestBook,
        _env: &mut AgentEnv<'_>,
    ) -> Action {
        host.pokes.push(payload);
        Action::Stay
    }
    fn on_timer(&mut self, tag: u64, host: &mut GuestBook, env: &mut AgentEnv<'_>) -> Action {
        assert_eq!(tag, 7);
        self.ticks += 1;
        host.stamps.push(u64::from(self.ticks));
        if self.ticks < 3 {
            env.set_timer(Duration::from_millis(5), 7);
        }
        Action::Stay
    }
    fn on_migrate_failed(
        &mut self,
        _dest: NodeId,
        _attempts: u32,
        _host: &mut GuestBook,
        _env: &mut AgentEnv<'_>,
    ) -> Action {
        Action::Stay
    }
}

struct SitterHost {
    book: GuestBook,
    runtime: AgentRuntime<Sitter>,
    spawn_here: bool,
}

impl Process for SitterHost {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if self.spawn_here {
            let sitter = Sitter {
                id: AgentId::new(ctx.me(), ctx.now(), 0),
                ticks: 0,
            };
            self.runtime.spawn(sitter, &mut self.book, ctx);
        }
    }
    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        let envelope: AgentEnvelope = marp_wire::from_bytes(&msg).expect("valid envelope");
        self.runtime
            .handle_envelope(from, envelope, &mut self.book, ctx);
    }
    fn on_timer(&mut self, timer: TimerId, _tag: u64, ctx: &mut dyn Context) {
        self.runtime.handle_timer(timer, &mut self.book, ctx);
    }
    impl_as_any!();
}

#[test]
fn agent_timers_fire_repeatedly_and_messages_arrive() {
    let topo = Topology::uniform_lan(2, Duration::from_millis(1));
    let transport = SimTransport::new(topo, LinkModel::ideal(), SimRng::from_seed(2));
    let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
    sim.add_process(Box::new(SitterHost {
        book: GuestBook::default(),
        runtime: AgentRuntime::new(AgentConfig::default(), wrap),
        spawn_here: true,
    }));
    sim.add_process(Box::new(SitterHost {
        book: GuestBook::default(),
        runtime: AgentRuntime::new(AgentConfig::default(), wrap),
        spawn_here: false,
    }));
    let agent = AgentId::new(0, SimTime::ZERO, 0);
    sim.schedule_external(
        SimTime::from_millis(2),
        0,
        marp_wire::to_bytes(&AgentEnvelope::ToAgent {
            agent,
            payload: Bytes::from_static(b"hello"),
        }),
    );
    sim.run_to_quiescence();
    let host: &SitterHost = sim.process(0).unwrap();
    assert_eq!(host.book.stamps, vec![1, 2, 3]);
    assert_eq!(host.book.pokes, vec![Bytes::from_static(b"hello")]);
    // Still resident after all that.
    assert_eq!(host.runtime.resident_count(), 1);
    assert!(host.runtime.resident(agent).is_some());
}

#[test]
fn transient_outage_is_survived_by_retries() {
    let cfg = AgentConfig {
        migrate_timeout: Duration::from_millis(20),
        max_attempts: 5,
    };
    let mut sim = build_sim(3, vec![1, 2], cfg);
    // Node 1 is down briefly; the first attempt fails, a retry succeeds.
    sim.schedule_control(SimTime::ZERO, Control::SetNodeUp { node: 1, up: false });
    sim.schedule_control(
        SimTime::from_millis(30),
        Control::SetNodeUp { node: 1, up: true },
    );
    sim.run_to_quiescence();
    assert!(
        sim.trace()
            .count(|e| matches!(e, TraceEvent::AgentMigrateFailed { to: 1, .. }))
            >= 1
    );
    // No unavailability declaration — a retry got through.
    assert_eq!(
        sim.trace()
            .count(|e| matches!(e, TraceEvent::ReplicaDeclaredUnavailable { .. })),
        0
    );
    let host1: &HostNode = sim.process(1).unwrap();
    assert_eq!(host1.book.stamps.len(), 1);
    let host2: &HostNode = sim.process(2).unwrap();
    assert_eq!(host2.book.stamps.len(), 1);
}

#[test]
fn duplicate_migrations_from_slow_acks_are_deduplicated() {
    // Migration timeout far below the round-trip time: every hop's ack
    // arrives after the source has already retried, so destinations see
    // the same (agent, hop) migration several times. The dedupe set
    // must run on_arrive exactly once per hop.
    let cfg = AgentConfig {
        migrate_timeout: Duration::from_millis(1), // rtt is 4 ms
        max_attempts: 5,
    };
    let mut sim = build_sim(3, vec![1, 2], cfg);
    sim.run_to_quiescence();
    for node in 1..3u16 {
        let host: &HostNode = sim.process(node).unwrap();
        assert_eq!(
            host.book.stamps.len(),
            1,
            "node {node} ran on_arrive {} times",
            host.book.stamps.len()
        );
    }
    // Retries really happened (the timeout fired at least once).
    assert!(
        sim.trace()
            .count(|e| matches!(e, TraceEvent::AgentMigrateFailed { .. }))
            >= 1
    );
    // And exactly one disposal despite the duplicate deliveries.
    assert_eq!(
        sim.trace()
            .count(|e| matches!(e, TraceEvent::AgentDisposed { .. })),
        1
    );
}

#[test]
fn hopper_state_survives_many_hops() {
    // A long ring: the serialized state grows with each stamp and must
    // survive 9 consecutive migrations intact.
    let route: Vec<NodeId> = (1..10).collect();
    let mut sim = build_sim(10, route, AgentConfig::default());
    sim.run_to_quiescence();
    let total: usize = (0..10u16)
        .map(|n| {
            if n == 0 {
                sim.process::<Spawner>(n).unwrap().inner.book.stamps.len()
            } else {
                sim.process::<HostNode>(n).unwrap().book.stamps.len()
            }
        })
        .sum();
    assert_eq!(total, 10);
    assert_eq!(
        sim.trace()
            .count(|e| matches!(e, TraceEvent::AgentMigrated { .. })),
        9
    );
}

// ---------------------------------------------------------------------
// Crash semantics: what survives `clear_volatile` and what must not.
// These drive the runtime directly with a recording context so the
// crash point sits exactly between two envelope deliveries — no
// latency tuning required.
// ---------------------------------------------------------------------

/// Host 1's recording context for direct runtime tests.
fn rec_ctx() -> RecordingCtx {
    RecordingCtx::new(1, SimTime::ZERO)
}

#[test]
fn migration_dedup_survives_crash_recovery() {
    // A duplicated migration (the sender retried across our crash)
    // must not re-run on_arrive after recovery: `clear_volatile`
    // deliberately keeps `seen_migrations`, because re-running a hop's
    // arrival would re-enqueue the agent and double its side effects.
    let mut runtime: AgentRuntime<Hopper> = AgentRuntime::new(AgentConfig::default(), wrap);
    let mut book = GuestBook::default();
    let mut ctx = rec_ctx();
    let agent = AgentId::new(0, SimTime::ZERO, 0);
    let hopper = Hopper {
        id: agent,
        route: vec![],
        stamped: vec![],
        skipped: vec![],
    };
    let state = marp_wire::to_bytes(&hopper);

    let migrate = AgentEnvelope::Migrate {
        agent,
        hop: 1,
        state: state.clone(),
    };
    runtime.handle_envelope(0, migrate.clone(), &mut book, &mut ctx);
    assert_eq!(book.stamps.len(), 1, "first delivery runs on_arrive");
    assert_eq!(ctx.sent.len(), 1, "arrival is acked");

    // Crash + recover: resident agents are lost, the dedup set is not.
    runtime.clear_volatile();
    assert_eq!(runtime.resident_count(), 0);

    runtime.handle_envelope(0, migrate, &mut book, &mut ctx);
    assert_eq!(book.stamps.len(), 1, "duplicate after recovery is deduped");
    assert_eq!(ctx.sent.len(), 2, "but the duplicate is still re-acked");
}

#[test]
fn crash_loses_residents_and_later_messages_miss_loudly() {
    // An agent resident at crash time is gone after recovery; a message
    // addressed to it must surface as an `agent-msg-missed` trace (the
    // sender's cue to give up on the lost copy), never a panic, and a
    // stale pre-crash agent timer must come back as "not ours".
    let mut runtime: AgentRuntime<Sitter> = AgentRuntime::new(AgentConfig::default(), wrap);
    let mut book = GuestBook::default();
    let mut ctx = rec_ctx();
    let agent = AgentId::new(1, SimTime::ZERO, 0);
    runtime.spawn(
        Sitter {
            id: agent,
            ticks: 0,
        },
        &mut book,
        &mut ctx,
    );
    assert_eq!(runtime.resident_count(), 1);
    // on_arrive armed the sitter's tick timer.
    let stale_timer = TimerId(ctx.armed.len() as u64);

    runtime.clear_volatile();
    assert_eq!(runtime.resident_count(), 0);
    assert_eq!(runtime.in_flight(), 0);

    runtime.handle_envelope(
        0,
        AgentEnvelope::ToAgent {
            agent,
            payload: Bytes::from_static(b"poke"),
        },
        &mut book,
        &mut ctx,
    );
    assert!(book.pokes.is_empty(), "the lost agent cannot receive");
    assert_eq!(
        ctx.traced
            .iter()
            .filter(|e| matches!(
                e,
                TraceEvent::Custom {
                    kind: "agent-msg-missed",
                    ..
                }
            ))
            .count(),
        1
    );

    // The pre-crash timer belongs to nobody now: the runtime disowns it
    // instead of dispatching into a dangling agent.
    assert!(!runtime.handle_timer(stale_timer, &mut book, &mut ctx));
    assert_eq!(book.stamps.len(), 0, "no tick ran");
}

/// The horizons of the `MigrateAck`s in `sent`, oldest first.
fn acked_horizons(sent: &[(NodeId, Bytes)]) -> Vec<BTreeMap<NodeId, u64>> {
    sent.iter()
        .filter_map(|(_, frame)| match marp_wire::from_bytes(frame) {
            Ok(AgentEnvelope::MigrateAck { horizon, .. }) => Some(horizon),
            _ => None,
        })
        .collect()
}

#[test]
fn the_ack_carries_what_the_host_knew_before_the_agent_arrived() {
    let mut runtime: AgentRuntime<Hopper> = AgentRuntime::new(AgentConfig::default(), wrap);
    let mut book = GuestBook::default();
    let mut ctx = rec_ctx();
    let agent = AgentId::new(4, SimTime::ZERO, 0);
    let hopper = Hopper {
        id: agent,
        route: vec![],
        stamped: vec![],
        skipped: vec![],
    };
    let migrate = AgentEnvelope::Migrate {
        agent,
        hop: 1,
        state: marp_wire::to_bytes(&hopper),
    };
    runtime.handle_envelope(0, migrate.clone(), &mut book, &mut ctx);
    assert_eq!(book.stamps.len(), 1, "on_arrive ran");
    // The hook saw the decoded agent (its home is the slot) and the
    // book as it was before `on_arrive` stamped it.
    assert_eq!(acked_horizons(&ctx.sent), [BTreeMap::from([(4, 0)])]);

    // A duplicate delivery is acked again — with the book as it is now
    // — and then dropped.
    runtime.handle_envelope(0, migrate, &mut book, &mut ctx);
    assert_eq!(book.stamps.len(), 1);
    assert_eq!(acked_horizons(&ctx.sent)[1], BTreeMap::from([(4, 1)]));
}

#[test]
fn undecodable_state_is_acked_with_an_empty_horizon_and_dropped() {
    let mut runtime: AgentRuntime<Hopper> = AgentRuntime::new(AgentConfig::default(), wrap);
    let mut book = GuestBook::default();
    let mut ctx = rec_ctx();
    let agent = AgentId::new(0, SimTime::ZERO, 0);
    let garbage = AgentEnvelope::Migrate {
        agent,
        hop: 1,
        state: Bytes::from_static(&[0xff; 3]),
    };
    runtime.handle_envelope(0, garbage, &mut book, &mut ctx);
    assert_eq!(acked_horizons(&ctx.sent), [BTreeMap::new()]);
    assert_eq!(runtime.resident_count(), 0);
    assert!(book.stamps.is_empty());
    assert!(ctx.traced.iter().any(|e| matches!(
        e,
        TraceEvent::Custom {
            kind: "agent-state-corrupt",
            ..
        }
    )));
}

#[test]
fn an_ack_is_recorded_through_the_agent_it_acknowledges() {
    let mut sim = build_sim(3, vec![1, 2], AgentConfig::default());
    sim.run_to_quiescence();
    // Node 0 shipped the hopper to node 1, node 1 to node 2; each heard
    // back what its destination's book held for the hopper's home.
    let spawner: &Spawner = sim.process(0).unwrap();
    assert_eq!(
        spawner.inner.book.advertised,
        [(1, BTreeMap::from([(0, 0)]))]
    );
    let host1: &HostNode = sim.process(1).unwrap();
    assert_eq!(host1.book.advertised, [(2, BTreeMap::from([(0, 0)]))]);
    // An ack for an agent that is not in flight from here has no
    // subject to be recorded under.
    let mut runtime: AgentRuntime<Hopper> = AgentRuntime::new(AgentConfig::default(), wrap);
    let mut book = GuestBook::default();
    let stray = AgentEnvelope::MigrateAck {
        agent: AgentId::new(0, SimTime::ZERO, 0),
        hop: 1,
        horizon: BTreeMap::from([(0, 9)]),
    };
    runtime.handle_envelope(2, stray, &mut book, &mut rec_ctx());
    assert!(book.advertised.is_empty());
}
