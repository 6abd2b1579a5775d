//! What an arrival, a decision, a visit, a frame, a claim and a commit
//! ask of the allocator once the buffers they reuse are warm: an
//! arriving agent decodes into the behaviour an earlier agent left
//! behind, `decide` tallies on the stack, a visit reads the Locking
//! List where it lies, a frame that nests a payload is written in one
//! pass, a node decodes each frame into the message the last frame of
//! its shape left, a claim made again reopens the call the first one
//! grew, and a commit fills lists its node owns. A frame is one
//! allocation past 30 bytes and none up to 30, where it lives inside
//! its `Bytes` handle.

use bytes::Bytes;
use marp_agent::{AgentBehavior, AgentEnvelope, AgentId, AgentRuntime, Horizon, WrapFn};
use marp_core::lt::{decide, LockingTable, Priority};
use marp_core::{
    agent_header, build_cluster, read_agent_header, wrap_agent_envelope, wrap_client_request,
    wrap_sync, AgentReply, CommitMsg, GossipBoard, MarpConfig, MarpNode, MarpServerState, NodeMsg,
    ReadAgent, UpdateAgent, UpdateMsg,
};
use marp_net::{LinkModel, RoutingTable, SimTransport, Topology};
use marp_replica::{
    ClientProcess, ClientRequest, CommitRecord, LlSnapshot, Operation, ScriptedSource,
    ServerConfig, ServerCore, UpdatedList, WriteRequest,
};
use marp_sim::{NodeId, Process, RecordingCtx, SimRng, SimTime, Simulation, TimerId, TraceLevel};
use std::time::Duration;

#[path = "../../../tests/support/noting_alloc.rs"]
mod noting_alloc;

const N: usize = 3;

/// One replica server as an agent runtime sees it.
struct Host<B: AgentBehavior<Host = MarpServerState> = UpdateAgent> {
    state: MarpServerState,
    runtime: AgentRuntime<B>,
    ctx: RecordingCtx,
}

impl Host {
    /// Server `me`, with three rivals queued ahead of any newcomer on
    /// keys 1 and 2, rotated by `me` so that none tops a majority:
    /// agents for either key travel the whole itinerary (behind a
    /// rival that topped a majority they would park at a majority).
    fn new(me: NodeId, cfg: &MarpConfig) -> Self {
        let mut host = Host::bare(me, cfg, agent_header);
        for key in [1, 2] {
            for home in (0..N as NodeId).map(|r| (r + me) % N as NodeId) {
                let rival = aid(home, 100 + key as u32);
                host.state.visit(rival, key, SimTime::from_millis(2), home);
            }
        }
        host
    }
}

impl<B: AgentBehavior<Host = MarpServerState>> Host<B> {
    /// Server `me` of `cfg`'s deployment, its store empty.
    fn bare(me: NodeId, cfg: &MarpConfig, wrap: WrapFn) -> Self {
        let topo = Topology::uniform_lan(cfg.n_servers, Duration::from_millis(1));
        Host {
            state: MarpServerState::new(
                ServerCore::keyed(me, ServerConfig::default(), wrap_sync),
                RoutingTable::from_topology(me, &topo),
                cfg,
            ),
            runtime: AgentRuntime::new(cfg.migration, wrap),
            ctx: RecordingCtx::new(me, SimTime::from_millis(20)),
        }
    }

    /// Room for what one more message records, so that recording it
    /// is not counted as the message's own allocation.
    fn make_room(&mut self) {
        make_room(&mut self.ctx);
    }

    /// Deliver `envelope`; returns the allocations that took.
    fn deliver(&mut self, from: NodeId, mut envelope: AgentEnvelope) -> usize {
        let (state, runtime, ctx) = (&mut self.state, &mut self.runtime, &mut self.ctx);
        let ((), requests, _) = noting_alloc::requests_during(|| {
            runtime.handle_envelope(from, &mut envelope, state, ctx);
        });
        requests
    }

    /// The last agent envelope this host sent to `to` that `pick` takes.
    fn sent_to(&self, to: NodeId, pick: fn(&AgentEnvelope) -> bool) -> AgentEnvelope {
        let sent = self.ctx.sent_as::<NodeMsg>().into_iter().rev();
        let mut envelopes = sent.filter_map(|(dest, msg)| match msg {
            NodeMsg::Agent(envelope) | NodeMsg::RAgent(envelope)
                if dest == to && pick(&envelope) =>
            {
                Some(envelope)
            }
            _ => None,
        });
        envelopes.next().expect("an envelope")
    }
}

fn make_room(ctx: &mut RecordingCtx) {
    ctx.sent.reserve(8);
    ctx.traced.reserve(64);
    ctx.armed.reserve(8);
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
    let agent = UpdateAgent::new(None, aid(0, seq), cfg, vec![write]);
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

/// A read agent's middle hop at N = 5, into a runtime whose spare is
/// the read agent it acked away: the state decodes into the spare, the
/// visit observes the store, and the agent leaves for its third
/// replica. Its id is shaped as in a run: born 1.2 s in, its `seq`
/// drawn from its home node's agent counter. Carrying its best
/// observation and its itinerary, and named once per frame, the agent
/// leaves in a frame of 30 bytes or less, which lives in its handle
/// like the ack: the hop allocates nothing.
#[test]
fn a_read_agent_hop_into_a_warm_spare_allocates_nothing() {
    let cfg = MarpConfig::new(5);
    let topo = Topology::uniform_lan(cfg.n_servers, Duration::from_millis(1));
    let mut home = MarpNode::new(0, cfg, RoutingTable::from_topology(0, &topo));
    let mut home_ctx = RecordingCtx::new(0, SimTime::from_millis(1_200));
    let mut dispatch = |request: u64| {
        let read = ClientRequest {
            id: request,
            op: Operation::ReadFresh { key: 1 },
        };
        home.on_message(9, wrap_client_request(read), &mut home_ctx);
        let sent = home_ctx.sent_as::<NodeMsg>().into_iter().rev();
        let mut migrations = sent.filter_map(|(to, msg)| match msg {
            NodeMsg::RAgent(migrate @ AgentEnvelope::Migrate { .. }) if to == 1 => Some(migrate),
            _ => None,
        });
        migrations
            .next()
            .expect("a read agent leaving for server 1")
    };
    let mut hosts: Vec<Host<ReadAgent>> = (0..3)
        .map(|me| Host::bare(me, &cfg, read_agent_header))
        .collect();
    // Server 1 hosts `arrival`: the allocations that took, and where
    // each frame it sent went and how long it was.
    let hop = |host: &mut Host<ReadAgent>, arrival| {
        host.make_room();
        let sent = host.ctx.sent.len();
        let allocations = host.deliver(0, arrival);
        let frames: Vec<(NodeId, usize)> = host.ctx.sent[sent..]
            .iter()
            .map(|(to, frame)| (*to, frame.len()))
            .collect();
        (allocations, frames)
    };

    let first = dispatch(1);
    assert!(
        matches!(first, AgentEnvelope::Migrate { agent, .. } if agent.born == SimTime::from_millis(1_200)),
        "{first:?}"
    );
    assert_eq!(hop(&mut hosts[1], first), (5, vec![(0, 11), (2, 21)]));
    let departed = hosts[1].sent_to(2, is_migrate);
    hosts[2].deliver(1, departed);
    let ack = hosts[2].sent_to(1, is_ack);
    hosts[1].deliver(2, ack);
    assert_eq!(
        hosts[1].runtime.in_flight(),
        0,
        "the first agent is the spare"
    );

    let next = dispatch(2);
    assert_eq!(hop(&mut hosts[1], next), (0, vec![(0, 11), (2, 21)]));
    let departing: NodeMsg =
        marp_wire::from_bytes(&hosts[1].ctx.sent.last().expect("a frame").1).expect("a frame");
    assert!(matches!(
        departing,
        NodeMsg::RAgent(AgentEnvelope::Migrate { .. })
    ));
}

fn agent(i: u32) -> AgentId {
    AgentId::new((i % 7) as NodeId, SimTime::from_millis(u64::from(i)), i)
}

/// Server `server`'s queue in a convoy at N = 9: 58 agents, each
/// queued at five of the nine servers, so every queue is 30 to 34 deep.
fn convoy_queue(server: NodeId) -> Vec<AgentId> {
    let server = u32::from(server);
    let queue = (0..58).filter(|i| (server + 9 - i % 9) % 9 < 5);
    queue.map(agent).collect()
}

/// A convoy at N = 9 ([`convoy_queue`]); the first `finished` agents
/// have committed.
fn convoy(finished: u32) -> (LockingTable, UpdatedList) {
    let mut lt = LockingTable::new();
    for server in 0..9 {
        let snapshot = LlSnapshot {
            version: 1,
            taken_at: SimTime::from_millis(1),
            queue: convoy_queue(server),
        };
        lt.merge(server, snapshot);
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
            if !matches!(priority, Priority::Win(Some(_))) {
                assert_eq!(requests, 0, "{finished} finished, deciding for {me:?}");
                decided += 1;
            }
        }
    }
    assert!(decided > 100);
}

/// A convoy table decoded into one that has held a table of its shape
/// reuses the roster, the row heads and the ranks: nothing per row.
#[test]
fn a_convoy_table_decodes_into_a_warm_one_without_allocating() {
    let (lt, _) = convoy(0);
    let bytes = marp_wire::to_bytes(&lt);
    let mut warm: LockingTable = marp_wire::from_bytes(&bytes).expect("a table");
    warm.drop_server(4);
    assert_ne!(warm, lt);
    let (decoded, requests, _) =
        noting_alloc::requests_during(|| marp_wire::from_bytes_into(&mut warm, &bytes));
    assert_eq!(decoded, Ok(()));
    assert_eq!(warm, lt);
    assert_eq!(requests, 0);
}

/// An arrival at a board that knows of a convoy: the visitor brings a
/// fresher row 0, the board holds a fresher row 1. Once both tables
/// have held tables of this shape, the exchange is splices and copies
/// into their buffers.
#[test]
fn a_gossip_exchange_into_warm_tables_allocates_nothing() {
    let (lt, _) = convoy(0);
    let mut board = GossipBoard::new();
    board.exchange(1, &mut lt.clone());
    let mut visitor = lt.clone();
    let mut exchange = |version: u64| {
        let taken_at = SimTime::from_millis(version);
        let (row_0, row_1) = (convoy_queue(0), convoy_queue(1));
        visitor.offer_row(0, version, taken_at, row_0.into_iter());
        board.post(1, 1, version, taken_at, row_1.into_iter());
        let ((), requests, _) = noting_alloc::requests_during(|| board.exchange(1, &mut visitor));
        assert_eq!(board.contents(1), Some(&visitor));
        requests
    };
    exchange(2);
    exchange(3);
    assert_eq!(exchange(4), 0);
}

/// A hop drops the destination's row from the agent's table, and the
/// arrival reads that server's queue back in: the row's ranks leave
/// the buffer and come back through its tail, at no allocation.
#[test]
fn dropping_a_row_and_reading_it_back_allocates_nothing() {
    let (mut lt, _) = convoy(0);
    let queue = convoy_queue(3);
    let mut hop = |version: u64| {
        noting_alloc::requests_during(|| {
            lt.drop_server(3);
            lt.offer_row(
                3,
                version,
                SimTime::from_millis(version),
                queue.iter().copied(),
            );
        })
        .1
    };
    hop(2);
    assert_eq!(hop(3), 0);
    let mut read_back = convoy(0).0;
    read_back.offer_row(3, 3, SimTime::from_millis(3), queue.iter().copied());
    assert_eq!(lt, read_back);
}

/// Agents launched into the buffers of spares that held agents of
/// their system: the itinerary is refilled in place and the tables are
/// emptied, not dropped.
#[test]
fn agents_built_in_spares_allocate_nothing() {
    let cfg = MarpConfig::new(9);
    let write = WriteRequest {
        id: 1,
        client: 9,
        key: 1,
        value: 3,
        arrived: SimTime::ZERO,
    };
    let spare = UpdateAgent::new(None, aid(4, 1), &cfg, vec![write]);
    let requests = vec![write];
    let (built, allocations, _) =
        noting_alloc::requests_during(|| UpdateAgent::new(Some(spare), aid(0, 2), &cfg, requests));
    assert_eq!(built, UpdateAgent::new(None, aid(0, 2), &cfg, vec![write]));
    assert_eq!(allocations, 0);

    let spare = ReadAgent::new(None, aid(4, 1), &cfg, 7, 9, 1);
    let (built, allocations, _) =
        noting_alloc::requests_during(|| ReadAgent::new(Some(spare), aid(0, 2), &cfg, 8, 9, 1));
    assert_eq!(built, ReadAgent::new(None, aid(0, 2), &cfg, 8, 9, 1));
    assert_eq!(allocations, 0);
}

/// The horizon a parked agent sends with each `LlQuery` is one block
/// sized to its table's rows.
#[test]
fn a_nine_row_tables_horizon_is_one_allocation() {
    let (lt, _) = convoy(0);
    assert_eq!(lt.known_servers(), 9);
    let (horizon, requests, largest) = noting_alloc::requests_during(|| lt.horizon());
    assert_eq!(horizon.iter().count(), 9);
    assert_eq!(requests, 1);
    assert_eq!(largest, 9 * std::mem::size_of::<(NodeId, u64)>());
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
    // The host's N rivals and the visitor.
    assert_eq!(lt.roster().len(), N + 1);
}

/// A retried hop's state, arriving twice: the second delivery is acked
/// again and goes no further, and the ack's horizon is written into the
/// buffer the runtime keeps, so its frame is all it allocates — and at
/// 30 bytes or less, that frame lives in its handle.
#[test]
fn an_ack_allocates_only_its_frame() {
    let (mut host, _, first) = host_after_a_hop(true);
    let again = AgentEnvelope::Migrate {
        agent: aid(0, 1),
        hop: 1,
        state: first,
    };
    host.make_room();
    let sent = host.ctx.sent.len();
    assert_eq!(host.deliver(0, again), 0);
    assert_eq!(host.ctx.sent.len(), sent + 1);
    let (to, frame) = host.ctx.sent.last().expect("the ack");
    assert!(*to == 0 && frame.len() <= 30, "{} bytes", frame.len());
    assert!(is_ack(&host.sent_to(0, is_ack)));
}

/// A hop's frame is one allocation, the nested state written into it
/// in place, and an answer's, at 30 bytes or less, none; a retried hop
/// resends the frame it kept.
#[test]
fn a_migrate_frame_allocates_once_and_an_answer_not_at_all() {
    let cfg = MarpConfig::new(N);
    let mut home = Host::new(0, &cfg);
    let departed = dispatch(&mut home, 1, 1, &cfg);
    let traveller: UpdateAgent = marp_wire::from_bytes(state(&departed)).expect("agent state");
    let ack = AgentReply::UpdateAck {
        attempt: 1,
        positive: true,
        store_version: 4,
        fenced: false,
    };
    let id = aid(0, 1);
    let ((frame, _), migrate, _) = noting_alloc::requests_during(|| {
        AgentEnvelope::migrate_frame(agent_header, id, 1, &traveller)
    });
    assert_eq!(frame, wrap_agent_envelope(departed));
    let ((answered, _), answer, _) =
        noting_alloc::requests_during(|| AgentEnvelope::to_agent_frame(agent_header, id, &ack));
    assert!(frame.len() > 30 && answered.len() <= 30);
    assert_eq!((migrate, answer), (1, 0));

    let retry = TimerId(home.ctx.armed.len() as u64);
    home.make_room();
    let (state, runtime, ctx) = (&mut home.state, &mut home.runtime, &mut home.ctx);
    let (fired, resend, _) =
        noting_alloc::requests_during(|| runtime.handle_timer(retry, state, ctx));
    assert!(fired);
    assert_eq!(resend, 0);
    assert_eq!(home.ctx.sent.last(), Some(&(1, frame)));
}

/// Node 2 of three, hosting an agent parked on key 1 behind a rival
/// queued ahead of it at servers 0 and 1, and holding a client's write
/// (a batch of two keeps it waiting, so no agent leaves for it).
fn node_with_a_parked_agent() -> (MarpNode, RecordingCtx) {
    let mut cfg = MarpConfig::new(N);
    cfg.batch.max_batch = 2;
    let mut home = Host::new(0, &cfg);
    let mut via = Host::new(1, &cfg);
    let departed = dispatch(&mut home, 1, 1, &cfg);
    via.deliver(0, departed);
    let last_stop = via.sent_to(2, is_migrate);
    let topo = Topology::uniform_lan(N, Duration::from_millis(1));
    let mut node = MarpNode::new(2, cfg, RoutingTable::from_topology(2, &topo));
    let mut ctx = RecordingCtx::new(2, SimTime::from_millis(20));
    node.on_message(1, wrap_agent_envelope(last_stop), &mut ctx);
    assert_eq!(node.resident_agents(), 1, "it parks behind the rival");
    let write = ClientRequest {
        id: 77,
        op: Operation::Write { key: 1, value: 5 },
    };
    node.on_message(5, wrap_client_request(write), &mut ctx);
    (node, ctx)
}

/// `winner`'s COMMIT of version `version` of key 1, serving `request`.
fn commit_of(winner: AgentId, version: u64, request: u64) -> Bytes {
    marp_wire::to_bytes(&NodeMsg::Commit(CommitMsg {
        agent: winner,
        records: vec![CommitRecord {
            version,
            key: 1,
            value: 5,
            agent: winner.key(),
            request,
            committed_at: SimTime::from_millis(19),
        }],
    }))
}

/// Deliver `msg` to `node` from server `from`; returns the
/// allocations that took, decoding included.
fn delivered(node: &mut MarpNode, ctx: &mut RecordingCtx, from: NodeId, msg: Bytes) -> usize {
    make_room(ctx);
    let ((), requests, _) = noting_alloc::requests_during(|| node.on_message(from, msg, ctx));
    requests
}

/// Once one commit has warmed the store's chain, the server's lists,
/// the node's outbox and the COMMIT its inbox holds, the next in-order
/// COMMIT decodes into that one and allocates its client reply and its
/// notice to the parked waiter, and nothing else: two frames of 30
/// bytes or less, so nothing at all.
#[test]
fn an_in_order_commit_allocates_only_its_client_reply_and_notice_frames() {
    let (mut node, mut ctx) = node_with_a_parked_agent();
    node.on_message(1, commit_of(aid(1, 101), 1, 50), &mut ctx);
    ctx.sent.clear();
    let allocated = delivered(&mut node, &mut ctx, 1, commit_of(aid(1, 103), 2, 77));
    let notices = node.mail().notices_sent;
    assert_eq!(notices, 2, "one per commit, to the parked agent");
    assert_eq!(ctx.sent.len(), 2, "the client's reply and the notice");
    assert!(ctx.sent.iter().all(|(_, frame)| frame.len() <= 30));
    assert_eq!(allocated, 0);
}

/// A claim refused at once is answered with one frame of 30 bytes or
/// less, which costs no allocation: no list of answers is built for it,
/// and its requests land in the list the claim before it left in the
/// node's inbox.
#[test]
fn a_refused_claim_allocates_only_its_answer() {
    let (mut node, mut ctx) = node_with_a_parked_agent();
    let stranger = aid(1, 9);
    let claim = |attempt| {
        marp_wire::to_bytes(&NodeMsg::Update(UpdateMsg {
            agent: stranger,
            attempt,
            incarnation: 0,
            reply_to: 1,
            requests: vec![WriteRequest {
                id: 9,
                client: 6,
                key: 1,
                value: 1,
                arrived: SimTime::ZERO,
            }],
            tie_certificate: None,
        }))
    };
    node.on_message(1, claim(1), &mut ctx);
    ctx.sent.clear();
    assert_eq!(delivered(&mut node, &mut ctx, 1, claim(2)), 0);
    assert_eq!(ctx.sent.len(), 1);
    assert!(ctx.sent[0].1.len() <= 30);
}

/// A home whose agents leave for their second stop, each hop acked with
/// a horizon of one shape: the node decodes each ack into the one its
/// inbox holds, and the host keeps the horizon by swapping it for the
/// one it replaces, which the next ack decodes into. From the third
/// ack on, both buffers are warm and an ack allocates nothing.
#[test]
fn an_ack_decodes_into_the_horizon_an_earlier_ack_left() {
    let cfg = MarpConfig::new(N);
    let topo = Topology::uniform_lan(N, Duration::from_millis(1));
    let mut node = MarpNode::new(0, cfg, RoutingTable::from_topology(0, &topo));
    let mut ctx = RecordingCtx::new(0, SimTime::from_millis(20));
    let horizon = Horizon::from_iter([(0, 3), (1, 4), (2, 5)]);
    let mut hop = |request: u64| {
        let write = ClientRequest {
            id: request,
            op: Operation::Write { key: 1, value: 5 },
        };
        node.on_message(9, wrap_client_request(write), &mut ctx);
        let Some((to, NodeMsg::Agent(AgentEnvelope::Migrate { agent, hop, .. }))) =
            ctx.sent_as::<NodeMsg>().pop()
        else {
            panic!("an agent leaving home");
        };
        let ack = AgentEnvelope::ack_frame(agent_header, agent, hop, &horizon);
        let allocations = delivered(&mut node, &mut ctx, to, ack);
        assert_eq!(node.update_runtime().in_flight(), 0, "the hop is acked");
        (to, allocations)
    };
    let (first, _) = hop(1);
    hop(2);
    assert_eq!(hop(3), (first, 0));
}

/// An agent alone in a one-server system wins on arrival and claims;
/// refused, it parks, and each change notice sends it to claim again.
/// A claim made again reopens the call the first one grew, and its
/// UPDATE is written from the agent's own request list: once the
/// agent's timer map has room, a claim and its refusal allocate
/// nothing.
#[test]
fn a_claim_made_again_reuses_its_call() {
    let cfg = MarpConfig::new(1);
    let mut home: Host = Host::bare(0, &cfg, agent_header);
    let me = aid(0, 1);
    let write = WriteRequest {
        id: 1,
        client: 9,
        key: 1,
        value: 3,
        arrived: SimTime::ZERO,
    };
    let agent = UpdateAgent::new(None, me, &cfg, vec![write]);
    home.runtime.spawn(agent, &mut home.state, &mut home.ctx);
    let mail = |reply: &AgentReply| AgentEnvelope::ToAgent {
        agent: me,
        payload: marp_wire::to_bytes(reply),
    };
    let claims = |home: &Host| {
        let sent = home.ctx.sent_as::<NodeMsg>();
        sent.iter()
            .filter(|(_, msg)| matches!(msg, NodeMsg::Update(_)))
            .count()
    };
    let mut round = |attempt: u32| {
        let notice = mail(&AgentReply::LlChanged {
            finished: aid(0, 100 + attempt),
            at: SimTime::from_millis(19),
        });
        let refusal = mail(&AgentReply::UpdateAck {
            attempt,
            positive: false,
            store_version: 0,
            fenced: false,
        });
        home.make_room();
        let claimed = if attempt == 1 {
            0
        } else {
            home.deliver(0, notice)
        };
        home.make_room();
        let refused = home.deliver(0, refusal);
        assert_eq!(claims(&home), attempt as usize);
        assert!(matches!(
            home.runtime.resident(me).map(UpdateAgent::phase),
            Some(marp_core::Phase::Parked { .. })
        ));
        claimed + refused
    };
    round(1);
    round(2);
    assert_eq!(round(3), 0);
}

/// `cliff_n9`'s shape — nine servers, a client at each, six writes
/// apiece to one key, 10 ms apart — run to 5 s again and again in one
/// process asks the allocator the same number of times: no container
/// grows on the process's hash seed.
#[test]
fn the_same_run_allocates_the_same_number_of_times() {
    let run = || {
        let topo = Topology::uniform_lan(18, Duration::from_millis(2));
        let rng = SimRng::from_seed(7);
        let transport = SimTransport::new(topo.clone(), LinkModel::lan_1990s(), rng);
        let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
        build_cluster(&mut sim, &MarpConfig::new(9), &topo);
        let gap = Duration::from_millis(10);
        for server in 0..9 {
            let writes = (0..6).map(|value| (gap, Operation::Write { key: 1, value }));
            let source = Box::new(ScriptedSource::new(writes));
            let client = ClientProcess::new(server, source, wrap_client_request);
            sim.add_process(Box::new(client));
        }
        noting_alloc::requests_during(|| sim.run_until(SimTime::from_secs(5))).1
    };
    run(); // warms the per-thread buffers the codec keeps
    let counts: Vec<usize> = (0..10).map(|_| run()).collect();
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
}
