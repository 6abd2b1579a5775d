//! The MARP replica node: one [`Process`] combining the server core,
//! the agent runtime, request batching, and the server side of the
//! protocol (Algorithm 2).

use crate::agent::UpdateAgent;
use crate::config::MarpConfig;
use crate::host::{CommitOutcome, MarpServerState};
use crate::msg::{
    agent_header, frame_shape, read_agent_header, wrap_sync, AgentReply, NodeMsg, FRAME_SHAPES,
};
use crate::read_agent::ReadAgent;
use bytes::Bytes;
use marp_agent::{AgentEnvelope, AgentId, AgentRuntime};
use marp_net::RoutingTable;
use marp_quorum::{RetryPolicy, TimerMux};
use marp_replica::{CommitRecord, RequestBatcher, ServerCore, SyncMsg, WriteRequest};
use marp_sim::{impl_as_any, trace, Context, NodeId, Process, SpanKey, TimerId, TraceEvent};
use std::collections::BTreeMap;

marp_quorum::timer_kinds! {
    /// The node's own timer kinds (resident agents' timers are told
    /// apart by `TimerId`, in the runtimes).
    enum NodeTimer {
        /// A dispatched batch's regeneration deadline (epoch = its
        /// agent's `seq`).
        Regen = 7,
        /// The oldest pending write has waited `MAX_WAIT`: dispatch the
        /// batch. Armed when a write starts a batch, never while none
        /// is pending.
        BatchDeadline = 100,
        Maintenance = 101,
    }
}

/// A dispatch-registry entry: a batch whose agent has been launched but
/// whose commits have not all been observed locally yet. Each entry
/// carries a regeneration deadline; if it fires first, the home assumes
/// the agent died with a crashed host and launches a successor with a
/// bumped incarnation.
#[derive(Debug, Clone)]
struct OutstandingBatch {
    /// The agent now carrying the batch.
    agent: AgentId,
    requests: Vec<WriteRequest>,
    /// Incarnation that agent was launched with.
    incarnation: u32,
    /// How many agents (original + regenerations) this batch has had.
    attempts: u32,
}

/// Server→agent mail this node has sent, as plain counts (the hot path
/// pays an integer add, not a trace record). The scale-sweep rows of
/// `marp-lab` record them, and `marp-trace diagnose` shows where
/// agent-addressed bytes go.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MailCounters {
    /// Change notices pushed on COMMIT (to agents resident here).
    pub notices_sent: u64,
    /// Encoded `AgentReply` bytes of those notices.
    pub notice_bytes: u64,
    /// Notices not sent because the agent, though queued here, is
    /// hosted elsewhere (its own host tells it) or has departed.
    pub notices_skipped: u64,
    /// UPDATE claims held behind the committing winner's reservation
    /// instead of being refused.
    pub claims_held: u64,
    /// `LlInfo` replies to `LlQuery`.
    pub replies_sent: u64,
    /// Encoded `AgentReply` bytes of those replies.
    pub reply_bytes: u64,
}

impl std::ops::AddAssign for MailCounters {
    fn add_assign(&mut self, other: Self) {
        self.notices_sent += other.notices_sent;
        self.notice_bytes += other.notice_bytes;
        self.notices_skipped += other.notices_skipped;
        self.claims_held += other.claims_held;
        self.replies_sent += other.replies_sent;
        self.reply_bytes += other.reply_bytes;
    }
}

/// One MARP replica server node.
pub struct MarpNode {
    state: MarpServerState,
    runtime: AgentRuntime<UpdateAgent>,
    read_runtime: AgentRuntime<ReadAgent>,
    batcher: RequestBatcher,
    /// The `seq` of the next agent this home creates, update or read:
    /// one counter keeps their trace keys `(home, seq)` apart.
    agent_seq: u32,
    /// The dispatch registry, by the epoch of the entry's regeneration
    /// deadline (the carrying agent's `seq`): a deadline whose entry is
    /// gone is stale.
    outstanding: BTreeMap<u64, OutstandingBatch>,
    mail: MailCounters,
    /// What the server state leaves to send, drained as it is sent.
    outbox: CommitOutcome,
    /// Maintenance ticks so far: a catch-up pull goes to the peer this
    /// many places (mod N − 1) past the next one.
    ask_rotation: NodeId,
    /// The last message of each frame shape ([`frame_shape`]): the next
    /// frame of that shape decodes into it, so an UPDATE's requests, a
    /// COMMIT's records and an ack's horizon land in buffers an earlier
    /// one grew. Empty until the first frame arrives, so that building
    /// a node neither allocates for it nor carries it inline.
    inbox: Vec<NodeMsg>,
}

/// What an inbox slot holds while its message is being handled, and
/// before its first frame: a message that owns no buffer.
fn vacant() -> NodeMsg {
    NodeMsg::Release {
        agent: AgentId::default(),
    }
}

impl MarpNode {
    /// Build the node for server `me` with the given routing table.
    pub fn new(me: NodeId, cfg: MarpConfig, routing: RoutingTable) -> Self {
        // MARP orders commits per object key (independent keys never
        // contend), so the store runs the per-key chain discipline.
        // Single-key workloads only ever touch chain 0 and remain
        // byte-identical to the global discipline.
        let core = ServerCore::keyed(me, cfg.server, wrap_sync);
        MarpNode {
            state: MarpServerState::new(core, routing, &cfg),
            runtime: AgentRuntime::new(cfg.migration, agent_header),
            read_runtime: AgentRuntime::new(cfg.migration, read_agent_header),
            batcher: RequestBatcher::new(cfg.batch),
            agent_seq: 0,
            outstanding: BTreeMap::new(),
            mail: MailCounters::default(),
            outbox: CommitOutcome::default(),
            ask_rotation: 0,
            inbox: Vec::new(),
        }
    }

    /// The server-side state (for tests and experiment harnesses).
    pub fn state(&self) -> &MarpServerState {
        &self.state
    }

    /// Server→agent mail sent so far.
    pub fn mail(&self) -> MailCounters {
        MailCounters {
            claims_held: self.state.claims_held(),
            ..self.mail
        }
    }

    /// Number of update agents currently hosted here.
    pub fn resident_agents(&self) -> usize {
        self.runtime.resident_count()
    }

    /// Number of read agents currently hosted here.
    pub fn resident_read_agents(&self) -> usize {
        self.read_runtime.resident_count()
    }

    /// The update-agent runtime (inspection: resident agents and their
    /// behaviour state).
    pub fn update_runtime(&self) -> &AgentRuntime<UpdateAgent> {
        &self.runtime
    }

    /// Batches dispatched from here whose commits have not yet been
    /// observed locally.
    pub fn outstanding_batches(&self) -> usize {
        self.outstanding.len()
    }

    fn me(&self) -> NodeId {
        self.state.core.me()
    }

    /// Dispatch agents for a ripe batch. Agents are key-uniform — one
    /// agent per object key present in the batch — so a batch mixing
    /// keys fans out into independent agents whose lock acquisitions
    /// cannot block each other. Single-key batches (every paper
    /// scenario) pass through as exactly one launch.
    ///
    /// SEAM(sharding): this is also where a key→replica-subset mapping
    /// would take effect — each per-key agent would receive an
    /// itinerary drawn from the key's replica subset instead of the
    /// full server set (`0..n_servers`: MARP as reproduced here is fully
    /// replicated, exactly as in the paper), and UPDATE/COMMIT broadcast
    /// targets and quorum sizes would draw from the same subset.
    /// Partial replication is intentionally *not* implemented; see
    /// `docs/KEYSPACE.md` §"The sharding seam".
    fn dispatch_agent(&mut self, batch: Vec<WriteRequest>, ctx: &mut dyn Context) {
        if batch.windows(2).all(|w| w[0].key == w[1].key) {
            self.launch(batch, 0, 1, ctx);
            return;
        }
        let mut by_key: BTreeMap<u64, Vec<WriteRequest>> = BTreeMap::new();
        for req in batch {
            by_key.entry(req.key).or_default().push(req);
        }
        for (_, group) in by_key {
            self.launch(group, 0, 1, ctx);
        }
    }

    /// The id of an agent born here now.
    fn new_agent_id(&mut self, ctx: &dyn Context) -> AgentId {
        let id = AgentId::new(self.me(), ctx.now(), self.agent_seq);
        self.agent_seq += 1;
        id
    }

    /// Launch one update agent for `batch` (original dispatch or a
    /// regeneration), register it in the dispatch registry, and arm its
    /// regeneration deadline.
    fn launch(
        &mut self,
        batch: Vec<WriteRequest>,
        incarnation: u32,
        attempts: u32,
        ctx: &mut dyn Context,
    ) {
        if batch.is_empty() {
            return;
        }
        let id = self.new_agent_id(ctx);
        ctx.trace(TraceEvent::AgentDispatched {
            agent: id.key(),
            home: self.me(),
            batch: batch.len(),
        });
        // Dispatch span: the agent's whole life (closed at disposal by
        // the runtime). Each carried request's span links into it.
        let dispatch_span = SpanKey::dispatch(id.key());
        ctx.trace(dispatch_span.start(None));
        for req in &batch {
            ctx.trace(SpanKey::request(req.id, self.me()).link_to(dispatch_span));
        }
        let epoch = u64::from(id.seq);
        self.outstanding.insert(
            epoch,
            OutstandingBatch {
                agent: id,
                requests: batch.clone(),
                incarnation,
                attempts,
            },
        );
        // The deadline backs off linearly with the attempt count so a
        // batch stuck in a deep contention backlog is not regenerated
        // at full cadence forever.
        let deadline =
            RetryPolicy::linear(self.state.config().redispatch_timeout, 4).next_delay(attempts);
        ctx.set_timer(deadline, TimerMux::tag(NodeTimer::Regen, epoch));
        let spare = self.runtime.take_spare();
        let agent =
            UpdateAgent::new(spare, id, self.state.config(), batch).with_incarnation(incarnation);
        self.runtime.spawn(agent, &mut self.state, ctx);
    }

    /// A regeneration deadline fired: if the batch still has
    /// uncommitted requests, its agent is presumed lost — launch a
    /// successor carrying the remainder under a bumped incarnation.
    fn regen_deadline(&mut self, epoch: u64, ctx: &mut dyn Context) {
        // No entry: the batch committed and was retired, or the
        // deadline was armed before a crash.
        let Some(batch) = self.outstanding.remove(&epoch) else {
            return;
        };
        let id = batch.agent;
        let remaining: Vec<WriteRequest> = batch
            .requests
            .into_iter()
            .filter(|r| !self.state.core.store.request_applied(r.id))
            .collect();
        if remaining.is_empty() {
            return;
        }
        if !self.state.config().regeneration {
            // Ablation mode: the loss is explicit in the trace, never
            // silent.
            ctx.trace(TraceEvent::Custom {
                kind: "regeneration-disabled",
                a: id.key(),
                b: remaining.len() as u64,
            });
            return;
        }
        ctx.trace(TraceEvent::Custom {
            kind: trace::AGENT_REGENERATED,
            a: id.key(),
            b: remaining.len() as u64,
        });
        self.launch(remaining, batch.incarnation + 1, batch.attempts + 1, ctx);
    }

    /// Mail the acknowledgements the server state left in the outbox.
    fn send_answers(&mut self, ctx: &mut dyn Context) {
        for answer in self.outbox.answers.drain(..) {
            let (frame, _) = AgentEnvelope::to_agent_frame(agent_header, answer.agent, &answer.ack);
            ctx.send(answer.reply_to, frame);
        }
    }

    /// Commit records arrived, in `winner`'s COMMIT or in a peer's Push:
    /// retire each winner, answer the claims that were held behind it,
    /// and tell the queued agents hosted here that it is gone. A waiter
    /// hosted elsewhere hears it from that host, at the moment the
    /// commit lands there.
    fn commits_arrived(
        &mut self,
        winner: Option<AgentId>,
        records: &[CommitRecord],
        ctx: &mut dyn Context,
    ) {
        let me = self.me();
        self.state
            .handle_commit(winner, records, ctx, &mut self.outbox);
        self.send_answers(ctx);
        for (finished, agent) in self.outbox.waiters.drain(..) {
            if self.runtime.resident(agent).is_none() {
                self.mail.notices_skipped += 1;
                continue;
            }
            let notice = AgentReply::LlChanged {
                finished,
                at: ctx.now(),
            };
            let (frame, len) = AgentEnvelope::to_agent_frame(agent_header, agent, &notice);
            self.mail.notices_sent += 1;
            self.mail.notice_bytes += len as u64;
            ctx.send(me, frame);
        }
    }

    fn handle_node_msg(&mut self, from: NodeId, msg: &mut NodeMsg, ctx: &mut dyn Context) {
        match msg {
            NodeMsg::Client(request) => {
                match self.state.core.handle_client_request(from, *request, ctx) {
                    marp_replica::ClientAction::Done => {}
                    marp_replica::ClientAction::Write(write) => {
                        if self.state.config().adaptive_batching {
                            self.adapt_batch_size(ctx);
                        }
                        if let Some(batch) = self.batcher.push(write, ctx.now()) {
                            self.dispatch_agent(batch, ctx);
                        } else if self.batcher.len() == 1 {
                            // This write starts a batch: its wait is the
                            // batch's deadline.
                            self.arm_batch_deadline(ctx);
                        }
                    }
                    marp_replica::ClientAction::FreshRead(read) => {
                        let id = self.new_agent_id(ctx);
                        let spare = self.read_runtime.take_spare();
                        let cfg = self.state.config();
                        let agent = ReadAgent::new(spare, id, cfg, read.id, read.client, read.key);
                        self.read_runtime.spawn(agent, &mut self.state, ctx);
                    }
                }
            }
            NodeMsg::Agent(envelope) => {
                self.runtime
                    .handle_envelope(from, envelope, &mut self.state, ctx);
            }
            NodeMsg::RAgent(envelope) => {
                self.read_runtime
                    .handle_envelope(from, envelope, &mut self.state, ctx);
            }
            NodeMsg::Update(update) => {
                // The claimant awaits its acks where it sent from.
                update.reply_to = from;
                self.state
                    .handle_update(update, ctx, &mut self.outbox.answers);
                self.send_answers(ctx);
            }
            NodeMsg::Commit(c) => self.commits_arrived(Some(c.agent), &c.records, ctx),
            NodeMsg::Release { agent } => {
                self.state
                    .handle_release(*agent, ctx, &mut self.outbox.answers);
                self.send_answers(ctx);
            }
            NodeMsg::LlQuery {
                agent,
                key,
                horizon,
            } => {
                // The full `LlInfo`, to where the agent is parked: the
                // recovery path for missed notices.
                let info = self
                    .state
                    .handle_ll_query(*agent, *key, from, horizon, ctx.now());
                let (frame, len) = AgentEnvelope::to_agent_frame(agent_header, *agent, &info);
                self.mail.replies_sent += 1;
                self.mail.reply_bytes += len as u64;
                ctx.send(from, frame);
            }
            NodeMsg::Sync(SyncMsg::Push { records }) => self.commits_arrived(None, records, ctx),
            NodeMsg::Sync(pull) => self.state.core.handle_sync(from, pull, ctx),
        }
    }

    /// Arm the one timer a pending batch needs: for the moment its
    /// oldest write has waited [`marp_replica::MAX_WAIT`]. An empty
    /// batcher arms none.
    fn arm_batch_deadline(&self, ctx: &mut dyn Context) {
        if let Some(wait) = self.batcher.due_in(ctx.now()) {
            ctx.set_timer(wait, TimerMux::tag(NodeTimer::BatchDeadline, 0));
        }
    }

    fn arm_maintenance(&self, ctx: &mut dyn Context) {
        let every = self.state.config().maintenance_interval;
        ctx.set_timer(every, TimerMux::tag(NodeTimer::Maintenance, 0));
    }

    /// The timers a (re)started node needs: the maintenance cycle, and
    /// the deadline of whatever writes are already pending.
    fn arm_node_timers(&self, ctx: &mut dyn Context) {
        self.arm_maintenance(ctx);
        self.arm_batch_deadline(ctx);
    }

    /// Adaptive batching (the §5 adaptivity hint): track the commit
    /// backlog — one outstanding batch means the pipe is busy but
    /// healthy; more means our agents are queueing behind each other
    /// and coalescing is cheaper than competing for the lock per
    /// request.
    fn adapt_batch_size(&mut self, ctx: &mut dyn Context) {
        let target = self.outstanding.len().clamp(1, 32);
        if target != self.batcher.max_batch() {
            ctx.trace(TraceEvent::Custom {
                kind: "adaptive-batch-size",
                a: target as u64,
                b: u64::from(self.me()),
            });
            self.batcher.set_max_batch(target);
        }
    }

    fn maintenance(&mut self, ctx: &mut dyn Context) {
        self.state.maintain(ctx, &mut self.outbox.answers);
        self.send_answers(ctx);
        if self.state.config().adaptive_batching {
            self.adapt_batch_size(ctx);
        }
        let n = self.state.config().n_servers as NodeId;
        if n > 1 {
            let turn = self.ask_rotation % (n - 1);
            self.ask_rotation = self.ask_rotation.wrapping_add(1);
            // A gap, a stale top or a stale reservation holder: the
            // commits this server lacks may exist only on servers it
            // cannot tell apart, so the pulls rotate over the others.
            if self.state.take_ask() || self.state.core.store.has_gap() {
                self.state.core.pull_from((self.me() + 1 + turn) % n, ctx);
            }
        }
        // Retire registry entries whose batch fully committed; their
        // regeneration deadlines go stale with them. (A deadline that
        // fires before this sweep re-checks the store itself, so the
        // sweep is an optimization, not a correctness requirement.)
        let store = &self.state.core.store;
        self.outstanding
            .retain(|_, batch| !batch.requests.iter().all(|r| store.request_applied(r.id)));
    }
}

impl Process for MarpNode {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.arm_node_timers(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        if self.inbox.is_empty() {
            self.inbox.resize_with(FRAME_SHAPES, vacant);
        }
        let shape = frame_shape(&msg);
        let mut held = std::mem::replace(&mut self.inbox[shape], vacant());
        match marp_wire::from_bytes_into(&mut held, &msg) {
            Ok(()) => self.handle_node_msg(from, &mut held, ctx),
            Err(_) => ctx.trace(TraceEvent::Custom {
                kind: "undecodable-message",
                a: u64::from(from),
                b: msg.len() as u64,
            }),
        }
        self.inbox[shape] = held;
    }

    fn on_timer(&mut self, timer: TimerId, tag: u64, ctx: &mut dyn Context) {
        if self.runtime.handle_timer(timer, &mut self.state, ctx) {
            return;
        }
        if self.read_runtime.handle_timer(timer, &mut self.state, ctx) {
            return;
        }
        let Some((kind, epoch)) = TimerMux::<NodeTimer>::split(tag) else {
            return;
        };
        match kind {
            NodeTimer::Regen => self.regen_deadline(epoch, ctx),
            NodeTimer::BatchDeadline => {
                // Not due means the batch this timer was armed for went
                // out by size; a later one has its own deadline.
                if let Some(batch) = self.batcher.take_if_due(ctx.now()) {
                    self.dispatch_agent(batch, ctx);
                }
            }
            NodeTimer::Maintenance => {
                self.maintenance(ctx);
                self.arm_maintenance(ctx);
            }
        }
    }

    fn on_recover(&mut self, ctx: &mut dyn Context) {
        self.state.on_recover();
        self.runtime.clear_volatile();
        self.read_runtime.clear_volatile();
        // The dispatch registry is volatile: regeneration timers from
        // the pre-crash life can never fire (the crash bumped the node
        // epoch), and in-flight client requests are re-driven by the
        // clients' own retries.
        self.outstanding.clear();
        self.arm_node_timers(ctx);
        let peer = (self.me() + 1) % self.state.config().n_servers as NodeId;
        if peer != self.me() {
            self.state.core.pull_from(peer, ctx);
        }
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::CommitMsg;
    use marp_net::Topology;
    use marp_sim::{RecordingCtx, SimTime};
    use std::time::Duration;

    fn test_ctx() -> RecordingCtx {
        RecordingCtx::new(0, SimTime::from_millis(9))
    }

    fn records_of(winner: AgentId) -> Vec<CommitRecord> {
        vec![CommitRecord {
            version: 1,
            key: 1,
            value: 7,
            agent: winner.key(),
            request: 1,
            committed_at: SimTime::from_millis(8),
        }]
    }

    fn commit_of(winner: AgentId) -> Bytes {
        marp_wire::to_bytes(&NodeMsg::Commit(CommitMsg {
            agent: winner,
            records: records_of(winner),
        }))
    }

    /// The same record as a peer's anti-entropy Push.
    fn push_of(winner: AgentId) -> Bytes {
        wrap_sync(SyncMsg::Push {
            records: records_of(winner),
        })
    }

    fn tag_of(kind: NodeTimer) -> u64 {
        TimerMux::tag(kind, 0)
    }

    fn test_node() -> MarpNode {
        let topo = Topology::uniform_lan(3, Duration::from_millis(1));
        MarpNode::new(0, MarpConfig::new(3), RoutingTable::from_topology(0, &topo))
    }

    fn agent_ids() -> [AgentId; 3] {
        [0, 1, 2].map(|home| AgentId::new(home, SimTime::from_millis(1), 0))
    }

    /// A node whose key-1 queue holds the winner, then two waiters: one
    /// last seen here (but no longer resident) and one last seen at
    /// server 2.
    fn node_with_queue() -> (MarpNode, [AgentId; 3]) {
        let mut node = test_node();
        let agents = agent_ids();
        let lease = node.state.core.lock_lease();
        for (agent, last_host) in agents.iter().zip([1, 0, 2]) {
            node.state
                .core
                .ll
                .request(1, *agent, SimTime::from_millis(2), lease, last_host);
        }
        (node, agents)
    }

    /// Decode the agent mail in `sent`, as `(to, agent, reply)`.
    fn agent_mail(sent: &[(NodeId, Bytes)]) -> Vec<(NodeId, AgentId, AgentReply)> {
        sent.iter()
            .filter_map(
                |(to, frame)| match marp_wire::from_bytes::<NodeMsg>(frame) {
                    Ok(NodeMsg::Agent(AgentEnvelope::ToAgent { agent, payload })) => {
                        Some((*to, agent, marp_wire::from_bytes(&payload).unwrap()))
                    }
                    _ => None,
                },
            )
            .collect()
    }

    /// However the winner's commit record reaches a server — `carrier`
    /// frames it — the server mails exactly the waiters resident on it
    /// and nothing off-node.
    fn retiring_the_winner_mails_the_resident_waiter(carrier: fn(AgentId) -> Bytes) {
        let mut node = test_node();
        let [winner, parked, remote] = agent_ids();
        let write = |id| WriteRequest {
            id,
            client: 9,
            key: 1,
            value: id,
            arrived: SimTime::ZERO,
        };
        // The winner toured and left; `remote` queued here on its tour
        // and parked at server 2 (its re-poll even named that host);
        // `parked` exhausted its itinerary here and stays.
        let lease = node.state.core.lock_lease();
        for (agent, last_host) in [(winner, 1), (remote, 2)] {
            node.state
                .core
                .ll
                .request(1, agent, SimTime::from_millis(2), lease, last_host);
        }
        let mut ctx = test_ctx();
        // Nowhere left to go: it parks on arrival.
        let resident = UpdateAgent::new(None, parked, node.state.config(), vec![write(2)])
            .with_itinerary_done();
        node.runtime.spawn(resident, &mut node.state, &mut ctx);
        assert!(matches!(
            node.runtime.resident(parked).map(|a| a.phase()),
            Some(crate::agent::Phase::Parked { .. })
        ));
        ctx.sent.clear();

        node.on_message(1, carrier(winner), &mut ctx);

        let mail = agent_mail(&ctx.sent);
        assert_eq!(
            mail,
            vec![(
                0,
                parked,
                AgentReply::LlChanged {
                    finished: winner,
                    at: SimTime::from_millis(9),
                }
            )]
        );
        assert!(
            ctx.sent.iter().all(|(to, _)| *to == 0),
            "a commit sends nothing across the network"
        );
        let notice_len = marp_wire::to_bytes(&mail[0].2).len() as u64;
        assert_eq!(
            node.mail(),
            MailCounters {
                notices_sent: 1,
                notice_bytes: notice_len,
                notices_skipped: 1,
                ..MailCounters::default()
            }
        );
        assert!(node.state().core.ll.contains(1, remote));
    }

    #[test]
    fn commit_mails_exactly_the_resident_waiters_and_nothing_off_node() {
        retiring_the_winner_mails_the_resident_waiter(commit_of);
    }

    #[test]
    fn a_pushed_commit_mails_the_resident_waiters_like_a_commit() {
        retiring_the_winner_mails_the_resident_waiter(push_of);
    }

    #[test]
    fn commit_skips_departed_agents() {
        let (mut node, [winner, departed, remote]) = node_with_queue();
        let mut ctx = test_ctx();
        node.on_message(1, commit_of(winner), &mut ctx);
        // Neither waiter is hosted here: one migrated away (mail would
        // only produce an `agent-msg-missed`), the other is told by
        // server 2.
        assert!(ctx.sent.is_empty());
        assert!(!ctx.traced.iter().any(|e| matches!(
            e,
            TraceEvent::Custom {
                kind: trace::AGENT_MSG_MISSED,
                ..
            }
        )));
        assert_eq!(
            node.mail(),
            MailCounters {
                notices_skipped: 2,
                ..MailCounters::default()
            }
        );
        assert!(node.state().core.ll.contains(1, departed));
        assert!(node.state().core.ll.contains(1, remote));
    }

    #[test]
    fn a_held_claim_is_acked_by_the_commit_that_frees_it() {
        let (mut node, [winner, _, successor]) = node_with_queue();
        node.state.core.ll.remove(1, agent_ids()[1]);
        let mut ctx = test_ctx();
        // Each claimant's acks go back to the host it sent from.
        let update = |agent: AgentId| {
            marp_wire::to_bytes(&NodeMsg::Update(crate::msg::UpdateMsg {
                agent,
                attempt: 1,
                incarnation: 0,
                reply_to: 0,
                requests: vec![WriteRequest {
                    id: u64::from(agent.home) + 1,
                    client: 9,
                    key: 1,
                    value: 1,
                    arrived: SimTime::ZERO,
                }],
                tie_certificate: None,
            }))
        };
        node.on_message(1, update(winner), &mut ctx);
        let mail = agent_mail(&ctx.sent);
        assert_eq!(mail.len(), 1);
        assert_eq!((mail[0].0, mail[0].1), (1, winner));
        // The successor's UPDATE overtakes the winner's COMMIT: nothing
        // is sent until the COMMIT lands.
        node.on_message(2, update(successor), &mut ctx);
        assert_eq!(agent_mail(&ctx.sent).len(), 1);
        assert_eq!(node.mail().claims_held, 1);
        node.on_message(1, commit_of(winner), &mut ctx);
        let mail = agent_mail(&ctx.sent);
        assert_eq!(mail.len(), 2);
        let (to, agent, reply) = &mail[1];
        assert_eq!((*to, *agent), (2, successor));
        assert!(matches!(
            reply,
            AgentReply::UpdateAck {
                positive: true,
                store_version: 1,
                ..
            }
        ));
    }

    #[test]
    fn ll_query_is_answered_with_a_counted_full_reply() {
        let (mut node, [_, _, remote]) = node_with_queue();
        let mut ctx = test_ctx();
        let query = NodeMsg::LlQuery {
            agent: remote,
            key: 1,
            horizon: marp_agent::Horizon::new(),
        };
        node.on_message(2, marp_wire::to_bytes(&query), &mut ctx);
        // Back to the sender, where the agent is parked.
        assert_eq!(ctx.sent.len(), 1);
        assert_eq!(ctx.sent[0].0, 2);
        let Ok(NodeMsg::Agent(AgentEnvelope::ToAgent { payload, .. })) =
            marp_wire::from_bytes::<NodeMsg>(&ctx.sent[0].1)
        else {
            panic!("expected agent mail");
        };
        assert!(matches!(
            marp_wire::from_bytes::<AgentReply>(&payload).unwrap(),
            AgentReply::LlInfo { .. }
        ));
        assert_eq!(node.mail().replies_sent, 1);
        assert_eq!(node.mail().reply_bytes, payload.len() as u64);
    }

    fn client_write(id: u64) -> Bytes {
        marp_wire::to_bytes(&NodeMsg::Client(marp_replica::ClientRequest {
            id,
            op: marp_replica::Operation::Write { key: 1, value: id },
        }))
    }

    fn dispatches(ctx: &RecordingCtx) -> usize {
        ctx.traced
            .iter()
            .filter(|e| matches!(e, TraceEvent::AgentDispatched { .. }))
            .count()
    }

    #[test]
    fn an_idle_node_arms_no_batch_timer() {
        let mut node = test_node();
        let mut ctx = test_ctx();
        node.on_start(&mut ctx);
        let maintenance = node.state.config().maintenance_interval;
        assert_eq!(ctx.armed, [(maintenance, tag_of(NodeTimer::Maintenance))]);
        // Maintenance re-arms itself and nothing else.
        node.on_timer(TimerId(1), tag_of(NodeTimer::Maintenance), &mut ctx);
        assert_eq!(
            ctx.armed,
            [(maintenance, tag_of(NodeTimer::Maintenance)); 2]
        );
        // With batches of one (every benchmark workload) a write
        // dispatches at once and leaves nothing to wait for.
        node.on_message(9, client_write(1), &mut ctx);
        assert_eq!(dispatches(&ctx), 1);
        assert!(ctx
            .armed
            .iter()
            .all(|&(_, tag)| tag != tag_of(NodeTimer::BatchDeadline)));
        // Nor does a recovery with nothing pending.
        ctx.armed.clear();
        node.on_recover(&mut ctx);
        assert_eq!(ctx.armed, [(maintenance, tag_of(NodeTimer::Maintenance))]);
    }

    #[test]
    fn a_lone_write_in_a_batch_of_four_dispatches_exactly_max_wait_later() {
        let topo = Topology::uniform_lan(3, Duration::from_millis(1));
        let mut cfg = MarpConfig::new(3);
        cfg.batch.max_batch = 4;
        let max_wait = marp_replica::MAX_WAIT;
        let mut node = MarpNode::new(0, cfg, RoutingTable::from_topology(0, &topo));
        let mut ctx = test_ctx();
        let arrived = ctx.now;
        node.on_message(9, client_write(1), &mut ctx);
        assert_eq!(dispatches(&ctx), 0);
        assert_eq!(ctx.armed, [(max_wait, tag_of(NodeTimer::BatchDeadline))]);
        // A second write joins the batch; the deadline is the first's.
        ctx.now = arrived + Duration::from_millis(20);
        node.on_message(9, client_write(2), &mut ctx);
        assert_eq!(ctx.armed.len(), 1);
        // The timer fires `max_wait` after the first write arrived —
        // not at the next multiple of `max_wait` — and both go out.
        ctx.now = arrived + max_wait;
        node.on_timer(TimerId(1), tag_of(NodeTimer::BatchDeadline), &mut ctx);
        assert!(ctx
            .traced
            .iter()
            .any(|e| matches!(e, TraceEvent::AgentDispatched { batch: 2, .. })));
        // Nothing pending, nothing armed: the next write starts over.
        assert!(ctx
            .armed
            .iter()
            .skip(1)
            .all(|&(_, tag)| tag != tag_of(NodeTimer::BatchDeadline)));
        ctx.now = arrived + Duration::from_millis(70);
        node.on_message(9, client_write(3), &mut ctx);
        assert_eq!(
            ctx.armed.last(),
            Some(&(max_wait, tag_of(NodeTimer::BatchDeadline))),
            "a full wait from the new batch's first write"
        );
        // A recovery re-arms the deadline of what is still pending, for
        // the time that is left.
        ctx.armed.clear();
        ctx.now = arrived + Duration::from_millis(100);
        node.on_recover(&mut ctx);
        assert!(ctx.armed.contains(&(
            max_wait - Duration::from_millis(30),
            tag_of(NodeTimer::BatchDeadline)
        )));
    }
}
