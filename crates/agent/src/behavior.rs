//! The agent behaviour model.
//!
//! A mobile agent is a state machine ([`AgentBehavior`]) whose state is
//! `Wire`-serializable. The hosting runtime calls its handlers; every
//! handler returns an [`Action`] telling the runtime whether the agent
//! stays, migrates, or disposes itself. While a handler runs it can talk
//! to the *local* host through the `Host` parameter (this is the paper's
//! "taking advantage of being in the same site as the peer process": host
//! interaction is a direct call, not a message) and to the rest of the
//! system through the [`AgentEnv`].

use crate::horizon::Horizon;
use crate::id::AgentId;
use bytes::{Bytes, BytesMut};
use marp_sim::{Context, FixedState, NodeId, SimTime, SpanKey, TimerId, TraceEvent};
use marp_wire::Wire;
use std::collections::HashMap;
use std::time::Duration;

/// What the agent does next, decided by each behaviour handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Remain at the current host, waiting for messages or timers.
    Stay,
    /// Serialize and travel to another host.
    Migrate(NodeId),
    /// Terminate; the paper's `dispose`.
    Dispose,
}

/// A mobile agent's behaviour state machine.
///
/// The state must round-trip through the wire codec — that *is* the
/// migration mechanism.
pub trait AgentBehavior: Wire + Send + 'static {
    /// The interface the local host exposes to visiting agents (for
    /// MARP this is the replica server's lock/gossip/store surface).
    type Host: ?Sized;

    /// This agent's identity (stable across migrations).
    fn id(&self) -> AgentId;

    /// Name this agent. The runtime calls it on each arrival, with the
    /// id the `Migrate` envelope carried, before any other hook: the
    /// envelope names the agent, so its state need not (a behaviour
    /// declares its id field `off_wire` in its `wire_struct!`).
    fn set_id(&mut self, id: AgentId);

    /// Whether freshly decoded state, named `agent` by its `Migrate`
    /// envelope, names only what `host`'s system holds. Decoding cannot
    /// know the system (its size, say), so the runtime asks here, once
    /// per arrival, right after decoding and before any other hook
    /// (before [`Self::set_id`], so the state does not yet hold
    /// `agent`): an arrival refused is outside input no honest host
    /// could have sent, and is disposed of unrun (traced as
    /// [`marp_sim::trace::AGENT_STATE_FORGED`]). The default admits
    /// everything.
    fn validate(&self, _agent: AgentId, _host: &Self::Host) -> bool {
        true
    }

    /// The span covering this agent's life: the runtime parents every
    /// migration to it and closes it at disposal. Whoever launches the
    /// agent opens it; by default it is the dispatch span.
    fn life_span(&self) -> SpanKey {
        SpanKey::dispatch(self.id().key())
    }

    /// The agent's state just arrived (or was created) at a host.
    fn on_arrive(&mut self, host: &mut Self::Host, env: &mut AgentEnv<'_>) -> Action;

    /// A [`ToAgent`](crate::AgentEnvelope::ToAgent) payload addressed
    /// to this agent.
    fn on_agent_message(
        &mut self,
        _from: NodeId,
        _payload: Bytes,
        _host: &mut Self::Host,
        _env: &mut AgentEnv<'_>,
    ) -> Action {
        Action::Stay
    }

    /// A timer this agent armed through [`AgentEnv::set_timer`] fired.
    fn on_timer(&mut self, _tag: u64, _host: &mut Self::Host, _env: &mut AgentEnv<'_>) -> Action {
        Action::Stay
    }

    /// Migration to `dest` was abandoned after `attempts` tries. The
    /// paper's rule: declare the replica unavailable and continue with
    /// the rest of the itinerary.
    fn on_migrate_failed(
        &mut self,
        dest: NodeId,
        attempts: u32,
        host: &mut Self::Host,
        env: &mut AgentEnv<'_>,
    ) -> Action;

    /// Write into the empty `horizon` what `host` already knows about
    /// the state this agent carries, as `server → highest locking-list
    /// snapshot version` (for MARP: the host's board and own queue for
    /// the agent's object key). The runtime calls it on the freshly
    /// decoded arrival, *before* [`Self::on_arrive`], and piggybacks
    /// the answer on the [`MigrateAck`](crate::AgentEnvelope::MigrateAck),
    /// so the sender can delta-encode the next agent of the same kind it
    /// ships here. The default (no horizon tracking) leaves it empty.
    fn host_horizon(&self, _host: &Self::Host, _horizon: &mut Horizon) {}

    /// The [`MigrateAck`](crate::AgentEnvelope::MigrateAck) for this
    /// agent's hop to `peer` advertised `peer`'s horizon (see
    /// [`Self::host_horizon`]); record it in the local host so later
    /// agents migrating from here to `peer` can shrink their carried
    /// state. The horizon is the decoded ack's: a host that keeps it
    /// swaps it for the buffer it replaces, which the next ack is
    /// decoded into.
    fn record_peer_horizon(&self, _host: &mut Self::Host, _peer: NodeId, _horizon: &mut Horizon) {}

    /// About to serialize and ship this agent to `dest`: last chance to
    /// shed state the destination already knows (delta-encoded Locking
    /// Tables). Runs on the source host, *before* `Wire::encode`.
    fn before_migrate(&mut self, _dest: NodeId, _host: &mut Self::Host) {}

    /// How many locking-knowledge entries this agent is carrying right
    /// now (Locking Table queue entries plus Updated List entries for
    /// MARP update agents). Sampled by the runtime at each migration —
    /// after [`Self::before_migrate`] sheds state — and emitted as a
    /// `Custom` [`marp_sim::trace::LT_ENTRIES_CARRIED`] event so profiling
    /// can attribute wire growth to carried state. Behaviours with no
    /// such tables report 0 and emit nothing.
    fn carried_lt_entries(&self) -> u64 {
        0
    }

    /// How many *distinct* agent ids those entries name — what the
    /// shipped table spells out once, the entries being small indices.
    /// Emitted beside it as [`marp_sim::trace::LT_IDS_CARRIED`];
    /// entries ÷ ids is how often a carried table repeats itself.
    fn carried_lt_ids(&self) -> u64 {
        0
    }
}

/// Writes the header of the owner process's message that wraps an
/// [`AgentEnvelope`](crate::AgentEnvelope) (the tag of its variant
/// that carries envelopes); the runtime writes the envelope after it,
/// into the same buffer.
pub type WrapFn = fn(&mut BytesMut);

/// Services available to a behaviour handler: the clock, messaging, and
/// host-local timers. Timers are volatile — they do not survive
/// migration or a host crash, matching real agent platforms.
pub struct AgentEnv<'a> {
    pub(crate) ctx: &'a mut dyn Context,
    pub(crate) agent: AgentId,
    pub(crate) agent_timers: &'a mut TimerMap<(AgentId, u64)>,
}

/// A map keyed by the host's timers.
pub(crate) type TimerMap<V> = HashMap<TimerId, V, FixedState>;

impl AgentEnv<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// The node currently hosting the agent.
    pub fn here(&self) -> NodeId {
        self.ctx.me()
    }

    /// Send a raw, already-encoded message to a node's owner process
    /// (used for protocol traffic such as the MARP `UPDATE`/`COMMIT`
    /// broadcasts).
    pub fn send_raw(&mut self, to: NodeId, msg: Bytes) {
        self.ctx.send(to, msg);
    }

    /// Arm a host-local timer for this agent; `tag` is returned to
    /// [`AgentBehavior::on_timer`].
    pub fn set_timer(&mut self, after: Duration, tag: u64) -> TimerId {
        let id = self.ctx.set_timer(after, tag);
        self.agent_timers.insert(id, (self.agent, tag));
        id
    }

    /// Cancel a timer armed by this agent.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.agent_timers.remove(&id);
        self.ctx.cancel_timer(id);
    }

    /// Emit a structured trace event.
    pub fn trace(&mut self, event: TraceEvent) {
        self.ctx.trace(event);
    }
}
