//! The MARP update agent — the paper's Algorithm 1.
//!
//! One agent is dispatched per batch of write requests. It travels the
//! replica set appending itself to Locking Lists and accumulating its
//! Locking Table; when the priority calculation (see [`crate::lt`])
//! says it holds the distributed lock it broadcasts `UPDATE`, waits for
//! more than N/2 acknowledgements, broadcasts `COMMIT`, and disposes.
//!
//! Differences from the paper's pseudo-code are confined to robustness
//! (documented in `DESIGN.md`): UPDATE acknowledgements validate the
//! claim and reserve the lock; a claim that cannot assemble a positive
//! majority is released and retried — a claim whose only obstacle is
//! the previous winner's reservation is *held* by the server and
//! answered when that winner's COMMIT lands, so the lock hands over
//! without a refusal (see `host.rs`); an agent that exhausts its
//! itinerary *parks*; its host pushes it a small change notice on every
//! COMMIT ("agent W finished"), and periodic re-polls — which double as
//! lock lease refreshes — fetch the full picture if a notice was lost.
//! A re-poll whose timer ran while notices were arriving has nothing to
//! ask and stays quiet, up to `MAX_QUIET_FIRES` times in a row.

use crate::host::MarpServerState;
use crate::lt::{decide, majority, LockingTable, Priority};
use crate::msg::{AgentReply, CommitMsg, NodeMsg, UpdateMsg};
use bytes::Bytes;
use marp_agent::{Action, AgentBehavior, AgentEnv, AgentId, Itinerary};
use marp_quorum::{QuorumCall, RetryPolicy, TimerMux, Verdict};
use marp_replica::{CommitRecord, UpdatedList, WriteRequest};
use marp_sim::{span_id, NodeId, SpanKind, TraceEvent};
use std::collections::BTreeMap;
use std::time::Duration;

marp_quorum::timer_kinds! {
    /// The agent's timer kinds: a parked agent's next look at the
    /// Locking Lists, and the deadline for a claim's UPDATE acks. A
    /// tag's epoch is the agent's `attempt` when the timer was armed.
    enum AgentTimer { Repoll = 1, Ack = 2 }
}
/// The re-poll backoff doubles this many times (25 ms → 200 ms).
const REPOLL_MAX_DOUBLINGS: u32 = 3;
/// Consecutive re-poll fires that LL news may silence before one
/// queries anyway: the same 8× cap as the backoff, so lock leases are
/// refreshed at least every ~8 × `park_repoll`.
const MAX_QUIET_FIRES: u8 = 1 << REPOLL_MAX_DOUBLINGS;

/// The agent's current protocol phase.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// Working through the itinerary.
    Travelling,
    /// Itinerary exhausted; waiting for the locking picture to change.
    /// The re-poll bookkeeping lives here because only a parked agent
    /// has any: one that travels cannot carry it.
    Parked {
        /// Re-poll timers armed since the last LL news (which zeroes
        /// it): the backoff step of the next one, and a fire that finds
        /// it 0 knows news arrived while its timer ran.
        round: u32,
        /// Consecutive re-poll fires that sent no query because of
        /// that.
        quiet_fires: u8,
    },
    /// Lock claimed; collecting UPDATE acknowledgements.
    Updating {
        /// Whether the claim came from stuck-configuration resolution.
        via_tie: bool,
        /// The tie certificate sent with the claim.
        certificate: Vec<AgentId>,
        /// The majority ack round; each positive reply carries the
        /// server's applied version. Its start time is when the lock was
        /// established (the paper's ALT endpoint).
        call: QuorumCall<u64>,
        /// LL news (a change notice or an `LlInfo`) was absorbed while
        /// this claim was in flight. If the claim then aborts, the view
        /// it was refused on is already out of date — typically the
        /// claim's UPDATE overtook the previous winner's COMMIT — so the
        /// agent re-evaluates at once instead of waiting for a re-poll.
        news: bool,
    },
}

marp_wire::wire_enum!(Phase {
    0 => Travelling,
    1 => Parked { round, quiet_fires },
    2 => Updating { via_tie, certificate, call, news },
});

/// The travelling update agent: the paper's four lists (§3.2), where it
/// has been, and how often it has claimed. Everything else it needs —
/// the cluster size, the gossip and delta switches, its timeouts — it
/// reads from the [`MarpConfig`](crate::MarpConfig) of the host it is
/// running on.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateAgent {
    id: AgentId,
    /// Request List: the writes this agent carries (paper §3.2).
    rl: Vec<WriteRequest>,
    /// Un-visited Servers List (paper §3.2).
    itinerary: Itinerary,
    /// Locking Table (paper §3.2).
    lt: LockingTable,
    /// Updated Agents List (paper §3.2).
    ual: UpdatedList,
    visited: Vec<NodeId>,
    /// Claims made so far. Also the epoch of every timer the agent
    /// arms: it grows between any two claims and between any two parks
    /// on one host (only a claim leaves `Parked` without leaving the
    /// host), so a fire from an earlier one is recognizably stale.
    attempt: u32,
    /// Regeneration incarnation assigned by the home replica's dispatch
    /// registry: 0 for the original agent, bumped for each regeneration
    /// of the same batch. Servers fence claims from stale incarnations.
    incarnation: u32,
    /// One tag byte on the wire: an agent only ever leaves a host as
    /// [`Phase::Travelling`].
    phase: Phase,
}

marp_wire::wire_struct!(UpdateAgent {
    id,
    rl,
    itinerary,
    lt,
    ual,
    visited,
    attempt,
    incarnation,
    phase
});

impl UpdateAgent {
    /// Create an agent carrying `requests`, ready to be spawned at its
    /// home server.
    pub fn new(id: AgentId, cfg: &crate::MarpConfig, requests: Vec<WriteRequest>) -> Self {
        UpdateAgent {
            id,
            rl: requests,
            itinerary: Itinerary::for_system(cfg.n_servers, id.home, cfg.itinerary),
            lt: LockingTable::new(),
            ual: UpdatedList::new(),
            visited: Vec::new(),
            attempt: 0,
            incarnation: 0,
            phase: Phase::Travelling,
        }
    }

    /// Mark this agent as incarnation `incarnation` of its batch (0 is
    /// the original dispatch; the home's dispatch registry bumps it for
    /// every regeneration).
    pub fn with_incarnation(mut self, incarnation: u32) -> Self {
        self.incarnation = incarnation;
        self
    }

    /// The agent with every itinerary stop already consumed: it parks
    /// on arrival unless it wins there.
    #[cfg(test)]
    pub(crate) fn with_itinerary_done(mut self) -> Self {
        while self.itinerary.next_destination(|_| 0.0).is_some() {}
        self
    }

    /// This agent's regeneration incarnation.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Current phase (for inspection).
    pub fn phase(&self) -> &Phase {
        &self.phase
    }

    /// Servers visited so far (the paper's K in PRK).
    pub fn visits(&self) -> u32 {
        self.visited.len() as u32
    }

    /// Replicas backing this copy's lock — the K that Theorem 3 bounds.
    /// Usually equal to [`Self::visits`], but the theorem's real
    /// quantity is Locking-List presence: after a duplicated migration
    /// (home re-sends the agent on a lost migrate-ack) a clone shares
    /// its sibling's AgentId and therefore inherits its LL enqueues, so
    /// it can legitimately win with a hop count below the majority.
    /// `max` also keeps the hop count authoritative if a lease expiry
    /// shrinks the observed presence mid-flight.
    fn lock_backing(&self) -> u32 {
        self.visits().max(self.lt.presence_count(self.id) as u32)
    }

    /// The requests this agent carries.
    pub fn requests(&self) -> &[WriteRequest] {
        &self.rl
    }

    /// The object key this agent's batch writes. Batches are
    /// key-uniform — the home node splits mixed batches at dispatch —
    /// so the first request speaks for all of them (an empty batch
    /// never dispatches; 0 is the single-key default).
    pub fn key(&self) -> u64 {
        self.rl.first().map_or(0, |r| r.key)
    }

    /// The agent's Locking Table (inspection).
    pub fn locking_table(&self) -> &LockingTable {
        &self.lt
    }

    /// The agent's Updated-Agents List (inspection).
    pub fn ual(&self) -> &UpdatedList {
        &self.ual
    }

    /// Read a server's Updated List in place: take the entries this
    /// agent's table names (and its own, the zombie-clone self-check) —
    /// the only ones `decide` can ask about, and all that
    /// `before_migrate` would let travel.
    fn absorb(&mut self, ul: &UpdatedList) {
        let asked = self.lt.roster().iter().copied().chain([self.id]);
        self.ual.absorb(ul, asked);
    }

    fn evaluate(&mut self, host: &mut MarpServerState, env: &mut AgentEnv<'_>) -> Action {
        if matches!(self.phase, Phase::Updating { .. }) {
            return Action::Stay;
        }
        let n = host.config().n_servers;
        match decide(
            &self.lt,
            self.id,
            n,
            &self.ual,
            self.itinerary.unavailable(),
        ) {
            Priority::Win {
                via_tie,
                certificate,
            } => {
                self.start_update(host, env, via_tie, certificate);
                Action::Stay
            }
            Priority::NotYet => {
                if let Some(next) = self.itinerary.next_destination(|to| host.route_cost(to)) {
                    self.phase = Phase::Travelling;
                    return Action::Migrate(next);
                }
                // Itinerary exhausted. If the agent is not enqueued at a
                // strict majority (some replicas were unavailable when it
                // travelled), it can never win — begin the paper's "next
                // round": the skipped replicas become visitable again,
                // catching ones that have since recovered. (Presence is a
                // walk of the table: ask only when a round could begin.)
                if !self.itinerary.unavailable().is_empty()
                    && self.lt.presence_count(self.id) < majority(n)
                    && self.itinerary.begin_next_round() > 0
                {
                    if let Some(next) = self.itinerary.next_destination(|to| host.route_cost(to)) {
                        self.phase = Phase::Travelling;
                        return Action::Migrate(next);
                    }
                }
                self.enter_parked(host, env);
                Action::Stay
            }
        }
    }

    fn enter_parked(&mut self, host: &MarpServerState, env: &mut AgentEnv<'_>) {
        if matches!(self.phase, Phase::Parked { .. }) {
            return;
        }
        self.phase = Phase::Parked {
            round: 0,
            quiet_fires: 0,
        };
        self.arm_repoll(host, env);
    }

    /// Arm the parked agent's next re-poll. Parked agents mostly learn
    /// of LL changes through pushed notifications, so the re-poll is a
    /// fallback that should not flood the network under heavy
    /// contention — exponential in the timers armed since the last
    /// news, capped at 8x, with a small deterministic per-agent stagger
    /// so many agents parking together do not re-poll in lockstep.
    fn arm_repoll(&mut self, host: &MarpServerState, env: &mut AgentEnv<'_>) {
        let Phase::Parked { round, .. } = &mut self.phase else {
            return;
        };
        let delay = RetryPolicy::exponential(host.config().park_repoll, REPOLL_MAX_DOUBLINGS)
            .staggered(Duration::from_millis(1), self.id.key(), 8)
            .next_delay(*round);
        *round = round.saturating_add(1);
        let tag = TimerMux::tag(AgentTimer::Repoll, u64::from(self.attempt));
        env.set_timer(delay, tag);
    }

    fn start_update(
        &mut self,
        host: &MarpServerState,
        env: &mut AgentEnv<'_>,
        via_tie: bool,
        certificate: Vec<AgentId>,
    ) {
        self.attempt += 1;
        env.trace(TraceEvent::SpanEnd {
            id: span_id(
                SpanKind::LockAcquire,
                self.id.key(),
                u64::from(self.attempt),
            ),
            kind: SpanKind::LockAcquire,
        });
        let update_span = span_id(
            SpanKind::UpdateQuorum,
            self.id.key(),
            u64::from(self.attempt),
        );
        env.trace(TraceEvent::SpanStart {
            id: update_span,
            parent: span_id(SpanKind::Dispatch, self.id.key(), 0),
            kind: SpanKind::UpdateQuorum,
            a: self.id.key(),
            b: u64::from(self.attempt),
        });
        env.trace(TraceEvent::LockGranted {
            agent: self.id.key(),
            node: env.here(),
            visits: self.lock_backing(),
            via_tie,
        });
        env.trace(TraceEvent::UpdateSent {
            agent: self.id.key(),
            // The base the claimant believes in: final versions are
            // assigned at COMMIT, on top of the quorum's maximum.
            version: host.core.store.applied_version_for(self.key()),
        });
        let msg = NodeMsg::Update(UpdateMsg {
            agent: self.id,
            attempt: self.attempt,
            incarnation: self.incarnation,
            reply_to: env.here(),
            requests: self.rl.clone(),
            tie_certificate: via_tie.then(|| certificate.clone()),
        });
        broadcast(host, env, &msg);
        let n = host.config().n_servers as NodeId;
        self.phase = Phase::Updating {
            via_tie,
            certificate,
            call: QuorumCall::majority(n, env.now()).with_span(update_span),
            news: false,
        };
        let tag = TimerMux::tag(AgentTimer::Ack, u64::from(self.attempt));
        env.set_timer(host.config().ack_timeout, tag);
    }

    fn commit_and_dispose(&mut self, host: &MarpServerState, env: &mut AgentEnv<'_>) -> Action {
        let Phase::Updating { call, .. } = &self.phase else {
            return Action::Stay;
        };
        let locked_at = call.started();
        // "It then checks the time of last update of all the quorum
        // members and uses the most recent copy": commit on top of the
        // quorum's maximum applied version.
        let base = call.max_payload().unwrap_or(0);
        let records: Vec<CommitRecord> = self
            .rl
            .iter()
            .enumerate()
            .map(|(i, req)| CommitRecord {
                version: base + 1 + i as u64,
                key: req.key,
                value: req.value,
                agent: self.id.key(),
                request: req.id,
                committed_at: env.now(),
            })
            .collect();
        let msg = NodeMsg::Commit(CommitMsg {
            agent: self.id,
            records,
        });
        broadcast(host, env, &msg);
        let update_span = span_id(
            SpanKind::UpdateQuorum,
            self.id.key(),
            u64::from(self.attempt),
        );
        env.trace(TraceEvent::SpanEnd {
            id: update_span,
            kind: SpanKind::UpdateQuorum,
        });
        // Commit spans close at each request's home server when the
        // commit record reaches its pending client (ServerCore).
        for req in &self.rl {
            env.trace(TraceEvent::SpanStart {
                id: span_id(SpanKind::Commit, self.id.key(), req.id),
                parent: update_span,
                kind: SpanKind::Commit,
                a: self.id.key(),
                b: req.id,
            });
        }
        for req in &self.rl {
            env.trace(TraceEvent::UpdateCompleted {
                request: req.id,
                home: self.id.home,
                arrived: req.arrived,
                dispatched: self.id.born,
                locked: locked_at,
                visits: self.lock_backing(),
            });
        }
        Action::Dispose
    }

    /// A server's fenced refusal told this agent it is superseded — a
    /// higher incarnation owns its requests, or every request it
    /// carries has already committed. Release everything and dispose;
    /// if the work is in fact unfinished, the home's dispatch registry
    /// regenerates it under a fresh incarnation. This extends the
    /// zombie-clone self-check: the UL catches clones of the *same*
    /// agent id, the fence catches zombies across regenerations.
    fn superseded(&mut self, host: &MarpServerState, env: &mut AgentEnv<'_>) -> Action {
        env.trace(TraceEvent::Custom {
            kind: "agent-superseded",
            a: self.id.key(),
            b: u64::from(self.incarnation),
        });
        env.trace(TraceEvent::SpanEnd {
            id: span_id(
                SpanKind::UpdateQuorum,
                self.id.key(),
                u64::from(self.attempt),
            ),
            kind: SpanKind::UpdateQuorum,
        });
        let msg = NodeMsg::Release { agent: self.id };
        broadcast(host, env, &msg);
        Action::Dispose
    }

    /// Give up the current claim. Returns the next action: normally the
    /// agent just parks until a notice or re-poll, but if LL news
    /// arrived during the claim (the `news` flag of `Phase::Updating`)
    /// it re-evaluates immediately. Each retry consumes the news that
    /// justified it, so retries are bounded by the news received.
    fn abort_claim(&mut self, host: &mut MarpServerState, env: &mut AgentEnv<'_>) -> Action {
        let retry = matches!(self.phase, Phase::Updating { news: true, .. });
        env.trace(TraceEvent::WinAborted {
            agent: self.id.key(),
        });
        env.trace(TraceEvent::SpanEnd {
            id: span_id(
                SpanKind::UpdateQuorum,
                self.id.key(),
                u64::from(self.attempt),
            ),
            kind: SpanKind::UpdateQuorum,
        });
        // The next lock-acquisition round starts immediately (the agent
        // goes back to competing from parked).
        env.trace(TraceEvent::SpanStart {
            id: span_id(
                SpanKind::LockAcquire,
                self.id.key(),
                u64::from(self.attempt) + 1,
            ),
            parent: span_id(SpanKind::Dispatch, self.id.key(), 0),
            kind: SpanKind::LockAcquire,
            a: self.id.key(),
            b: u64::from(self.attempt) + 1,
        });
        let msg = NodeMsg::Release { agent: self.id };
        broadcast(host, env, &msg);
        // Fall back to parked: the next re-poll (after a short pause,
        // which doubles as backoff) refreshes the locking table. The
        // claim's ACK timer, if still pending, finds a later phase.
        self.enter_parked(host, env);
        if retry {
            self.evaluate(host, env)
        } else {
            Action::Stay
        }
    }

    /// LL news arrived. If it `changed` the LT or UAL a parked agent
    /// re-decides (`decide` is a pure function of those and the
    /// unavailable set, so news that changed nothing cannot change the
    /// verdict); a claiming agent remembers it in case the claim
    /// aborts. Either way the next re-poll knows it has been heard from.
    fn on_ll_news(
        &mut self,
        changed: bool,
        host: &mut MarpServerState,
        env: &mut AgentEnv<'_>,
    ) -> Action {
        match &mut self.phase {
            Phase::Parked { round, .. } => {
                *round = 0;
                if changed {
                    self.evaluate(host, env)
                } else {
                    Action::Stay
                }
            }
            Phase::Updating { news, .. } => {
                *news = true;
                Action::Stay
            }
            Phase::Travelling => Action::Stay,
        }
    }
}

/// Send `msg` to every replica server (the paper's broadcast).
fn broadcast(host: &MarpServerState, env: &mut AgentEnv<'_>, msg: &NodeMsg) {
    let bytes = marp_wire::to_bytes(msg);
    for server in 0..host.config().n_servers as NodeId {
        env.send_raw(server, bytes.clone());
    }
}

impl AgentBehavior for UpdateAgent {
    type Host = MarpServerState;

    fn id(&self) -> AgentId {
        self.id
    }

    fn on_arrive(&mut self, host: &mut MarpServerState, env: &mut AgentEnv<'_>) -> Action {
        let here = env.here();
        if self.visited.is_empty() && self.attempt == 0 {
            // First arrival (at home): the first lock-acquisition round
            // begins. Later rounds are opened by `abort_claim`.
            env.trace(TraceEvent::SpanStart {
                id: span_id(SpanKind::LockAcquire, self.id.key(), 1),
                parent: span_id(SpanKind::Dispatch, self.id.key(), 0),
                kind: SpanKind::LockAcquire,
                a: self.id.key(),
                b: 1,
            });
        }
        if !self.visited.contains(&here) {
            self.visited.push(here);
        }
        let snapshot = host.visit(self.id, self.key(), env.now(), here);
        env.trace(TraceEvent::LockRequested {
            agent: self.id.key(),
            node: here,
        });
        // Record when this arrival found earlier agents queued ahead on
        // its key's Locking List: the keyspace tests use the *absence*
        // of this event to prove that disjoint-key agents never block
        // each other.
        if let Some(rank) = snapshot.queue.iter().position(|&a| a == self.id) {
            if rank > 0 {
                env.trace(TraceEvent::Custom {
                    kind: "lock-queued-behind",
                    a: self.id.key(),
                    b: rank as u64,
                });
            }
        }
        // A clone left over from a duplicated migration discovers here
        // that "it" already obtained the lock and updated (it is in the
        // Updated List): its work is done, it must not compete again.
        if self.ual.contains(self.id) || host.core.ul.contains(self.id) {
            env.trace(TraceEvent::Custom {
                kind: "zombie-clone-disposed",
                a: self.id.key(),
                b: u64::from(here),
            });
            return Action::Dispose;
        }
        self.lt.merge(here, snapshot);
        if host.config().gossip {
            host.board.exchange(self.key(), &mut self.lt);
        }
        self.absorb(&host.core.ul);
        self.evaluate(host, env)
    }

    fn on_agent_message(
        &mut self,
        _from: NodeId,
        payload: Bytes,
        host: &mut MarpServerState,
        env: &mut AgentEnv<'_>,
    ) -> Action {
        let Ok(reply) = marp_wire::from_bytes::<AgentReply>(&payload) else {
            return Action::Stay;
        };
        match reply {
            AgentReply::UpdateAck {
                node,
                attempt,
                positive,
                store_version,
                fenced,
                ..
            } => {
                if attempt != self.attempt {
                    return Action::Stay; // stale ack from an aborted claim
                }
                if !matches!(self.phase, Phase::Updating { .. }) {
                    return Action::Stay;
                }
                if fenced {
                    return self.superseded(host, env);
                }
                let Phase::Updating { call, .. } = &mut self.phase else {
                    return Action::Stay;
                };
                // The call dedupes repeated acks; only a deciding reply
                // returns a verdict.
                match call.offer_vote(node, positive, store_version) {
                    Some(Verdict::Won) => self.commit_and_dispose(host, env),
                    // A positive majority is no longer possible.
                    Some(Verdict::Lost) => self.abort_claim(host, env),
                    _ => Action::Stay,
                }
            }
            AgentReply::LlInfo {
                node,
                snapshot,
                board,
                ul,
            } => {
                self.lt.merge(node, snapshot);
                if host.config().gossip {
                    self.lt.merge_table(&board);
                }
                self.absorb(&ul);
                self.on_ll_news(true, host, env)
            }
            AgentReply::LlChanged { finished, at, .. } => {
                let changed = !self.ual.contains(finished);
                self.ual.record(finished, at);
                self.on_ll_news(changed, host, env)
            }
        }
    }

    fn on_timer(&mut self, tag: u64, host: &mut MarpServerState, env: &mut AgentEnv<'_>) -> Action {
        // A timer from an earlier claim or an earlier park on this host
        // carries an older `attempt`; one that outlived its phase finds
        // another phase.
        let Some((kind, epoch)) = TimerMux::<AgentTimer>::split(tag) else {
            return Action::Stay;
        };
        if epoch != u64::from(self.attempt) {
            return Action::Stay;
        }
        match kind {
            AgentTimer::Repoll => {
                let Phase::Parked { round, quiet_fires } = &mut self.phase else {
                    return Action::Stay;
                };
                // News arrived while this timer ran: there is nothing
                // to ask, and the leases can wait — but not for ever.
                let quiet = *round == 0 && *quiet_fires < MAX_QUIET_FIRES;
                *quiet_fires = if quiet { *quiet_fires + 1 } else { 0 };
                if !quiet {
                    let msg = NodeMsg::LlQuery {
                        agent: self.id,
                        key: self.key(),
                        reply_to: env.here(),
                        horizon: self.lt.horizon(),
                    };
                    broadcast(host, env, &msg);
                }
                self.arm_repoll(host, env);
                Action::Stay
            }
            AgentTimer::Ack if matches!(self.phase, Phase::Updating { .. }) => {
                self.abort_claim(host, env)
            }
            AgentTimer::Ack => Action::Stay,
        }
    }

    fn on_migrate_failed(
        &mut self,
        dest: NodeId,
        _attempts: u32,
        host: &mut MarpServerState,
        env: &mut AgentEnv<'_>,
    ) -> Action {
        self.itinerary.mark_unavailable(dest);
        self.evaluate(host, env)
    }

    fn host_horizon(&self, host: &MarpServerState) -> BTreeMap<NodeId, u64> {
        host.horizon(self.key())
    }

    fn record_peer_horizon(
        &self,
        host: &mut MarpServerState,
        peer: NodeId,
        horizon: BTreeMap<NodeId, u64>,
    ) {
        host.record_peer_horizon(peer, self.key(), horizon);
    }

    fn before_migrate(&mut self, dest: NodeId, host: &mut MarpServerState) {
        if !host.config().lt_delta {
            return;
        }
        // The destination re-supplies its own LL snapshot on arrival
        // (`visit` → `merge`), and LL versions are monotonic, so the
        // entry for `dest` never needs to travel.
        self.lt.drop_server(dest);
        // Anything below the destination's advertised knowledge horizon
        // is re-merged from its gossip board on arrival — but only a
        // board-backed horizon makes that recovery possible, so pruning
        // against peers is gated on gossip. A stale horizon (peer
        // crashed and lost its board) costs at most a re-gather round;
        // safety rests on the UPDATE validation quorum, not the LT.
        if host.config().gossip {
            if let Some(horizon) = host.peer_horizon(dest, self.key()) {
                self.lt.prune_covered_by(horizon);
            }
        }
        // The UAL is a cache of the servers' Updated Lists, which the
        // COMMIT broadcast feeds directly — the destination re-supplies
        // its own copy on arrival (`visit`). An entry no carried
        // snapshot still names cannot influence any decision made from
        // this table, so it is dead weight on the wire; shedding it is
        // the agent-side analogue of the servers' lease-bounded UL
        // pruning (`maintain`), with the same liveness-only exposure.
        // The agent's own entry always travels: it is the zombie-clone
        // self-check, and must survive hops through servers that have
        // already pruned it.
        self.ual
            .retain(|agent| agent == self.id || self.lt.names(agent));
    }

    fn carried_lt_entries(&self) -> u64 {
        self.lt.entries() as u64 + self.ual.len() as u64
    }

    fn carried_lt_ids(&self) -> u64 {
        self.lt.roster().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{wrap_agent_envelope, wrap_sync};
    use crate::MarpConfig;
    use marp_agent::{AgentEnvelope, AgentRuntime};
    use marp_net::{RoutingTable, Topology};
    use marp_replica::{ServerConfig, ServerCore};
    use marp_sim::{RecordingCtx, SimTime, TimerId};

    fn agent() -> UpdateAgent {
        let cfg = MarpConfig::new(5);
        UpdateAgent::new(
            AgentId::new(0, SimTime::from_millis(1), 0),
            &cfg,
            vec![WriteRequest {
                id: 1,
                client: 9,
                key: 2,
                value: 3,
                arrived: SimTime::ZERO,
            }],
        )
    }

    #[test]
    fn wire_roundtrip_of_fresh_agent() {
        let a = agent();
        let bytes = marp_wire::to_bytes(&a);
        let back: UpdateAgent = marp_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn wire_roundtrip_of_updating_phase() {
        let mut a = agent();
        let mut call = QuorumCall::majority(5, SimTime::from_millis(7));
        call.offer_vote(0, true, 4);
        call.offer_vote(2, true, 5);
        call.offer_vote(1, false, 0);
        a.phase = Phase::Updating {
            via_tie: true,
            certificate: vec![AgentId::new(1, SimTime::ZERO, 0)],
            call,
            news: true,
        };
        a.visited = vec![0, 1, 2];
        a.attempt = 3;
        a.incarnation = 2;
        let bytes = marp_wire::to_bytes(&a);
        let back: UpdateAgent = marp_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn fresh_agent_reports_defaults() {
        let a = agent();
        assert_eq!(a.visits(), 0);
        assert_eq!(a.requests().len(), 1);
        assert_eq!(*a.phase(), Phase::Travelling);
        assert_eq!(a.incarnation(), 0);
        assert_eq!(a.with_incarnation(4).incarnation(), 4);
    }

    /// Server 0's context, recording what a hosted agent sends, arms
    /// and traces.
    fn host_ctx() -> RecordingCtx {
        RecordingCtx::new(0, SimTime::from_millis(9))
    }

    /// A one-server deployment hosting `agent()`, parked behind
    /// `winner` on its key's queue: one notice away from claiming.
    struct Parked {
        runtime: AgentRuntime<UpdateAgent>,
        state: MarpServerState,
        ctx: RecordingCtx,
        me: AgentId,
        winner: AgentId,
    }

    /// Server 0 of a one-server deployment.
    fn lone_server(cfg: &MarpConfig) -> MarpServerState {
        let topo = Topology::uniform_lan(1, Duration::from_millis(1));
        MarpServerState::new(
            ServerCore::new(0, ServerConfig::default(), wrap_sync),
            RoutingTable::from_topology(0, &topo),
            cfg,
        )
    }

    /// The delay of every timer armed, in order.
    fn delays(ctx: &RecordingCtx) -> Vec<Duration> {
        ctx.armed.iter().map(|&(delay, _)| delay).collect()
    }

    fn is_parked(agent: &UpdateAgent) -> bool {
        matches!(agent.phase(), Phase::Parked { .. })
    }

    impl Parked {
        fn new() -> Self {
            let cfg = MarpConfig::new(1);
            let mut state = lone_server(&cfg);
            let winner = AgentId::new(0, SimTime::ZERO, 7);
            let me = agent().id;
            state.visit(winner, 2, SimTime::from_millis(1), 0);
            let mut runtime = AgentRuntime::new(cfg.migration, wrap_agent_envelope);
            let mut ctx = host_ctx();
            let parked = UpdateAgent::new(me, &cfg, agent().rl);
            runtime.spawn(parked, &mut state, &mut ctx);
            let mut this = Parked {
                runtime,
                state,
                ctx,
                me,
                winner,
            };
            assert!(is_parked(this.agent()));
            this.ctx.sent.clear();
            this
        }

        fn agent(&self) -> &UpdateAgent {
            self.runtime.resident(self.me).expect("resident")
        }

        fn mail(&mut self, reply: AgentReply) {
            let envelope = AgentEnvelope::ToAgent {
                agent: self.me,
                payload: marp_wire::to_bytes(&reply),
            };
            self.runtime
                .handle_envelope(0, envelope, &mut self.state, &mut self.ctx);
        }

        fn notice(&mut self) {
            self.mail(AgentReply::LlChanged {
                node: 0,
                finished: self.winner,
                at: SimTime::from_millis(8),
            });
        }

        /// The (only) server refuses claim `attempt`.
        fn refuse_claim(&mut self, attempt: u32) {
            self.mail(AgentReply::UpdateAck {
                node: 0,
                attempt,
                positive: false,
                fenced: false,
                store_version: 0,
                last_update: SimTime::ZERO,
            });
        }

        /// The most recently armed re-poll timer.
        fn latest_repoll(&self) -> TimerId {
            let is_repoll = |tag| matches!(TimerMux::split(tag), Some((AgentTimer::Repoll, _)));
            let mut armed = self.ctx.armed.iter();
            let position = armed.rposition(|&(_, tag)| is_repoll(tag));
            let position = position.expect("a re-poll timer");
            TimerId(position as u64 + 1)
        }

        /// Fire the most recently armed re-poll timer; returns whether
        /// it sent `LlQuery`.
        fn fire_repoll(&mut self) -> bool {
            let timer = self.latest_repoll();
            self.fire(timer)
        }

        /// Fire `timer`; returns whether that sent `LlQuery`.
        fn fire(&mut self, timer: TimerId) -> bool {
            self.ctx.sent.clear();
            assert!(self
                .runtime
                .handle_timer(timer, &mut self.state, &mut self.ctx));
            self.ctx
                .sent_as()
                .iter()
                .any(|(_, m)| matches!(m, NodeMsg::LlQuery { .. }))
        }

        fn claims(&self) -> usize {
            self.ctx
                .traced
                .iter()
                .filter(|e| matches!(e, TraceEvent::UpdateSent { .. }))
                .count()
        }
    }

    #[test]
    fn a_duplicate_notice_is_news_but_not_a_reason_to_decide_again() {
        let mut p = Parked::new();
        // The first notice changes the UAL: the agent decides, and wins.
        p.notice();
        assert_eq!(p.claims(), 1);
        // The claim is refused with nothing new heard meanwhile, so the
        // agent parks — in a state `decide` would call a win.
        p.refuse_claim(1);
        assert!(is_parked(p.agent()));
        assert_eq!(p.claims(), 1);
        // The same notice again changes nothing, so nothing is decided
        // (a second evaluation would claim again)...
        p.notice();
        assert_eq!(p.claims(), 1);
        assert!(is_parked(p.agent()));
        // ...but the agent has been heard from: the re-poll stays quiet.
        assert!(!p.fire_repoll());
        // With no news since, the next fire asks.
        assert!(p.fire_repoll());
    }

    #[test]
    fn the_ninth_consecutive_quiet_fire_queries_anyway() {
        let mut p = Parked::new();
        // Make every later notice a duplicate, and park again.
        p.notice();
        p.refuse_claim(1);
        for fire in 1..=MAX_QUIET_FIRES {
            p.notice();
            assert!(!p.fire_repoll(), "fire {fire} should stay quiet");
        }
        // News keeps coming, but the leases are due a refresh.
        p.notice();
        assert!(p.fire_repoll());
        // The streak starts over.
        p.notice();
        assert!(!p.fire_repoll());
    }

    #[test]
    fn a_re_park_on_the_same_host_ignores_the_previous_parks_timer() {
        let mut p = Parked::new();
        let first_park = p.latest_repoll();
        // Park → claim → refused → park again, all on this host: the
        // runtime cancels an agent's timers only when it departs, so
        // the first park's timer is still pending.
        p.notice();
        p.refuse_claim(1);
        assert!(is_parked(p.agent()));
        let second_park = p.latest_repoll();
        assert_ne!(first_park, second_park);
        // It fires into the second park: nothing is asked, nothing is
        // armed, and the second park's own schedule is undisturbed.
        let armed = p.ctx.armed.len();
        let before = p.agent().clone();
        assert!(!p.fire(first_park));
        assert_eq!(p.ctx.armed.len(), armed, "a stale fire re-arms nothing");
        assert_eq!(*p.agent(), before);
        // The second park's timer is live: no news since, so it asks,
        // and arms its successor.
        assert!(p.fire(second_park));
        assert_eq!(p.ctx.armed.len(), armed + 1);
    }

    #[test]
    fn the_update_trace_names_the_version_the_claim_builds_on() {
        let cfg = MarpConfig::new(1);
        let mut state = lone_server(&cfg);
        let mut ctx = host_ctx();
        let earlier = |version| CommitRecord {
            version,
            key: agent().key(),
            value: 0,
            agent: 7,
            request: 100 + version,
            committed_at: SimTime::ZERO,
        };
        state
            .core
            .apply_commits(vec![earlier(1), earlier(2)], &mut ctx);
        let mut runtime = AgentRuntime::new(cfg.migration, wrap_agent_envelope);
        runtime.spawn(agent(), &mut state, &mut ctx);
        // Alone on the only server's queue, it claims at once.
        let sent = ctx.traced.iter().find_map(|e| {
            let TraceEvent::UpdateSent { version, .. } = e else {
                return None;
            };
            Some(*version)
        });
        assert_eq!(sent, Some(2));
    }

    #[test]
    fn an_agent_behaves_by_the_config_of_the_host_it_runs_on() {
        // Dispatched under the defaults (gossip on, 250 ms ack timeout,
        // 25 ms re-poll)...
        let home_cfg = MarpConfig::new(1);
        let travelling = UpdateAgent::new(agent().id, &home_cfg, agent().rl);
        // ...and decoded at a host configured otherwise.
        let mut host_cfg = home_cfg;
        host_cfg.gossip = false;
        host_cfg.ack_timeout = Duration::from_millis(40);
        host_cfg.park_repoll = Duration::from_millis(90);
        assert_ne!(host_cfg.ack_timeout, home_cfg.ack_timeout);
        let mut state = lone_server(&host_cfg);
        // Something is on the host's board all the same.
        let rival = AgentId::new(0, SimTime::ZERO, 7);
        state.board.post(
            2,
            3,
            marp_replica::LlSnapshot {
                version: 5,
                taken_at: SimTime::from_millis(5),
                queue: vec![rival],
            },
        );
        let mut runtime: AgentRuntime<UpdateAgent> =
            AgentRuntime::new(host_cfg.migration, wrap_agent_envelope);
        let mut ctx = host_ctx();
        let arrival = AgentEnvelope::Migrate {
            agent: travelling.id,
            hop: 1,
            state: marp_wire::to_bytes(&travelling),
        };
        runtime.handle_envelope(0, arrival, &mut state, &mut ctx);
        let resident = runtime.resident(travelling.id).expect("resident");
        // Alone on the only server's queue it claims at once, and waits
        // for acks as long as this host says.
        assert!(matches!(resident.phase(), Phase::Updating { .. }));
        assert_eq!(delays(&ctx), [host_cfg.ack_timeout]);
        // Gossip is off here: the board was neither read nor written.
        assert_eq!(resident.locking_table().known_servers(), 1);
        assert_eq!(state.board.known_servers(2), 1);
        // Refused, it parks and re-polls at this host's interval (plus
        // its own sub-8 ms stagger).
        let refusal = AgentEnvelope::ToAgent {
            agent: travelling.id,
            payload: marp_wire::to_bytes(&AgentReply::UpdateAck {
                node: 0,
                attempt: 1,
                positive: false,
                fenced: false,
                store_version: 0,
                last_update: SimTime::ZERO,
            }),
        };
        runtime.handle_envelope(0, refusal, &mut state, &mut ctx);
        assert!(is_parked(
            runtime.resident(travelling.id).expect("resident")
        ));
        let repoll = delays(&ctx)[1];
        assert!(
            repoll >= host_cfg.park_repoll
                && repoll < host_cfg.park_repoll + Duration::from_millis(8),
            "re-poll after {repoll:?}"
        );
    }

    /// `lt_delta` decides what a hop carries: off, the Locking Table and
    /// the UAL travel as they are; on, the destination's own row stays
    /// behind, and with it every UAL entry no remaining row names.
    #[test]
    fn a_hop_sheds_the_destinations_row_only_when_lt_delta_is_on() {
        let rival = AgentId::new(1, SimTime::ZERO, 7);
        let gone = AgentId::new(2, SimTime::ZERO, 3);
        let mut loaded = agent();
        let me = loaded.id;
        for (server, queue) in [(0, vec![rival, me]), (1, vec![gone, me]), (2, vec![me])] {
            loaded.lt.merge(
                server,
                marp_replica::LlSnapshot {
                    version: 4,
                    taken_at: SimTime::from_millis(2),
                    queue,
                },
            );
        }
        for finished in [rival, gone, me] {
            loaded.ual.record(finished, SimTime::from_millis(3));
        }

        let mut cfg = MarpConfig::new(5);
        cfg.lt_delta = false;
        let mut whole = loaded.clone();
        whole.before_migrate(1, &mut lone_server(&cfg));
        assert_eq!(whole, loaded);

        cfg.lt_delta = true;
        let mut delta = loaded.clone();
        delta.before_migrate(1, &mut lone_server(&cfg));
        let rows = |agent: &UpdateAgent| agent.lt.iter().collect::<Vec<_>>();
        let kept: Vec<_> = rows(&loaded).into_iter().filter(|(s, _)| *s != 1).collect();
        assert_eq!(rows(&delta), kept);
        assert_eq!(kept.len(), 2);
        // Only server 1's row named `gone`; its own entry always travels.
        assert_eq!(delta.ual.agents().collect::<Vec<_>>(), [rival, me]);
    }
}
