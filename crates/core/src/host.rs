//! Server-side MARP state: what a visiting agent touches locally, and
//! the handlers for the UPDATE / COMMIT / RELEASE / LL-query messages
//! (the paper's Algorithm 2).
//!
//! # Held claims (the pipelined lock handoff)
//!
//! The next winner hears "W finished" from its own host the moment W's
//! COMMIT lands there, so its UPDATE usually reaches the other servers
//! *before* W's COMMIT does. Such a claim is not wrong, only early: the
//! one thing between it and a positive ack is W's reservation, which
//! the COMMIT in flight is about to clear. A server therefore *holds*
//! an UPDATE whose sole obstacle is another claimant's live reservation
//! — it answers nothing — and keeps the claim *inside* the key's
//! [`Acceptor`], so no claim can wait behind nothing. A reservation
//! ends one way (`end_reservation`), whatever ended it — the holder's
//! commit (learned from its COMMIT or from a peer's Push), its RELEASE,
//! or the lease lapsing — and ending it runs its waiting claims through
//! [`MarpServerState::handle_update`] again. A hold only delays an
//! answer that the unchanged validation then computes, so safety rests
//! on exactly the code it rested on before; the wait is bounded by the
//! claimant's `ack_timeout` (abort → RELEASE → the held claim is
//! dropped) and the holder's `reserve_lease`.

use crate::config::MarpConfig;
use crate::gossip::GossipBoard;
use crate::lt::LockingTable;
use crate::msg::{AgentReply, UpdateMsg};
use marp_agent::{AgentId, Horizon};
use marp_net::RoutingTable;
use marp_replica::{Acceptor, CommitRecord, ServerCore, WriteRequest};
use marp_sim::{trace, AgentKey, Context, NodeId, SimTime, TraceEvent};
use std::collections::BTreeMap;

/// An UPDATE acknowledgement ready to be mailed to `agent`, which
/// awaits it at `reply_to`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimAnswer {
    /// The host the claimant awaits acknowledgements at.
    pub reply_to: NodeId,
    /// The claimant.
    pub agent: AgentId,
    /// The `UpdateAck`.
    pub ack: AgentReply,
}

/// What learning commits leaves for the node to send: the node owns
/// one, [`MarpServerState::handle_commit`] appends to it, and the node
/// drains it.
#[derive(Debug, Default, PartialEq)]
pub struct CommitOutcome {
    /// `(winner, waiter)` for every agent still queued on a retired
    /// winner's key, in queue order: the node pushes the change notice
    /// to the waiters resident on it.
    pub waiters: Vec<(AgentId, AgentId)>,
    /// Acknowledgements of claims that were held behind a winner.
    pub answers: Vec<ClaimAnswer>,
}

/// Why a server refused an UPDATE. The discriminant is the code the
/// [`trace::UPDATE_REFUSED`] record carries in its low byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Refusal {
    /// Reserved for a rival, and the claim would fail without it too.
    Reserved = 1,
    /// The claimant is not in this server's Locking List.
    NotQueued = 2,
    /// An agent ranked above the claimant is missing from its certificate.
    Uncertified = 3,
    /// The claimant is not on top and offered no certificate.
    NotTop = 4,
    /// A regenerated successor of the claim's requests was acked here.
    StaleIncarnation = 5,
    /// Every request the claim carries has already committed here.
    AlreadyCommitted = 6,
}

impl Refusal {
    /// Whether the claimant is superseded: its ack is `fenced`, it disposes.
    pub(crate) fn fenced(self) -> bool {
        matches!(self, Refusal::StaleIncarnation | Refusal::AlreadyCommitted)
    }
}

/// What validation makes of a claim: accept it, hold it behind a
/// rival's live reservation (see the module docs), or refuse it.
enum Judgement {
    Accept,
    Hold,
    Refuse(Refusal),
}

/// The MARP-specific state of one replica server.
pub struct MarpServerState {
    /// Protocol-independent server substrate.
    pub core: ServerCore,
    /// Information-sharing blackboard (§3.3).
    pub board: GossipBoard,
    /// Agent-transfer cost estimates (§3.2).
    pub routing: RoutingTable,
    /// The deployment's configuration: the one copy the server's
    /// handlers and every agent running here read.
    cfg: MarpConfig,
    /// The reservation per object key and the claims held behind it
    /// (one slot per agent, never the holder's): winners of different
    /// keys validate and commit concurrently, so each key has its own.
    reserved: BTreeMap<u64, Acceptor<AgentId, UpdateMsg>>,
    /// UPDATEs held so far (a re-validated claim held again counts
    /// again).
    claims_held: u64,
    /// Last knowledge horizon each peer advertised per object key
    /// (piggybacked on its ack of an agent for that key). Agents
    /// migrating from here delta-encode their Locking Tables against
    /// the destination's entry for their key.
    peer_horizons: BTreeMap<(NodeId, u64), Horizon>,
    /// Incarnation fence per client request: the highest incarnation
    /// this server positively acked for each request it has seen, plus
    /// when (for pruning). A regenerated agent carries a bumped
    /// incarnation; once any server acks it, the original — now a
    /// zombie — can no longer assemble a quorum through that server.
    fences: BTreeMap<u64, (u32, SimTime)>,
    /// The list [`ServerCore::apply_commits`] appends to, drained by
    /// [`Self::handle_commit`].
    applied: Vec<CommitRecord>,
    /// A claim was refused behind a stale Locking-List top, or a stale
    /// agent holds a reservation: this server may have missed the
    /// COMMIT that would retire it, so its node asks a peer (see
    /// [`Self::take_ask`]).
    ask: bool,
}

impl MarpServerState {
    /// Build the server state for node `me`.
    pub fn new(core: ServerCore, routing: RoutingTable, cfg: &MarpConfig) -> Self {
        MarpServerState {
            core,
            board: GossipBoard::new(),
            routing,
            cfg: *cfg,
            reserved: BTreeMap::new(),
            claims_held: 0,
            peer_horizons: BTreeMap::new(),
            fences: BTreeMap::new(),
            applied: Vec::new(),
            ask: false,
        }
    }

    /// Whether `agent` is old enough that, were it live, it would have
    /// committed by now: born at least two ack timeouts ago. A server
    /// that still finds such an agent atop its Locking List or holding
    /// a reservation may have missed its COMMIT (a lossy link or a
    /// partition dropped it, and no later commit left a gap to see).
    /// The one place the threshold is derived.
    fn stale(&self, agent: AgentId, now: SimTime) -> bool {
        agent.born + self.cfg.ack_timeout * 2 <= now
    }

    /// Whether this server has seen reason to ask a peer for commits it
    /// may have missed since the last call; clears the flag. The node
    /// pulls from a rotating peer when it is set.
    pub(crate) fn take_ask(&mut self) -> bool {
        std::mem::take(&mut self.ask)
    }

    /// Write into the empty `horizon` this server's knowledge horizon
    /// for `key`: the highest locking-list snapshot version it holds
    /// per server — what is on the gossip board, and its own live
    /// queue. Advertised in the ack of an arriving agent for `key` so
    /// senders can delta-encode agent state shipped here. The entry for
    /// this server is always present (even while its queue is virgin).
    pub(crate) fn horizon(&self, key: u64, horizon: &mut Horizon) {
        if let Some(board) = self.board.contents(key).filter(|_| self.cfg.gossip) {
            board.raise_horizon(horizon);
        }
        horizon.raise(self.core.me(), self.core.ll.version(key));
    }

    /// Record the horizon for `key` a peer advertised in a migration
    /// ack, replacing what it said about that key before: the two swap,
    /// and `horizon` is left holding the buffer replaced.
    pub(crate) fn record_peer_horizon(&mut self, peer: NodeId, key: u64, horizon: &mut Horizon) {
        let kept = self.peer_horizons.entry((peer, key)).or_default();
        std::mem::swap(kept, horizon);
    }

    /// The last horizon for `key` that `peer` advertised, if any.
    pub(crate) fn peer_horizon(&self, peer: NodeId, key: u64) -> Option<&Horizon> {
        self.peer_horizons.get(&(peer, key))
    }

    /// The configuration this server was built from. Visiting agents
    /// carry none of their own: cluster size, gossip and delta
    /// switches and timeouts are the host's.
    pub(crate) fn config(&self) -> &MarpConfig {
        &self.cfg
    }

    /// Current reservation holder for `key`, if any (for inspection).
    pub fn reserved_for(&self, key: u64) -> Option<AgentId> {
        self.reserved.get(&key).and_then(Acceptor::holder)
    }

    /// Agents whose claim on `key` is held behind the current
    /// reservation (for inspection).
    pub fn held_claimants(&self, key: u64) -> impl Iterator<Item = AgentId> + '_ {
        let held = self.reserved.get(&key).map_or(&[][..], |r| &r.held);
        held.iter().map(|m| m.agent)
    }

    /// UPDATEs this server has held instead of answering at once.
    pub fn claims_held(&self) -> u64 {
        self.claims_held
    }

    /// A visiting agent requests the lock on its object key (paper
    /// Algorithm 2, "upon arrival of a mobile agent"). What a visit then
    /// reads — the key's LL (`core.ll.queue`), the Updated List
    /// (`core.ul`) and what earlier visitors left on the `board` — the
    /// agent reads in place, the in-situ equivalent of a round of
    /// messages (the mobile-agent advantage the paper builds on).
    pub fn visit(&mut self, agent: AgentId, key: u64, now: SimTime, here: NodeId) {
        self.core.ll.purge_expired(now);
        // A finished agent (listed in the UL) must never re-enter the
        // queue: a stale clone from a duplicated migration would
        // otherwise enqueue a permanently unclaimable entry. The clone
        // recognizes itself in the returned UL and disposes.
        if !self.core.ul.contains(agent) {
            self.core
                .ll
                .request(key, agent, now, self.core.lock_lease(), here);
        }
    }

    /// Estimated agent-transfer cost to another server, in ms.
    pub fn route_cost(&self, to: NodeId) -> f64 {
        self.routing.cost(to)
    }

    /// Whether every agent queued above `rank` on `key` is `vouched`
    /// for or, by this server's UL, already finished (a stale entry —
    /// e.g. a commit applied via anti-entropy before the purge — blocks
    /// no claim).
    fn all_above(&self, key: u64, rank: usize, vouched: impl Fn(AgentId) -> bool) -> bool {
        let entries = self.core.ll.list(key).map_or(&[][..], |ll| ll.entries());
        entries[..rank]
            .iter()
            .all(|e| vouched(e.agent) || self.core.ul.contains(e.agent))
    }

    /// Validate a claim on `key`. A fenced refusal comes first: it
    /// holds whatever the queue and the reservation say.
    fn judge(&self, key: u64, msg: &UpdateMsg, now: SimTime) -> Judgement {
        let fence_above = |r: &WriteRequest| {
            self.fences
                .get(&r.id)
                .is_some_and(|&(inc, _)| inc > msg.incarnation)
        };
        if msg.requests.iter().any(fence_above) {
            return Judgement::Refuse(Refusal::StaleIncarnation);
        }
        let store = &self.core.store;
        if !msg.requests.is_empty() && msg.requests.iter().all(|r| store.request_applied(r.id)) {
            return Judgement::Refuse(Refusal::AlreadyCommitted);
        }
        let ll = &self.core.ll;
        if let Some(holder) = self.reserved_for(key).filter(|&h| h != msg.agent) {
            // Early, not wrong: the claimant is enqueued here and the
            // holder is the only unfinished, unvouched-for agent above
            // it, so the reservation is all that stands in the way.
            let cert = msg.tie_certificate.as_deref().unwrap_or_default();
            let early = ll.rank_of(key, msg.agent, now).is_some_and(|rank| {
                self.all_above(key, rank, |a| a == holder || cert.contains(&a))
            });
            return if early {
                Judgement::Hold
            } else {
                Judgement::Refuse(Refusal::Reserved)
            };
        }
        if ll.top(key, now) == Some(msg.agent) {
            return Judgement::Accept;
        }
        let Some(cert) = &msg.tie_certificate else {
            return Judgement::Refuse(Refusal::NotTop);
        };
        match ll.rank_of(key, msg.agent, now) {
            None => Judgement::Refuse(Refusal::NotQueued),
            Some(rank) if self.all_above(key, rank, |a| cert.contains(&a)) => Judgement::Accept,
            Some(_) => Judgement::Refuse(Refusal::Uncertified),
        }
    }

    /// Handle an UPDATE claim (validation + reservation). Appends to
    /// `answers` the acknowledgements to send: this claim's, unless it
    /// is held (see the module docs), preceded by those of claims a
    /// lapsed reservation had been holding. Held claims come back
    /// through here when their obstacle goes, so first-time and
    /// re-validated claims share one validation path. Only a held
    /// claim is kept: it is taken out of `msg`, which is left without
    /// its lists.
    pub fn handle_update(
        &mut self,
        msg: &mut UpdateMsg,
        ctx: &mut dyn Context,
        answers: &mut Vec<ClaimAnswer>,
    ) {
        let now = ctx.now();
        // Batches are key-uniform (the node splits mixed batches at
        // dispatch), so the claim's object key is its first request's.
        let key = msg.requests.first().map_or(0, |r| r.key);
        self.core.ll.purge_expired(now);
        if self.reserved.get(&key).is_some_and(|r| r.lapsed(now)) {
            self.end_reservation(key, ctx, answers);
        }
        // One held slot per agent: a newer attempt replaces it, and an
        // older one is dropped unanswered (the agent has moved on and
        // would ignore the ack).
        if let Some(reservation) = self.reserved.get_mut(&key) {
            let slots = &mut reservation.held;
            if let Some(i) = slots.iter().position(|h| h.agent == msg.agent) {
                if slots[i].attempt > msg.attempt {
                    return;
                }
                slots.remove(i);
            }
        }
        let refusal = match self.judge(key, msg, now) {
            Judgement::Accept => None,
            Judgement::Refuse(refusal) => Some(refusal),
            Judgement::Hold => {
                ctx.trace(TraceEvent::Custom {
                    kind: trace::UPDATE_HELD,
                    a: msg.agent.key(),
                    b: u64::from(self.core.me()),
                });
                self.claims_held += 1;
                if let Some(blocking) = self.reserved.get_mut(&key) {
                    let emptied = UpdateMsg {
                        requests: Vec::new(),
                        tie_certificate: None,
                        ..*msg
                    };
                    blocking.held.push(std::mem::replace(msg, emptied));
                }
                return;
            }
        };
        let positive = refusal.is_none();
        if let Some(refusal) = refusal {
            ctx.trace(TraceEvent::Custom {
                kind: trace::UPDATE_REFUSED,
                a: msg.agent.key(),
                b: (u64::from(self.core.me()) << 8) | refusal as u64,
            });
            // A superseded claimant disposes on this answer. Left in the
            // queue, it would stand as a dead top until its lease lapsed,
            // and an agent parked behind it would wait all that time.
            if refusal.fenced() {
                self.core.ll.remove(key, msg.agent);
            }
            let top = self.core.ll.top(key, now);
            self.ask |= top.is_some_and(|top| self.stale(top, now));
        } else {
            // `judge` accepts no claim against a rival's reservation; a
            // holder claiming again renews its lease and keeps the
            // claims held behind it.
            let acceptor = self.reserved.entry(key).or_default();
            let granted = acceptor.grant(msg.agent, now, self.cfg.reserve_lease);
            debug_assert!(granted, "a claim was accepted against a rival");
            // Raise the fences: from now on, only this incarnation (or
            // a later regeneration) of the carried requests can gather
            // a positive ack here.
            for r in &msg.requests {
                let fence = self.fences.entry(r.id).or_insert((msg.incarnation, now));
                fence.0 = fence.0.max(msg.incarnation);
                fence.1 = now;
            }
        }
        ctx.trace(TraceEvent::UpdateAcked {
            agent: msg.agent.key(),
            node: self.core.me(),
            positive,
        });
        answers.push(ClaimAnswer {
            reply_to: msg.reply_to,
            agent: msg.agent,
            ack: AgentReply::UpdateAck {
                attempt: msg.attempt,
                positive,
                fenced: refusal.is_some_and(Refusal::fenced),
                store_version: self.core.store.seen_version_for(key),
            },
        });
    }

    /// The one way a reservation ends, whatever ended it: forget it and
    /// run the claims that waited behind it through `handle_update`
    /// again, in queue order. The first one that validates takes the
    /// reservation, and the rest are held behind it or refused.
    fn end_reservation(&mut self, key: u64, ctx: &mut dyn Context, answers: &mut Vec<ClaimAnswer>) {
        let Some(ended) = self.reserved.remove(&key) else {
            return;
        };
        let mut claims = ended.held;
        let now = ctx.now();
        self.core.ll.purge_expired(now);
        let ll = &self.core.ll;
        claims.sort_by_key(|m| ll.rank_of(key, m.agent, now).unwrap_or(usize::MAX));
        for mut msg in claims {
            self.handle_update(&mut msg, ctx, answers);
        }
    }

    /// End every reservation `ended` picks out.
    fn end_reservations_where(
        &mut self,
        ended: impl Fn(&Acceptor<AgentId, UpdateMsg>) -> bool,
        ctx: &mut dyn Context,
        answers: &mut Vec<ClaimAnswer>,
    ) {
        let keys: Vec<u64> = self
            .reserved
            .iter()
            .filter(|(_, r)| ended(r))
            .map(|(&key, _)| key)
            .collect();
        for key in keys {
            self.end_reservation(key, ctx, answers);
        }
    }

    /// Commit records arrived — in `winner`'s COMMIT, or with no winner
    /// named in a peer's anti-entropy Push: apply them and retire the
    /// winner of each. A record names its agent by trace key only; the
    /// `AgentId` is the one queued or reserved here under that key (if
    /// neither, there is nothing here to retire). Appends to `outcome`
    /// what the node is to send.
    pub fn handle_commit(
        &mut self,
        winner: Option<AgentId>,
        records: &[CommitRecord],
        ctx: &mut dyn Context,
        outcome: &mut CommitOutcome,
    ) {
        // Single-key batches: the winner's object key is its records'.
        let key = records.first().map_or(0, |r| r.key);
        let mut applied = std::mem::take(&mut self.applied);
        self.core.apply_commits(records, ctx, &mut applied);
        if let Some(winner) = winner {
            self.retire(winner, key, ctx, outcome);
        }
        for record in applied.drain(..) {
            if let Some(agent) = self.agent_known_as(record.key, record.agent) {
                self.retire(agent, record.key, ctx, outcome);
            }
        }
        self.applied = applied;
    }

    /// The agent queued on `key` or holding its reservation whose trace
    /// key is `agent`.
    fn agent_known_as(&self, key: u64, agent: AgentKey) -> Option<AgentId> {
        let entries = self.core.ll.list(key).map_or(&[][..], |ll| ll.entries());
        entries
            .iter()
            .map(|e| e.agent)
            .chain(self.reserved_for(key))
            .find(|a| a.key() == agent)
    }

    /// Retire a winner on `key`: off the queue and into the UL, its
    /// reservation ended and the claims held behind it re-validated.
    /// Reports the remaining queue members so the node can push the
    /// change notice to its residents.
    fn retire(
        &mut self,
        finished: AgentId,
        key: u64,
        ctx: &mut dyn Context,
        outcome: &mut CommitOutcome,
    ) {
        self.core.ll.remove(key, finished);
        self.core.ul.record(finished, ctx.now());
        // Keep the local board fresh so future visitors see this change.
        if self.cfg.gossip {
            let (version, queue) = self.core.ll.queue(key);
            self.board
                .post(key, self.core.me(), version, ctx.now(), queue);
        }
        match self.reserved.get_mut(&key) {
            // It won elsewhere while its claim here waited behind a rival.
            Some(r) if r.holder() != Some(finished) => r.held.retain(|m| m.agent != finished),
            Some(_) => self.end_reservation(key, ctx, &mut outcome.answers),
            None => {}
        }
        let queued = self.core.ll.list(key).map_or(&[][..], |ll| ll.entries());
        outcome
            .waiters
            .extend(queued.iter().map(|e| (finished, e.agent)));
    }

    /// Handle a RELEASE from an aborting claimant (a RELEASE names no
    /// key; agent ids are globally unique, so ending every reservation
    /// the agent holds — and dropping every held claim of its own — is
    /// unambiguous). Appends to `answers` the acknowledgements of the
    /// claims re-validated.
    pub fn handle_release(
        &mut self,
        agent: AgentId,
        ctx: &mut dyn Context,
        answers: &mut Vec<ClaimAnswer>,
    ) {
        for reservation in self.reserved.values_mut() {
            reservation.held.retain(|m| m.agent != agent);
        }
        self.end_reservations_where(|r| r.holder() == Some(agent), ctx, answers);
    }

    /// Handle a parked agent's LL query for its key: refresh its lease
    /// (without creating an entry at servers it never visited) and
    /// return fresh locking information. Board entries the asker's
    /// `horizon` already covers are left out; the snapshot and the UL
    /// always travel whole, so the reply alone recovers a missed notice.
    pub fn handle_ll_query(
        &mut self,
        agent: AgentId,
        key: u64,
        reply_to: NodeId,
        horizon: &Horizon,
        now: SimTime,
    ) -> AgentReply {
        self.core.ll.purge_expired(now);
        self.core
            .ll
            .refresh(key, agent, now, self.core.lock_lease(), reply_to);
        let mut info = self.ll_info(key, now);
        if let AgentReply::LlInfo { board, .. } = &mut info {
            board.prune_covered_by(horizon);
        }
        info
    }

    /// Build an `LlInfo` reply about `key` from the current state.
    pub fn ll_info(&self, key: u64, now: SimTime) -> AgentReply {
        AgentReply::LlInfo {
            snapshot: self.core.ll.snapshot(key, now),
            board: if self.cfg.gossip {
                self.board.contents(key).cloned().unwrap_or_default()
            } else {
                LockingTable::new()
            },
            ul: self.core.ul.clone(),
        }
    }

    /// Periodic maintenance: purge expired LL entries and reservations
    /// (answering the claims a lapsed reservation was holding), and
    /// prune Updated List entries and incarnation fences too old for
    /// any stale claimant to still be live (bounded by the lock lease;
    /// the store's request dedup remains the permanent backstop).
    /// Appends to `answers` the acknowledgements of the claims
    /// re-validated.
    pub fn maintain(&mut self, ctx: &mut dyn Context, answers: &mut Vec<ClaimAnswer>) {
        self.core.purge_expired_locks(ctx);
        let horizon = ctx.now().checked_since(SimTime::ZERO).unwrap_or_default();
        if horizon > self.core.lock_lease() {
            let cutoff = SimTime::ZERO + (horizon - self.core.lock_lease());
            self.core.ul.prune_before(cutoff);
            self.fences.retain(|_, &mut (_, at)| at >= cutoff);
        }
        let now = ctx.now();
        self.end_reservations_where(|r| r.lapsed(now), ctx, answers);
        // A claim held behind a reservation is never refused while the
        // lease runs, so a stale holder must raise the flag itself.
        let mut holders = self.reserved.values().filter_map(Acceptor::holder);
        self.ask |= holders.any(|holder| self.stale(holder, now));
    }

    /// Crash recovery: volatile coordination state resets.
    pub fn on_recover(&mut self) {
        self.core.on_recover();
        self.board.clear();
        self.reserved.clear();
        self.peer_horizons.clear();
        self.fences.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::wrap_sync;
    use marp_net::Topology;
    use marp_replica::{LlSnapshot, ServerConfig, WriteRequest};
    use marp_sim::RecordingCtx;
    use std::time::Duration;

    fn state() -> MarpServerState {
        let cfg = MarpConfig::new(3);
        let topo = Topology::uniform_lan(3, Duration::from_millis(2));
        MarpServerState::new(
            ServerCore::new(0, ServerConfig::default(), wrap_sync),
            RoutingTable::from_topology(0, &topo),
            &cfg,
        )
    }

    fn aid(home: u16, ms: u64) -> AgentId {
        AgentId::new(home, SimTime::from_millis(ms), 0)
    }

    fn update_msg(agent: AgentId, cert: Option<Vec<AgentId>>) -> UpdateMsg {
        UpdateMsg {
            agent,
            attempt: 1,
            incarnation: 0,
            reply_to: agent.home,
            requests: vec![WriteRequest {
                id: 1,
                client: 9,
                key: 1,
                value: 1,
                arrived: SimTime::ZERO,
            }],
            tie_certificate: cert,
        }
    }

    /// The handlers, each returning what it appended to a list of its
    /// own.
    trait Answered {
        fn update(&mut self, msg: UpdateMsg, ctx: &mut RecordingCtx) -> Vec<ClaimAnswer>;
        fn release(&mut self, agent: AgentId, ctx: &mut RecordingCtx) -> Vec<ClaimAnswer>;
        fn learn(
            &mut self,
            winner: Option<AgentId>,
            records: Vec<CommitRecord>,
            ctx: &mut RecordingCtx,
        ) -> CommitOutcome;
        fn maintained(&mut self, ctx: &mut RecordingCtx) -> Vec<ClaimAnswer>;
    }

    impl Answered for MarpServerState {
        fn update(&mut self, mut msg: UpdateMsg, ctx: &mut RecordingCtx) -> Vec<ClaimAnswer> {
            let mut answers = Vec::new();
            self.handle_update(&mut msg, ctx, &mut answers);
            answers
        }
        fn release(&mut self, agent: AgentId, ctx: &mut RecordingCtx) -> Vec<ClaimAnswer> {
            let mut answers = Vec::new();
            self.handle_release(agent, ctx, &mut answers);
            answers
        }
        fn learn(
            &mut self,
            winner: Option<AgentId>,
            records: Vec<CommitRecord>,
            ctx: &mut RecordingCtx,
        ) -> CommitOutcome {
            let mut outcome = CommitOutcome::default();
            self.handle_commit(winner, &records, ctx, &mut outcome);
            outcome
        }
        fn maintained(&mut self, ctx: &mut RecordingCtx) -> Vec<ClaimAnswer> {
            let mut answers = Vec::new();
            self.maintain(ctx, &mut answers);
            answers
        }
    }

    fn ctx_at(ms: u64) -> RecordingCtx {
        RecordingCtx::new(0, SimTime::from_millis(ms))
    }

    /// Deliver `winner`'s COMMIT.
    fn commit(
        state: &mut MarpServerState,
        winner: AgentId,
        records: Vec<CommitRecord>,
        ctx: &mut RecordingCtx,
    ) -> CommitOutcome {
        state.learn(Some(winner), records, ctx)
    }

    /// Submit a claim that must be answered at once, alone.
    fn claim(state: &mut MarpServerState, msg: UpdateMsg, ctx: &mut RecordingCtx) -> AgentReply {
        let mut answers = state.update(msg, ctx);
        assert_eq!(answers.len(), 1, "expected exactly one ack: {answers:?}");
        answers.remove(0).ack
    }

    /// A request id no other agent's batch shares.
    fn own_request(agent: AgentId) -> u64 {
        100 + u64::from(agent.home)
    }

    /// `update_msg`, but carrying the agent's own request.
    fn own_msg(agent: AgentId, cert: Option<Vec<AgentId>>) -> UpdateMsg {
        let mut msg = update_msg(agent, cert);
        msg.requests[0].id = own_request(agent);
        msg
    }

    fn commit_record(winner: AgentId, version: u64, at: SimTime) -> CommitRecord {
        CommitRecord {
            version,
            key: 1,
            value: 7,
            agent: winner.key(),
            request: own_request(winner),
            committed_at: at,
        }
    }

    fn traced(ctx: &RecordingCtx, kind: &'static str) -> usize {
        ctx.traced
            .iter()
            .filter(|e| matches!(e, TraceEvent::Custom { kind: k, .. } if *k == kind))
            .count()
    }

    /// The low byte of every `update-refused` record, in trace order.
    fn refusals(ctx: &RecordingCtx) -> Vec<u64> {
        let refused = ctx.traced.iter().filter_map(|e| {
            let TraceEvent::Custom {
                kind: trace::UPDATE_REFUSED,
                b,
                ..
            } = e
            else {
                return None;
            };
            Some(b & 0xff)
        });
        refused.collect()
    }

    fn acked(ctx: &RecordingCtx, agent: AgentId) -> usize {
        ctx.traced
            .iter()
            .filter(|e| matches!(e, TraceEvent::UpdateAcked { agent: a, .. } if *a == agent.key()))
            .count()
    }

    fn positive(reply: &AgentReply) -> bool {
        let AgentReply::UpdateAck { positive, .. } = reply else {
            panic!("expected ack")
        };
        *positive
    }

    fn fenced(reply: &AgentReply) -> bool {
        let AgentReply::UpdateAck { fenced, .. } = reply else {
            panic!("expected ack")
        };
        *fenced
    }

    #[test]
    fn visit_appends_to_the_queue() {
        let mut state = state();
        let a = aid(1, 1);
        state.visit(a, 1, SimTime::from_millis(1), 1);
        assert_eq!(state.core.ll.queue(1).1.collect::<Vec<_>>(), vec![a]);
        assert!(state.core.ul.is_empty());
        // Gossip on by default: board empty until someone deposits.
        assert!(state.board.contents(1).is_none());
    }

    #[test]
    fn update_from_top_agent_is_positive_and_reserves() {
        let mut state = state();
        let a = aid(1, 1);
        state.visit(a, 1, SimTime::from_millis(1), 1);
        let mut ctx = RecordingCtx::new(0, SimTime::from_millis(2));
        let ack = claim(&mut state, update_msg(a, None), &mut ctx);
        assert!(positive(&ack));
        assert_eq!(state.reserved_for(1), Some(a));
    }

    #[test]
    fn update_from_non_top_without_certificate_is_negative() {
        let mut state = state();
        let a = aid(1, 1);
        let b = aid(2, 2);
        state.visit(a, 1, SimTime::from_millis(1), 1);
        state.visit(b, 1, SimTime::from_millis(2), 2);
        let mut ctx = RecordingCtx::new(0, SimTime::from_millis(3));
        let ack = claim(&mut state, update_msg(b, None), &mut ctx);
        assert!(!positive(&ack));
        assert_eq!(state.reserved_for(1), None);
    }

    #[test]
    fn certificate_validates_tie_claims() {
        let mut state = state();
        let a = aid(1, 1);
        let b = aid(2, 2);
        state.visit(a, 1, SimTime::from_millis(1), 1);
        state.visit(b, 1, SimTime::from_millis(2), 2);
        let mut ctx = RecordingCtx::new(0, SimTime::from_millis(3));
        // b claims with a certificate naming a — valid.
        let ack = claim(&mut state, update_msg(b, Some(vec![a])), &mut ctx);
        assert!(positive(&ack));
        // A certificate missing a does not validate for a third agent.
        let c = aid(3, 3);
        state.visit(c, 1, SimTime::from_millis(3), 0);
        state.release(b, &mut ctx);
        let ack = claim(&mut state, update_msg(c, Some(vec![b])), &mut ctx);
        assert!(!positive(&ack));
    }

    /// Server 0 with `a` then `b` queued on key 1.
    fn a_then_b() -> (MarpServerState, AgentId, AgentId) {
        let mut state = state();
        let a = aid(1, 1);
        let b = aid(2, 2);
        state.visit(a, 1, SimTime::from_millis(1), 1);
        state.visit(b, 1, SimTime::from_millis(2), 2);
        (state, a, b)
    }

    /// `a_then_b` with `a` holding the reservation (its claim acked at
    /// 3 ms).
    fn reserved_for_a() -> (MarpServerState, AgentId, AgentId, RecordingCtx) {
        let (mut state, a, b) = a_then_b();
        let mut ctx = ctx_at(3);
        assert!(positive(&claim(&mut state, own_msg(a, None), &mut ctx)));
        (state, a, b, ctx)
    }

    #[test]
    fn early_claim_is_held_then_acked_after_the_holders_commit() {
        let (mut state, a, b, mut ctx) = reserved_for_a();
        // b heard "a finished" at its own host and claims before a's
        // COMMIT lands here: only a's reservation is in the way.
        let mut early = own_msg(b, None);
        early.attempt = 4;
        assert!(state.update(early, &mut ctx).is_empty());
        assert_eq!(state.held_claimants(1).collect::<Vec<_>>(), vec![b]);
        assert_eq!(state.claims_held(), 1);
        assert_eq!(traced(&ctx, trace::UPDATE_HELD), 1);
        assert_eq!(traced(&ctx, trace::UPDATE_REFUSED), 0);
        assert_eq!(acked(&ctx, b), 0, "no ack is traced before one is sent");
        assert_eq!(state.reserved_for(1), Some(a));

        ctx.now = SimTime::from_millis(5);
        let record = commit_record(a, 1, ctx.now);
        let outcome = commit(&mut state, a, vec![record], &mut ctx);
        assert_eq!(outcome.waiters, vec![(a, b)]);
        assert_eq!(outcome.answers.len(), 1);
        let answer = &outcome.answers[0];
        assert_eq!((answer.agent, answer.reply_to), (b, b.home));
        let AgentReply::UpdateAck {
            attempt,
            positive,
            fenced,
            store_version,
            ..
        } = answer.ack
        else {
            panic!("expected ack")
        };
        assert!(positive && !fenced);
        assert_eq!(attempt, 4, "the held message's attempt is echoed");
        assert_eq!(store_version, 1, "a's commit is already applied");
        assert_eq!(acked(&ctx, b), 1);
        assert_eq!(state.reserved_for(1), Some(b));
        assert_eq!(state.held_claimants(1).count(), 0);
    }

    #[test]
    fn an_ack_reports_a_version_buffered_behind_a_gap() {
        let (mut state, a, b, mut ctx) = reserved_for_a();
        let mut early = own_msg(b, None);
        early.attempt = 4;
        assert!(state.update(early, &mut ctx).is_empty());
        // a's COMMIT is for version 3, but versions 1 and 2 never
        // reached this server: it can only buffer the record. It still
        // retires a and answers the claim held behind it.
        ctx.now = SimTime::from_millis(5);
        let outcome = commit(&mut state, a, vec![commit_record(a, 3, ctx.now)], &mut ctx);
        assert_eq!(state.core.store.applied_version_for(1), 0);
        assert_eq!(outcome.answers.len(), 1);
        let AgentReply::UpdateAck {
            positive,
            store_version,
            ..
        } = outcome.answers[0].ack
        else {
            panic!("expected ack")
        };
        // b must number its write past the buffered version: reporting
        // the applied one would let it commit as version 3 too.
        assert!(positive);
        assert_eq!(store_version, 3);
    }

    #[test]
    fn a_commit_learned_by_push_retires_the_winner_like_its_commit() {
        let (mut state, a, b, mut ctx) = reserved_for_a();
        assert!(state.update(own_msg(b, None), &mut ctx).is_empty());
        // a's COMMIT never arrives; a peer's anti-entropy Push carries
        // its record instead, well inside the 5 s reservation lease.
        ctx.now = SimTime::from_millis(5);
        let records = vec![commit_record(a, 1, ctx.now)];
        let outcome = state.learn(None, records, &mut ctx);
        assert_eq!(state.core.store.applied_version(), 1);
        assert!(!state.core.ll.contains(1, a));
        assert!(state.core.ul.contains(a), "a finished: its UL record");
        // The claim held behind a is answered in the same call — not
        // when `reserve_lease` runs out — and takes the reservation.
        assert_eq!(outcome.waiters, vec![(a, b)]);
        assert_eq!(outcome.answers.len(), 1);
        assert_eq!(outcome.answers[0].agent, b);
        assert!(positive(&outcome.answers[0].ack));
        assert_eq!(acked(&ctx, b), 1);
        assert_eq!(state.reserved_for(1), Some(b));
        assert_eq!(state.held_claimants(1).count(), 0);
    }

    #[test]
    fn held_claims_are_answered_when_the_holder_releases() {
        let (mut state, a, b, mut ctx) = reserved_for_a();
        let c = aid(3, 3);
        state.visit(c, 1, SimTime::from_millis(3), 0);
        // b vouches for a by certificate; c claims as if a were done.
        assert!(state.update(own_msg(b, Some(vec![a])), &mut ctx).is_empty());
        assert!(state
            .update(own_msg(c, Some(vec![a, b])), &mut ctx)
            .is_empty());
        // a aborts. It is still queued ahead, unfinished: b's
        // certificate covers that, so b takes the reservation, and c is
        // now held behind b.
        let answers = state.release(a, &mut ctx);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].agent, b);
        assert!(positive(&answers[0].ack));
        assert_eq!(state.reserved_for(1), Some(b));
        assert_eq!(state.held_claimants(1).collect::<Vec<_>>(), vec![c]);
        // b aborts too: c's certificate names both, so c validates.
        let answers = state.release(b, &mut ctx);
        assert_eq!(answers.len(), 1);
        assert!(positive(&answers[0].ack));
        assert_eq!(state.reserved_for(1), Some(c));
        assert_eq!(state.held_claimants(1).count(), 0);
    }

    #[test]
    fn a_held_claim_can_be_refused_once_the_holder_releases() {
        let (mut state, a, b, mut ctx) = reserved_for_a();
        // No certificate: b believed a finished. a aborts instead and
        // stays queued ahead of b, so the unchanged validation refuses.
        assert!(state.update(own_msg(b, None), &mut ctx).is_empty());
        let answers = state.release(a, &mut ctx);
        assert_eq!(answers.len(), 1);
        assert!(!positive(&answers[0].ack));
        assert_eq!(state.reserved_for(1), None);
        assert_eq!(refusals(&ctx), [Refusal::NotTop as u64]);
    }

    #[test]
    fn held_claims_are_answered_when_the_reservation_lapses() {
        let (mut state, a, b, mut ctx) = reserved_for_a();
        assert!(state.update(own_msg(b, Some(vec![a])), &mut ctx).is_empty());
        // Inside the lease, maintenance leaves the hold alone.
        ctx.now = SimTime::from_secs(1);
        assert!(state.maintained(&mut ctx).is_empty());
        assert_eq!(state.held_claimants(1).count(), 1);
        // Past the 5 s reservation lease the holder is presumed dead.
        ctx.now = SimTime::from_secs(10);
        let answers = state.maintained(&mut ctx);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].agent, b);
        assert!(positive(&answers[0].ack));
        assert_eq!(state.reserved_for(1), Some(b));
    }

    #[test]
    fn a_reservation_binds_until_exactly_granted_plus_lease() {
        let (mut state, a, b, mut ctx) = reserved_for_a();
        assert!(state.update(own_msg(b, Some(vec![a])), &mut ctx).is_empty());
        // a was granted at 3 ms; its lease is half-open.
        let expiry = ctx.now + state.config().reserve_lease;
        ctx.now += state.config().reserve_lease - Duration::from_nanos(1);
        assert!(state.maintained(&mut ctx).is_empty());
        assert_eq!(state.held_claimants(1).collect::<Vec<_>>(), vec![b]);
        assert_eq!(state.reserved_for(1), Some(a));
        ctx.now = expiry;
        let answers = state.maintained(&mut ctx);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].agent, b);
        assert!(positive(&answers[0].ack));
        assert_eq!(state.reserved_for(1), Some(b));
    }

    #[test]
    fn a_lapsed_reservation_is_noticed_by_the_next_update_too() {
        let (mut state, a, b, mut ctx) = reserved_for_a();
        let c = aid(3, 3);
        state.visit(c, 1, SimTime::from_millis(3), 0);
        assert!(state.update(own_msg(b, Some(vec![a])), &mut ctx).is_empty());
        // c's claim arrives after the lease ran out but before the
        // maintenance tick: b, held first, is answered first.
        ctx.now = SimTime::from_secs(10);
        let answers = state.update(own_msg(c, None), &mut ctx);
        let verdicts: Vec<(AgentId, bool)> = answers
            .iter()
            .map(|x| (x.agent, positive(&x.ack)))
            .collect();
        assert_eq!(verdicts, vec![(b, true), (c, false)]);
        assert_eq!(state.reserved_for(1), Some(b));
        assert_eq!(state.held_claimants(1).count(), 0);
    }

    #[test]
    fn a_newer_attempt_replaces_the_held_one() {
        let (mut state, a, b, mut ctx) = reserved_for_a();
        let mut first = own_msg(b, None);
        first.attempt = 1;
        let mut second = own_msg(b, None);
        second.attempt = 2;
        assert!(state.update(first.clone(), &mut ctx).is_empty());
        assert!(state.update(second, &mut ctx).is_empty());
        // A reordered copy of the older attempt changes nothing.
        assert!(state.update(first, &mut ctx).is_empty());
        assert_eq!(state.held_claimants(1).collect::<Vec<_>>(), vec![b]);
        let record = commit_record(a, 1, ctx.now);
        let outcome = commit(&mut state, a, vec![record], &mut ctx);
        assert_eq!(outcome.answers.len(), 1, "one slot per agent");
        assert!(matches!(
            outcome.answers[0].ack,
            AgentReply::UpdateAck {
                attempt: 2,
                positive: true,
                ..
            }
        ));
    }

    #[test]
    fn a_holder_claiming_again_keeps_the_claims_behind_it() {
        let (mut state, a, b, mut ctx) = reserved_for_a();
        assert!(state.update(own_msg(b, None), &mut ctx).is_empty());
        // a's second attempt (its first ack round timed out elsewhere)
        // renews the reservation; b stays held behind it.
        let mut again = own_msg(a, None);
        again.attempt = 2;
        assert!(positive(&claim(&mut state, again, &mut ctx)));
        assert_eq!(state.held_claimants(1).collect::<Vec<_>>(), vec![b]);
        let record = commit_record(a, 1, ctx.now);
        let outcome = commit(&mut state, a, vec![record], &mut ctx);
        assert_eq!(outcome.answers.len(), 1);
        assert!(positive(&outcome.answers[0].ack));
    }

    #[test]
    fn the_claimants_own_release_drops_its_held_claim() {
        let (mut state, a, b, mut ctx) = reserved_for_a();
        assert!(state.update(own_msg(b, None), &mut ctx).is_empty());
        // b's ack timeout fired: it aborts and broadcasts RELEASE.
        assert!(state.release(b, &mut ctx).is_empty());
        assert_eq!(state.held_claimants(1).count(), 0);
        assert_eq!(
            state.reserved_for(1),
            Some(a),
            "a's reservation is untouched"
        );
        let record = commit_record(a, 1, ctx.now);
        assert!(commit(&mut state, a, vec![record], &mut ctx)
            .answers
            .is_empty());
        // Crash recovery forgets held claims with the rest.
        state.visit(aid(3, 3), 1, ctx.now, 0);
        assert!(positive(&claim(&mut state, own_msg(b, None), &mut ctx)));
        assert!(state.update(own_msg(aid(3, 3), None), &mut ctx).is_empty());
        assert_eq!(state.held_claimants(1).count(), 1);
        state.on_recover();
        assert_eq!(state.held_claimants(1).count(), 0);
    }

    #[test]
    fn a_held_claimants_own_commit_drops_its_held_claim() {
        let (mut state, a, b, mut ctx) = reserved_for_a();
        assert!(state.update(own_msg(b, None), &mut ctx).is_empty());
        // b assembled its majority elsewhere and commits first.
        let record = commit_record(b, 1, ctx.now);
        let outcome = commit(&mut state, b, vec![record], &mut ctx);
        assert!(outcome.answers.is_empty());
        assert_eq!(state.held_claimants(1).count(), 0);
        assert_eq!(state.reserved_for(1), Some(a), "a's is not b's to end");
    }

    #[test]
    fn doomed_claims_are_refused_at_once_never_held() {
        let (mut state, a, b, mut ctx) = reserved_for_a();
        let c = aid(3, 3);
        state.visit(c, 1, SimTime::from_millis(3), 0);
        // Behind an unfinished agent (b) that c's certificate omits.
        let ack = claim(&mut state, own_msg(c, Some(vec![a])), &mut ctx);
        assert!(!positive(&ack) && !fenced(&ack));
        // Not enqueued here at all.
        let stranger = aid(4, 4);
        let ack = claim(&mut state, own_msg(stranger, Some(vec![a, b, c])), &mut ctx);
        assert!(!positive(&ack) && !fenced(&ack));
        // Fenced: a regenerated successor of b's batch was acked.
        state.fences.insert(own_request(b), (1, ctx.now));
        let ack = claim(&mut state, own_msg(b, None), &mut ctx);
        assert!(!positive(&ack) && fenced(&ack));
        assert_eq!(state.held_claimants(1).count(), 0);
        assert_eq!(state.claims_held(), 0);
        assert_eq!(traced(&ctx, trace::UPDATE_HELD), 0);
        assert_eq!(traced(&ctx, trace::UPDATE_REFUSED), 3);
    }

    #[test]
    fn reservation_expires_after_lease() {
        let mut state = state();
        let a = aid(1, 1);
        let b = aid(2, 2);
        state.visit(a, 1, SimTime::from_millis(1), 1);
        state.visit(b, 1, SimTime::from_millis(2), 2);
        let mut ctx = RecordingCtx::new(0, SimTime::from_millis(3));
        assert!(positive(&claim(&mut state, update_msg(a, None), &mut ctx)));
        // Well past the 5 s reservation lease.
        ctx.now = SimTime::from_secs(10);
        let ack = claim(&mut state, update_msg(b, Some(vec![a])), &mut ctx);
        assert!(positive(&ack));
    }

    #[test]
    fn commit_retires_winner_and_reports_the_waiters() {
        let mut state = state();
        let a = aid(1, 1);
        let b = aid(2, 2);
        state.visit(a, 1, SimTime::from_millis(1), 1);
        state.visit(b, 1, SimTime::from_millis(2), 2);
        let mut ctx = RecordingCtx::new(0, SimTime::from_millis(5));
        let record = CommitRecord {
            version: 1,
            key: 1,
            value: 7,
            agent: a.key(),
            request: 1,
            committed_at: ctx.now,
        };
        let outcome = commit(&mut state, a, vec![record], &mut ctx);
        assert_eq!(outcome.waiters, vec![(a, b)]);
        assert!(outcome.answers.is_empty());
        assert!(!state.core.ll.contains(1, a));
        assert!(state.core.ul.contains(a));
        assert_eq!(state.core.store.applied_version(), 1);
    }

    #[test]
    fn ll_query_refreshes_but_does_not_enqueue() {
        let mut state = state();
        let a = aid(1, 1);
        let stranger = aid(7, 7);
        state.visit(a, 1, SimTime::from_millis(1), 1);
        let reply = state.handle_ll_query(stranger, 1, 5, &Horizon::new(), SimTime::from_millis(2));
        let AgentReply::LlInfo { snapshot, .. } = reply else {
            panic!("expected LlInfo")
        };
        assert_eq!(snapshot.queue, vec![a]);
        assert!(!state.core.ll.contains(1, stranger));
    }

    #[test]
    fn ll_query_reply_omits_board_entries_under_the_askers_horizon() {
        let mut state = state();
        let a = aid(1, 1);
        let mut lt = LockingTable::new();
        for (server, version) in [(1, 4), (2, 6)] {
            lt.merge(
                server,
                LlSnapshot {
                    version,
                    taken_at: SimTime::from_millis(version),
                    queue: vec![a],
                },
            );
        }
        state.board.exchange(1, &mut lt);
        // The asker already holds server 1 at version 4 and server 2 at
        // version 5: only server 2's newer snapshot is news to it.
        let horizon = Horizon::from_iter([(1, 4), (2, 5)]);
        let reply = state.handle_ll_query(a, 1, 5, &horizon, SimTime::from_millis(7));
        let AgentReply::LlInfo { board, .. } = reply else {
            panic!("expected LlInfo");
        };
        assert_eq!(board.horizon(), Horizon::from_iter([(2, 6)]));
        // The board itself keeps everything for the next visitor.
        assert_eq!(state.board.known_servers(1), 2);
    }

    #[test]
    fn finished_agents_are_never_re_enqueued() {
        let mut state = state();
        let a = aid(1, 1);
        let mut ctx = RecordingCtx::new(0, SimTime::from_millis(5));
        // a commits...
        state.visit(a, 1, SimTime::from_millis(1), 1);
        let record = CommitRecord {
            version: 1,
            key: 1,
            value: 7,
            agent: a.key(),
            request: 1,
            committed_at: ctx.now,
        };
        state.learn(Some(a), vec![record], &mut ctx);
        assert!(state.core.ul.contains(a));
        // ...and a stale clone of a tries to queue again: refused.
        state.visit(a, 1, SimTime::from_millis(6), 2);
        assert!(!state.core.ll.contains(1, a));
        assert_eq!(state.core.ll.queue(1).1.len(), 0);
        // The clone can see its own id in the UL it reads and dispose.
        assert!(state.core.ul.contains(a));
    }

    #[test]
    fn stale_finished_entries_do_not_block_claims() {
        let mut state = state();
        let stale = aid(1, 1);
        let claimant = aid(2, 2);
        // The stale agent is enqueued, then its commit arrives through
        // anti-entropy *after* a clone re-queued it: force the bad
        // state by inserting the UL record directly.
        state.visit(stale, 1, SimTime::from_millis(1), 1);
        state.visit(claimant, 1, SimTime::from_millis(2), 2);
        state.core.ul.record(stale, SimTime::from_millis(3));
        let mut ctx = RecordingCtx::new(0, SimTime::from_millis(4));
        // Claim with a certificate that does NOT name the stale agent:
        // it must still validate because the server's UL marks the
        // entry as finished.
        let ack = claim(&mut state, update_msg(claimant, Some(vec![])), &mut ctx);
        assert!(positive(&ack));
    }

    #[test]
    fn anti_entropy_commits_purge_queue_entries() {
        let mut state = state();
        let winner = aid(1, 1);
        state.visit(winner, 9, SimTime::from_millis(1), 1);
        assert!(state.core.ll.contains(9, winner));
        let mut ctx = RecordingCtx::new(0, SimTime::from_millis(2));
        // The commit arrives via SyncMsg::Push (anti-entropy), not the
        // winner's COMMIT broadcast.
        let record = CommitRecord {
            version: 1,
            key: 9,
            value: 90,
            agent: winner.key(),
            request: 5,
            committed_at: ctx.now,
        };
        state.learn(None, vec![record], &mut ctx);
        assert_eq!(state.core.store.applied_version(), 1);
        assert!(
            !state.core.ll.contains(9, winner),
            "sync-applied commit left a stale queue entry"
        );
    }

    #[test]
    fn gossip_can_be_disabled() {
        let mut cfg = MarpConfig::new(3);
        cfg.gossip = false;
        let topo = Topology::uniform_lan(3, Duration::from_millis(2));
        let mut state = MarpServerState::new(
            ServerCore::new(0, ServerConfig::default(), wrap_sync),
            RoutingTable::from_topology(0, &topo),
            &cfg,
        );
        // A commit changes this server's own queue; with gossip on it
        // would post the new queue on its board.
        let winner = aid(1, 1);
        state.visit(winner, 1, SimTime::from_millis(1), 1);
        let mut ctx = RecordingCtx::new(0, SimTime::from_millis(2));
        let record = CommitRecord {
            version: 1,
            key: 1,
            value: 10,
            agent: winner.key(),
            request: 5,
            committed_at: ctx.now,
        };
        state.learn(Some(winner), vec![record], &mut ctx);
        assert!(state.core.ul.contains(winner));
        assert!(state.board.contents(1).is_none());
    }

    #[test]
    fn stale_incarnation_is_fenced_after_regeneration_acked() {
        let mut state = state();
        let original = aid(1, 1);
        let regenerated = aid(1, 5);
        state.visit(regenerated, 1, SimTime::from_millis(5), 1);
        let mut ctx = RecordingCtx::new(0, SimTime::from_millis(6));
        // The regenerated agent (incarnation 1) gets a positive ack,
        // raising the fence for request 1.
        let mut first = update_msg(regenerated, None);
        first.incarnation = 1;
        let ack = claim(&mut state, first, &mut ctx);
        assert!(positive(&ack));
        assert!(!fenced(&ack));
        state.release(regenerated, &mut ctx);
        // The zombie original (incarnation 0) now claims — even from the
        // top of the queue it must be refused and told it is superseded.
        state.visit(original, 1, SimTime::from_millis(7), 2);
        state.core.ll.remove(1, regenerated);
        let ack = claim(&mut state, update_msg(original, None), &mut ctx);
        assert!(!positive(&ack));
        assert!(fenced(&ack), "stale incarnation must get a fenced ack");
        assert_eq!(refusals(&ctx), [Refusal::StaleIncarnation as u64]);
    }

    #[test]
    fn claims_for_already_committed_requests_are_fenced() {
        let mut state = state();
        let winner = aid(1, 1);
        let zombie = aid(1, 3);
        let mut ctx = RecordingCtx::new(0, SimTime::from_millis(5));
        state.visit(winner, 1, SimTime::from_millis(1), 1);
        let record = CommitRecord {
            version: 1,
            key: 1,
            value: 7,
            agent: winner.key(),
            request: 1,
            committed_at: ctx.now,
        };
        state.learn(Some(winner), vec![record], &mut ctx);
        // A different agent carrying the same (already committed)
        // request gets a fenced refusal regardless of queue position.
        state.visit(zombie, 1, SimTime::from_millis(6), 2);
        let ack = claim(&mut state, update_msg(zombie, None), &mut ctx);
        assert!(!positive(&ack));
        assert!(fenced(&ack), "committed work must fence late claimants");
        assert_eq!(refusals(&ctx), [Refusal::AlreadyCommitted as u64]);
    }

    #[test]
    fn a_superseded_claimant_leaves_the_queue() {
        let mut state = state();
        let (winner, zombie, next) = (aid(1, 1), aid(3, 3), aid(2, 4));
        let mut ctx = RecordingCtx::new(0, SimTime::from_millis(5));
        state.visit(winner, 1, SimTime::from_millis(1), 1);
        state.visit(zombie, 1, SimTime::from_millis(2), 1);
        state.visit(next, 1, SimTime::from_millis(3), 2);
        let record = CommitRecord {
            version: 1,
            key: 1,
            value: 7,
            agent: winner.key(),
            request: 1,
            committed_at: ctx.now,
        };
        state.learn(Some(winner), vec![record], &mut ctx);
        // The zombie carries the committed request: refused as
        // superseded, it disposes, so it stands in no one's way here.
        let ack = claim(&mut state, update_msg(zombie, None), &mut ctx);
        assert!(fenced(&ack));
        assert!(!state.core.ll.contains(1, zombie));
        assert_eq!(state.core.ll.top(1, ctx.now), Some(next));
    }

    /// Each refusal, reached by a real claim: traced with its code, and
    /// fenced or not, both pinned by value (the codes are a trace format).
    #[test]
    fn every_refusal_is_traced_with_its_code() {
        type Setup = fn() -> (MarpServerState, UpdateMsg);
        let cases: [(Refusal, u64, bool, Setup); 6] = [
            (Refusal::Reserved, 1, false, || {
                // c's certificate omits b, unfinished between a and c.
                let (mut state, a, _, _) = reserved_for_a();
                let c = aid(3, 3);
                state.visit(c, 1, SimTime::from_millis(3), 0);
                (state, own_msg(c, Some(vec![a])))
            }),
            (Refusal::NotQueued, 2, false, || {
                (state(), own_msg(aid(4, 4), Some(vec![])))
            }),
            (Refusal::Uncertified, 3, false, || {
                let (state, _, b) = a_then_b();
                (state, own_msg(b, Some(vec![])))
            }),
            (Refusal::NotTop, 4, false, || {
                let (state, _, b) = a_then_b();
                (state, own_msg(b, None))
            }),
            (Refusal::StaleIncarnation, 5, true, || {
                // The original's regenerated successor was acked, then
                // released: the original is on top, and only the fence
                // stands in its way.
                let mut state = state();
                let (original, successor) = (aid(1, 1), aid(1, 5));
                state.visit(successor, 1, SimTime::from_millis(1), 1);
                let mut ctx = ctx_at(2);
                let mut regenerated = own_msg(successor, None);
                regenerated.incarnation = 1;
                assert!(positive(&claim(&mut state, regenerated, &mut ctx)));
                state.release(successor, &mut ctx);
                state.core.ll.remove(1, successor);
                state.visit(original, 1, SimTime::from_millis(2), 1);
                (state, own_msg(original, None))
            }),
            (Refusal::AlreadyCommitted, 6, true, || {
                // b, now on top, carries the request a committed.
                let (mut state, a, b) = a_then_b();
                let mut ctx = ctx_at(2);
                state.learn(Some(a), vec![commit_record(a, 1, ctx.now)], &mut ctx);
                let mut msg = own_msg(b, None);
                msg.requests[0].id = own_request(a);
                (state, msg)
            }),
        ];
        for (refusal, code, superseded, setup) in cases {
            assert_eq!((refusal as u64, refusal.fenced()), (code, superseded));
            let (mut state, msg) = setup();
            let mut ctx = ctx_at(3);
            let ack = claim(&mut state, msg, &mut ctx);
            assert!(!positive(&ack), "{refusal:?}");
            assert_eq!(refusals(&ctx), [code], "{refusal:?}");
            assert_eq!(fenced(&ack), superseded, "{refusal:?}");
            assert_eq!(state.claims_held(), 0, "{refusal:?}");
            assert_eq!(state.held_claimants(1).count(), 0, "{refusal:?}");
        }
    }
}
