//! The paper's per-server coordination structures.
//!
//! §3.2: "Each replicated server Si maintains two data structures. One is
//! called Locking List (LL), used to store the locking information for
//! each visiting mobile agent. LL is sorted according to the time the
//! entries are created. The other is called Updated List (UL), a list of
//! identifiers of the mobile agents that have already obtained the lock
//! and performed the actual update."
//!
//! We add one robustness mechanism the paper leaves implicit: every LL
//! entry carries a *lease*. An agent that dies with its host would
//! otherwise leave a top-ranked entry in place forever and deadlock the
//! system; expired entries are purged. Leases are long relative to
//! protocol latencies, so they never fire in fault-free runs.

use marp_agent::AgentId;
use marp_sim::SimTime;
use std::collections::BTreeMap;
use std::time::Duration;

/// One Locking List entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockEntry {
    /// The requesting agent.
    pub agent: AgentId,
    /// Lease expiry; refreshed by agent visits and re-polls.
    pub expires_at: SimTime,
    /// The node the agent was residing at when it last touched this
    /// entry — where LL-change notifications are pushed.
    pub last_host: marp_sim::NodeId,
}

/// FIFO list of lock requests at one server.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LockingList {
    entries: Vec<LockEntry>,
    /// Monotonic queue-content version: bumped whenever the *sequence of
    /// agents* changes (append, removal, purge) — not on lease
    /// refreshes, which leave snapshots identical. Snapshots carry it so
    /// receivers can order them and delta-encode exchanges.
    version: u64,
}

impl LockingList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current queue-content version (0 while never mutated).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Append an agent (idempotent: a repeat visit refreshes the lease
    /// and the agent's last known host but keeps the original position —
    /// the list "is sorted according to the time the entries are
    /// created").
    pub fn request(
        &mut self,
        agent: AgentId,
        now: SimTime,
        lease: std::time::Duration,
        last_host: marp_sim::NodeId,
    ) {
        let expires_at = now + lease;
        if let Some(entry) = self.entries.iter_mut().find(|e| e.agent == agent) {
            entry.expires_at = entry.expires_at.max(expires_at);
            entry.last_host = last_host;
            return;
        }
        self.entries.push(LockEntry {
            agent,
            expires_at,
            last_host,
        });
        self.version += 1;
    }

    /// Refresh the lease of an existing entry without creating one (used
    /// by parked agents' re-polls, which must not enqueue at servers the
    /// agent never visited). Returns true if an entry was refreshed.
    pub fn refresh(
        &mut self,
        agent: AgentId,
        now: SimTime,
        lease: std::time::Duration,
        last_host: marp_sim::NodeId,
    ) -> bool {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.agent == agent) {
            entry.expires_at = entry.expires_at.max(now + lease);
            entry.last_host = last_host;
            true
        } else {
            false
        }
    }

    /// Remove an agent's entry (after its COMMIT, or when it appears in
    /// a UL). Returns true if an entry was removed.
    pub fn remove(&mut self, agent: AgentId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.agent != agent);
        let removed = self.entries.len() != before;
        if removed {
            self.version += 1;
        }
        removed
    }

    /// Drop expired entries; returns the agents purged.
    ///
    /// Leases are half-open intervals `[enqueued, expires_at)`: an entry
    /// is live while `now < expires_at` and purged at the expiry instant
    /// itself (`expires_at <= now`). [`Acceptor::lapsed`] uses the same
    /// convention, so at exactly `t = expires` both structures agree the
    /// holder is gone.
    pub fn purge_expired(&mut self, now: SimTime) -> Vec<AgentId> {
        let mut purged = Vec::new();
        self.entries.retain(|e| {
            if e.expires_at <= now {
                purged.push(e.agent);
                false
            } else {
                true
            }
        });
        if !purged.is_empty() {
            self.version += 1;
        }
        purged
    }

    /// The entries whose lease is still running at `now`.
    fn live(&self, now: SimTime) -> impl Iterator<Item = &LockEntry> {
        self.entries.iter().filter(move |e| now < e.expires_at)
    }

    /// The top-ranked (oldest live) agent at `now`: an entry whose lease
    /// has lapsed ranks nowhere, purged or not.
    pub fn top(&self, now: SimTime) -> Option<AgentId> {
        self.live(now).next().map(|e| e.agent)
    }

    /// 0-based rank of an agent among the entries live at `now`, if its
    /// own is one of them.
    pub fn rank_of(&self, agent: AgentId, now: SimTime) -> Option<usize> {
        self.live(now).position(|e| e.agent == agent)
    }

    /// Whether an agent has an entry.
    pub fn contains(&self, agent: AgentId) -> bool {
        self.entries.iter().any(|e| e.agent == agent)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no agent is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in order (for snapshots and inspection).
    pub fn entries(&self) -> &[LockEntry] {
        &self.entries
    }

    /// An ordered snapshot of agent ids, as carried in Locking Tables.
    pub fn snapshot(&self, taken_at: SimTime) -> LlSnapshot {
        LlSnapshot {
            version: self.version,
            taken_at,
            queue: self.entries.iter().map(|e| e.agent).collect(),
        }
    }
}

/// The per-server lock table: one independent FIFO [`LockingList`] per
/// *object key*.
///
/// The paper describes a single replicated object, so its LL is one
/// queue. Generalizing to a keyspace, mutual exclusion is needed per
/// object: agents batching writes to key *k* contend only with other
/// key-*k* agents, and Theorems 1–3 hold independently within each
/// queue. Each key's list keeps its own monotonic content version (the
/// delta-encoding horizon is per `(key, server)`).
///
/// Lists are created on first use and never dropped, even when they
/// drain empty — dropping one would reset its content version and break
/// the monotonicity that snapshot ordering and horizon pruning rely on.
/// The key universe of a deployment is bounded, so this does not leak.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LockTable {
    lists: BTreeMap<u64, LockingList>,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The list for `key`, if any agent ever enqueued there.
    pub fn list(&self, key: u64) -> Option<&LockingList> {
        self.lists.get(&key)
    }

    /// The list for `key`, created empty on first touch.
    pub fn list_mut(&mut self, key: u64) -> &mut LockingList {
        self.lists.entry(key).or_default()
    }

    /// Append `agent` to `key`'s queue (see [`LockingList::request`]).
    pub fn request(
        &mut self,
        key: u64,
        agent: AgentId,
        now: SimTime,
        lease: std::time::Duration,
        last_host: marp_sim::NodeId,
    ) {
        self.list_mut(key).request(agent, now, lease, last_host);
    }

    /// Refresh `agent`'s lease in `key`'s queue without enqueueing.
    pub fn refresh(
        &mut self,
        key: u64,
        agent: AgentId,
        now: SimTime,
        lease: std::time::Duration,
        last_host: marp_sim::NodeId,
    ) -> bool {
        match self.lists.get_mut(&key) {
            Some(ll) => ll.refresh(agent, now, lease, last_host),
            None => false,
        }
    }

    /// Remove `agent` from `key`'s queue.
    pub fn remove(&mut self, key: u64, agent: AgentId) -> bool {
        self.lists.get_mut(&key).is_some_and(|ll| ll.remove(agent))
    }

    /// Purge expired entries from every queue; returns `(key, agent)`
    /// pairs purged.
    pub fn purge_expired(&mut self, now: SimTime) -> Vec<(u64, AgentId)> {
        let mut purged = Vec::new();
        for (&key, ll) in self.lists.iter_mut() {
            for agent in ll.purge_expired(now) {
                purged.push((key, agent));
            }
        }
        purged
    }

    /// Crash recovery: every queue's entries are volatile and lost, its
    /// content version is not. Peers' boards and agents' tables still
    /// hold pre-crash snapshots of these lists, and a version that
    /// restarted at 0 would lose to every one of them
    /// ([`LlSnapshot::is_older_than`] compares versions first) — so it
    /// is kept, and bumped even when the list was already empty.
    pub fn clear_for_recovery(&mut self) {
        for ll in self.lists.values_mut() {
            ll.entries.clear();
            ll.version += 1;
        }
    }

    /// `key`'s queue-content version (0 while never touched).
    pub fn version(&self, key: u64) -> u64 {
        self.lists.get(&key).map_or(0, LockingList::version)
    }

    /// Top-ranked live agent of `key`'s queue (see [`LockingList::top`]).
    pub fn top(&self, key: u64, now: SimTime) -> Option<AgentId> {
        self.lists.get(&key).and_then(|ll| ll.top(now))
    }

    /// 0-based rank of `agent` among `key`'s live entries.
    pub fn rank_of(&self, key: u64, agent: AgentId, now: SimTime) -> Option<usize> {
        self.lists.get(&key).and_then(|ll| ll.rank_of(agent, now))
    }

    /// Whether `agent` is queued under `key`.
    pub fn contains(&self, key: u64, agent: AgentId) -> bool {
        self.lists.get(&key).is_some_and(|ll| ll.contains(agent))
    }

    /// `key`'s queue-content version and its agents in queue order,
    /// read in place (version 0 and nobody if never touched).
    pub fn queue(&self, key: u64) -> (u64, impl ExactSizeIterator<Item = AgentId> + Clone + '_) {
        let ll = self.lists.get(&key);
        let entries = ll.map_or(&[][..], LockingList::entries);
        (
            ll.map_or(0, LockingList::version),
            entries.iter().map(|e| e.agent),
        )
    }

    /// Snapshot `key`'s queue (empty virgin snapshot if never touched).
    pub fn snapshot(&self, key: u64, taken_at: SimTime) -> LlSnapshot {
        let (version, queue) = self.queue(key);
        LlSnapshot {
            version,
            taken_at,
            queue: queue.collect(),
        }
    }

    /// Keys with a (possibly empty) list.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.lists.keys().copied()
    }

    /// True when no agent is queued under any key.
    pub fn is_empty(&self) -> bool {
        self.lists.values().all(LockingList::is_empty)
    }
}

/// A point-in-time copy of one server's LL ordering, as exchanged
/// between agents (directly or via gossip boards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlSnapshot {
    /// The owning server's queue-content version when the snapshot was
    /// taken (see [`LockingList::version`]). Orders snapshots of the
    /// same server and lets receivers advertise a horizon so senders
    /// ship only what is newer.
    pub version: u64,
    /// When the snapshot was taken at the owning server.
    pub taken_at: SimTime,
    /// Agent ids in queue order (index 0 is the top).
    pub queue: Vec<AgentId>,
}

marp_wire::wire_struct!(LlSnapshot {
    version,
    taken_at,
    queue
});

impl LlSnapshot {
    /// True when every agent queued was launched by a server of an
    /// `n`-server system.
    pub fn validate(&self, n: usize) -> bool {
        self.queue.iter().all(|agent| agent.validate(n))
    }

    /// The top-ranked agent in this snapshot.
    pub fn top(&self) -> Option<AgentId> {
        self.queue.first().copied()
    }

    /// Whether `newer` supersedes `self`. Versions order snapshots of
    /// one server; `taken_at` breaks ties between equal-version
    /// snapshots (a lease refresh re-snapshotted later).
    pub fn is_older_than(&self, newer: &LlSnapshot) -> bool {
        (self.version, self.taken_at) < (newer.version, newer.taken_at)
    }
}

/// The paper's Updated List: agents that have completed their update.
///
/// Entries carry the time they were recorded so they can be pruned: a
/// finished agent only needs to stay listed while stale LL snapshots
/// naming it can still circulate, which is bounded by the lock lease.
/// Without pruning the list would grow for the lifetime of the system
/// and ride inside every migrating agent and LL-info reply. It is a
/// flat map kept in id order, which is also its wire form: a lookup is
/// a binary search however much the server has committed, and copying
/// the list into a reply stays one block copy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdatedList {
    /// One entry per agent, sorted by id.
    agents: Vec<(AgentId, SimTime)>,
}

marp_wire::wire_struct!(UpdatedList { agents } if UpdatedList::is_sorted);

impl UpdatedList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// What a decoded list must satisfy before it is searched: ids
    /// strictly ascending (so none twice).
    fn is_sorted(&self) -> bool {
        self.agents.windows(2).all(|pair| pair[0].0 < pair[1].0)
    }

    /// Where `agent`'s entry is, or where it would go.
    fn slot(&self, agent: AgentId) -> Result<usize, usize> {
        self.agents.binary_search_by_key(&agent, |&(a, _)| a)
    }

    /// Record a finished agent (idempotent; keeps the latest record
    /// time). Ids sort by birth, so a new one usually lands last.
    pub fn record(&mut self, agent: AgentId, now: SimTime) {
        match self.slot(agent) {
            Ok(at) => self.agents[at].1 = self.agents[at].1.max(now),
            Err(at) => self.agents.insert(at, (agent, now)),
        }
    }

    /// Whether an agent is known to have finished.
    pub fn contains(&self, agent: AgentId) -> bool {
        self.slot(agent).is_ok()
    }

    /// When `agent` was recorded as finished, if it was.
    pub fn get(&self, agent: AgentId) -> Option<SimTime> {
        self.slot(agent).ok().map(|at| self.agents[at].1)
    }

    /// Merge another UL into this one, whole.
    pub fn merge(&mut self, other: &UpdatedList) {
        for &(agent, at) in &other.agents {
            self.record(agent, at);
        }
    }

    /// Record those of `asked` that `other` lists, at its times: what a
    /// visiting agent takes from a server's list is the entries its
    /// Locking Table can ask about, not the server's whole history.
    pub fn absorb(&mut self, other: &UpdatedList, asked: impl IntoIterator<Item = AgentId>) {
        for agent in asked {
            if let Some(at) = other.get(agent) {
                self.record(agent, at);
            }
        }
    }

    /// Drop entries recorded before `cutoff`; returns how many were
    /// pruned.
    pub fn prune_before(&mut self, cutoff: SimTime) -> usize {
        let before = self.agents.len();
        self.agents.retain(|&(_, at)| at >= cutoff);
        before - self.agents.len()
    }

    /// Keep only the entries `keep` approves (migrating agents shed
    /// entries their carried snapshots no longer name).
    pub fn retain(&mut self, mut keep: impl FnMut(AgentId) -> bool) {
        self.agents.retain(|&(agent, _)| keep(agent));
    }

    /// All recorded agents, in id order.
    pub fn agents(&self) -> impl Iterator<Item = AgentId> + '_ {
        self.agents.iter().map(|&(agent, _)| agent)
    }

    /// True when every agent listed was launched by a server of an
    /// `n`-server system.
    pub fn validate(&self, n: usize) -> bool {
        self.agents().all(|agent| agent.validate(n))
    }

    /// Number of finished agents recorded.
    pub fn len(&self) -> usize {
        self.agents.len()
    }

    /// Forget every entry, keeping the buffer.
    pub fn clear(&mut self) {
        self.agents.clear();
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.agents.is_empty()
    }
}

/// One vote per key: the claim a server accepted — MARP's reservation
/// for the agent whose UPDATE it acked, a vote baseline's promise to a
/// ballot — its lease, and the claims held behind its holder (`C` is `()`
/// where nothing is ever held), so none can wait behind nothing.
#[derive(Debug)]
pub struct Acceptor<H, C = ()> {
    vote: Option<(H, SimTime)>,
    /// The claims held behind the holder, in the order they were held.
    pub held: Vec<C>,
}

impl<H, C> Default for Acceptor<H, C> {
    fn default() -> Self {
        Acceptor {
            vote: None,
            held: Vec::new(),
        }
    }
}

impl<H: Copy + PartialEq, C> Acceptor<H, C> {
    /// Grant the vote to `holder` at `now` for `lease`, unless a rival
    /// holds it and its lease still binds; the holder claiming again
    /// renews its lease and keeps the held claims. A lapsed rival is
    /// replaced with its held claims kept, so a user that must answer
    /// them ends the vote first (MARP's `end_reservation`). Returns
    /// whether `holder` now holds the vote.
    pub fn grant(&mut self, holder: H, now: SimTime, lease: Duration) -> bool {
        match self.vote {
            Some((rival, _)) if rival != holder && !self.lapsed(now) => false,
            _ => {
                self.vote = Some((holder, now + lease));
                true
            }
        }
    }

    /// The holder, lapsed or not: a lapsed vote stands until it is ended.
    pub fn holder(&self) -> Option<H> {
        self.vote.map(|(holder, _)| holder)
    }

    /// Whether the holder's lease has run out by `now`. Leases are
    /// half-open, `[granted, granted + lease)`, as in
    /// [`LockingList::purge_expired`]; this is the one place the rule is
    /// decided for an accepted vote.
    pub fn lapsed(&self, now: SimTime) -> bool {
        self.vote.is_some_and(|(_, expires)| expires <= now)
    }

    /// End the vote if `holder` has it, with the claims held behind it.
    pub fn release(&mut self, holder: H) {
        if self.holder() == Some(holder) {
            self.clear();
        }
    }

    /// End the vote, whoever holds it, with the claims held behind it.
    pub fn clear(&mut self) {
        self.vote = None;
        self.held.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn agent(home: u16, ms: u64) -> AgentId {
        AgentId::new(home, SimTime::from_millis(ms), 0)
    }

    const LEASE: Duration = Duration::from_secs(30);

    #[test]
    fn requests_keep_fifo_order() {
        let mut ll = LockingList::new();
        ll.request(agent(1, 5), SimTime::from_millis(5), LEASE, 9);
        ll.request(agent(2, 1), SimTime::from_millis(6), LEASE, 9);
        // Agent 2 was *created* earlier but arrived later: FIFO by
        // arrival, exactly as the paper specifies.
        let now = SimTime::from_millis(6);
        assert_eq!(ll.top(now), Some(agent(1, 5)));
        assert_eq!(ll.rank_of(agent(2, 1), now), Some(1));
        assert_eq!(ll.len(), 2);
    }

    #[test]
    fn repeat_request_refreshes_without_moving() {
        let mut ll = LockingList::new();
        ll.request(agent(1, 0), SimTime::from_millis(1), LEASE, 9);
        ll.request(agent(2, 0), SimTime::from_millis(2), LEASE, 9);
        ll.request(agent(1, 0), SimTime::from_millis(3), LEASE, 9);
        assert_eq!(ll.len(), 2);
        assert_eq!(ll.top(SimTime::from_millis(3)), Some(agent(1, 0)));
        assert!(ll.entries()[0].expires_at > SimTime::from_millis(3));
    }

    #[test]
    fn remove_promotes_next() {
        let mut ll = LockingList::new();
        ll.request(agent(1, 0), SimTime::from_millis(1), LEASE, 9);
        ll.request(agent(2, 0), SimTime::from_millis(2), LEASE, 9);
        assert!(ll.remove(agent(1, 0)));
        assert_eq!(ll.top(SimTime::from_millis(2)), Some(agent(2, 0)));
        assert!(!ll.remove(agent(1, 0)));
    }

    #[test]
    fn expired_entries_are_purged() {
        let mut ll = LockingList::new();
        ll.request(
            agent(1, 0),
            SimTime::from_millis(1),
            Duration::from_millis(10),
            9,
        );
        ll.request(agent(2, 0), SimTime::from_millis(2), LEASE, 9);
        let purged = ll.purge_expired(SimTime::from_millis(100));
        assert_eq!(purged, vec![agent(1, 0)]);
        assert_eq!(ll.top(SimTime::from_millis(100)), Some(agent(2, 0)));
    }

    #[test]
    fn lease_boundary_is_half_open() {
        let mut ll = LockingList::new();
        ll.request(
            agent(1, 0),
            SimTime::from_millis(1),
            Duration::from_millis(10),
            9,
        );
        // One instant before expiry the entry survives...
        assert!(ll
            .purge_expired(SimTime::from_nanos(11_000_000 - 1))
            .is_empty());
        assert_eq!(
            ll.top(SimTime::from_nanos(11_000_000 - 1)),
            Some(agent(1, 0))
        );
        // ...and at exactly t = enqueued + lease it is purged.
        assert_eq!(
            ll.purge_expired(SimTime::from_millis(11)),
            vec![agent(1, 0)]
        );
        assert_eq!(ll.top(SimTime::from_millis(11)), None);
    }

    #[test]
    fn snapshot_captures_order() {
        let mut ll = LockingList::new();
        ll.request(agent(3, 0), SimTime::from_millis(1), LEASE, 9);
        ll.request(agent(1, 0), SimTime::from_millis(2), LEASE, 9);
        let snap = ll.snapshot(SimTime::from_millis(9));
        assert_eq!(snap.queue, vec![agent(3, 0), agent(1, 0)]);
        assert_eq!(snap.top(), Some(agent(3, 0)));
        let newer = ll.snapshot(SimTime::from_millis(10));
        assert!(snap.is_older_than(&newer));
    }

    #[test]
    fn snapshot_wire_roundtrip() {
        let mut ll = LockingList::new();
        ll.request(agent(1, 0), SimTime::from_millis(1), LEASE, 9);
        let snap = ll.snapshot(SimTime::from_millis(2));
        let bytes = marp_wire::to_bytes(&snap);
        assert_eq!(marp_wire::from_bytes::<LlSnapshot>(&bytes).unwrap(), snap);
    }

    #[test]
    fn updated_list_merge_is_idempotent() {
        let t = SimTime::from_millis(1);
        let mut a = UpdatedList::new();
        a.record(agent(1, 0), t);
        a.record(agent(1, 0), t);
        let mut b = UpdatedList::new();
        b.record(agent(2, 0), t);
        b.record(agent(1, 0), t);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!(a.contains(agent(2, 0)));
        let bytes = marp_wire::to_bytes(&a);
        assert_eq!(marp_wire::from_bytes::<UpdatedList>(&bytes).unwrap(), a);
    }

    #[test]
    fn updated_list_keeps_the_latest_time_and_absorbs_only_what_is_asked() {
        let ms = SimTime::from_millis;
        let mut host = UpdatedList::new();
        host.record(agent(1, 0), ms(5));
        host.record(agent(2, 0), ms(6));
        host.record(agent(3, 0), ms(7));
        assert_eq!(host.get(agent(2, 0)), Some(ms(6)));
        assert_eq!(host.get(agent(4, 0)), None);

        // A record or a merge never moves a time backwards.
        let mut ual = UpdatedList::new();
        ual.record(agent(1, 0), ms(9));
        ual.record(agent(1, 0), ms(2));
        ual.merge(&host);
        assert_eq!(ual.get(agent(1, 0)), Some(ms(9)));
        assert_eq!(ual.get(agent(3, 0)), Some(ms(7)));

        // Absorbing takes the asked-for entries the other list holds.
        let mut ual = UpdatedList::new();
        ual.record(agent(1, 0), ms(1));
        ual.absorb(&host, [agent(1, 0), agent(3, 0), agent(4, 0)]);
        assert_eq!(ual.agents().collect::<Vec<_>>(), [agent(1, 0), agent(3, 0)]);
        assert_eq!(ual.get(agent(1, 0)), Some(ms(5)));
    }

    /// The wire form is the one the list had as a vector of pairs — the
    /// same count, the same pairs — in id order whatever the order of
    /// recording.
    #[test]
    fn updated_list_encodes_as_its_pairs_in_id_order() {
        let mut pairs = vec![
            (agent(2, 30), SimTime::from_millis(31)),
            (agent(0, 10), SimTime::from_millis(40)),
            (agent(1, 20), SimTime::from_millis(22)),
        ];
        let mut ul = UpdatedList::new();
        for &(agent, at) in &pairs {
            ul.record(agent, at);
        }
        pairs.sort();
        let bytes = marp_wire::to_bytes(&ul);
        assert_eq!(bytes, marp_wire::to_bytes(&pairs));
        assert_eq!(
            ul.agents().collect::<Vec<_>>(),
            [pairs[0].0, pairs[1].0, pairs[2].0]
        );
    }

    #[test]
    fn updated_list_out_of_id_order_does_not_decode() {
        let pairs = vec![
            (agent(2, 30), SimTime::from_millis(1)),
            (agent(1, 20), SimTime::from_millis(1)),
        ];
        let unsorted = marp_wire::to_bytes(&pairs);
        assert!(marp_wire::from_bytes::<UpdatedList>(&unsorted).is_err());
        let twice = marp_wire::to_bytes(&vec![pairs[0], pairs[0]]);
        assert!(marp_wire::from_bytes::<UpdatedList>(&twice).is_err());
    }

    #[test]
    fn lock_table_keys_are_independent() {
        let mut table = LockTable::new();
        table.request(1, agent(1, 0), SimTime::from_millis(1), LEASE, 9);
        table.request(2, agent(2, 0), SimTime::from_millis(2), LEASE, 9);
        table.request(1, agent(3, 0), SimTime::from_millis(3), LEASE, 9);
        // Each key's queue is its own FIFO: key 2's sole agent is top
        // despite two older entries under key 1.
        let now = SimTime::from_millis(3);
        assert_eq!(table.top(1, now), Some(agent(1, 0)));
        assert_eq!(table.top(2, now), Some(agent(2, 0)));
        assert_eq!(table.rank_of(1, agent(3, 0), now), Some(1));
        assert_eq!(table.rank_of(2, agent(3, 0), now), None);
        // Removing under one key leaves the other untouched.
        assert!(table.remove(1, agent(1, 0)));
        assert_eq!(table.top(1, now), Some(agent(3, 0)));
        assert_eq!(table.top(2, now), Some(agent(2, 0)));
        assert!(!table.remove(7, agent(2, 0)));
    }

    #[test]
    fn lock_table_versions_survive_draining() {
        let mut table = LockTable::new();
        table.request(5, agent(1, 0), SimTime::from_millis(1), LEASE, 9);
        assert_eq!(table.version(5), 1);
        assert!(table.remove(5, agent(1, 0)));
        assert!(table.is_empty());
        // The drained list keeps its content version: a later snapshot
        // still supersedes the pre-drain one.
        assert_eq!(table.version(5), 2);
        let snap = table.snapshot(5, SimTime::from_millis(3));
        assert_eq!(snap.version, 2);
        assert!(snap.queue.is_empty());
        // Untouched keys answer with a virgin snapshot.
        assert_eq!(table.snapshot(9, SimTime::from_millis(3)).version, 0);
        assert_eq!(table.version(9), 0);
    }

    #[test]
    fn recovered_table_supersedes_its_pre_crash_snapshots() {
        let mut table = LockTable::new();
        table.request(5, agent(1, 0), SimTime::from_millis(1), LEASE, 9);
        table.request(5, agent(2, 0), SimTime::from_millis(2), LEASE, 9);
        table.list_mut(6); // touched, never queued on
        let before = table.snapshot(5, SimTime::from_millis(3));
        let drained = table.snapshot(6, SimTime::from_millis(3));
        table.clear_for_recovery();
        assert!(table.is_empty());
        // The first snapshot after recovery wins against anything taken
        // before the crash, even one stamped later.
        let after = table.snapshot(5, SimTime::from_millis(2));
        assert!(before.is_older_than(&after));
        assert!(after.queue.is_empty());
        // So does an already-empty list's.
        assert!(drained.is_older_than(&table.snapshot(6, SimTime::from_millis(2))));
        // And the versions keep counting from there.
        table.request(5, agent(3, 0), SimTime::from_millis(4), LEASE, 9);
        assert_eq!(table.version(5), before.version + 2);
    }

    #[test]
    fn lock_table_purge_reports_keys() {
        let mut table = LockTable::new();
        table.request(
            1,
            agent(1, 0),
            SimTime::from_millis(1),
            Duration::from_millis(10),
            9,
        );
        table.request(2, agent(2, 0), SimTime::from_millis(2), LEASE, 9);
        let purged = table.purge_expired(SimTime::from_millis(100));
        assert_eq!(purged, vec![(1, agent(1, 0))]);
        assert_eq!(table.top(2, SimTime::from_millis(100)), Some(agent(2, 0)));
    }

    #[test]
    fn a_lapsed_lease_ranks_nowhere_before_it_is_purged() {
        let mut table = LockTable::new();
        let short = Duration::from_millis(10);
        table.request(1, agent(1, 0), SimTime::from_millis(1), short, 9);
        table.request(1, agent(2, 0), SimTime::from_millis(2), LEASE, 9);
        let live = SimTime::from_millis(10);
        assert_eq!(table.top(1, live), Some(agent(1, 0)));
        assert_eq!(table.rank_of(1, agent(2, 0), live), Some(1));
        // At its expiry instant the first entry is still listed, unpurged,
        // and ranks nowhere: the lock answers as if it were gone.
        let lapsed = SimTime::from_millis(11);
        assert!(table.contains(1, agent(1, 0)));
        assert_eq!(table.top(1, lapsed), Some(agent(2, 0)));
        assert_eq!(table.rank_of(1, agent(1, 0), lapsed), None);
        assert_eq!(table.rank_of(1, agent(2, 0), lapsed), Some(0));
    }

    #[test]
    fn updated_list_prunes_old_entries() {
        let mut ul = UpdatedList::new();
        ul.record(agent(1, 0), SimTime::from_millis(1));
        ul.record(agent(2, 0), SimTime::from_millis(100));
        assert_eq!(ul.prune_before(SimTime::from_millis(50)), 1);
        assert!(!ul.contains(agent(1, 0)));
        assert!(ul.contains(agent(2, 0)));
        // Re-recording refreshes the time and prevents pruning.
        ul.record(agent(2, 0), SimTime::from_millis(200));
        assert_eq!(ul.prune_before(SimTime::from_millis(150)), 0);
    }

    /// A vote baseline's replica: ballots stand in as `u16`s.
    type Vote = Acceptor<u16>;

    #[test]
    fn a_vote_is_exclusive_until_release() {
        let mut p = Vote::default();
        let now = SimTime::from_millis(1);
        let lease = Duration::from_secs(1);
        assert!(p.grant(1, now, lease));
        assert!(!p.grant(2, now, lease));
        assert!(p.grant(1, now, lease)); // refresh
        assert_eq!(p.holder(), Some(1));
        p.release(2); // not the holder: no-op
        assert!(!p.grant(2, now, lease));
        p.release(1);
        assert_eq!(p.holder(), None);
        assert!(p.grant(2, now, lease));
    }

    #[test]
    fn a_vote_lapses_but_its_holder_stays_readable() {
        let mut p = Vote::default();
        let lease = Duration::from_millis(10);
        assert!(p.grant(1, SimTime::from_millis(1), lease));
        let later = SimTime::from_millis(20);
        // Lapsed, not forgotten: the holder reads until a rival takes it.
        assert!(p.lapsed(later));
        assert_eq!(p.holder(), Some(1));
        assert!(p.grant(2, later, lease));
        assert_eq!(p.holder(), Some(2));
        assert!(!p.lapsed(later));
    }

    #[test]
    fn a_vote_lease_boundary_is_half_open() {
        let mut p = Vote::default();
        let lease = Duration::from_millis(10);
        assert!(p.grant(1, SimTime::from_millis(1), lease));
        // One instant before expiry the vote still binds...
        let almost = SimTime::from_nanos(11_000_000 - 1);
        assert!(!p.lapsed(almost));
        assert!(!p.grant(2, almost, lease));
        // ...and at exactly t = granted + lease it is free.
        let expiry = SimTime::from_millis(11);
        assert!(p.lapsed(expiry));
        assert!(p.grant(2, expiry, lease));
    }

    #[test]
    fn a_renewal_keeps_the_held_claims_and_a_release_ends_them() {
        let mut a = Acceptor::<u16, &str>::default();
        assert!(a.grant(1, SimTime::ZERO, Duration::from_secs(1)));
        a.held.push("b");
        assert!(a.grant(1, SimTime::from_millis(5), Duration::from_secs(1)));
        assert_eq!(a.held, ["b"]);
        a.release(2); // not the holder: no-op
        assert_eq!((a.holder(), a.held.len()), (Some(1), 1));
        a.release(1);
        assert_eq!((a.holder(), a.held.len()), (None, 0));
    }
}
