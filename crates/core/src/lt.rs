//! The agent-side Locking Table (LT) and the priority calculation.
//!
//! Paper §3.2/§3.3: each agent accumulates, server by server, a table of
//! Locking List snapshots. "On visiting a replicated server, a mobile
//! agent learns about which mobile agents have higher ranks than it does
//! in the server's LL. It will carry the information with it when it
//! travels from site to site […] After it accumulates enough
//! information, the mobile agent knows which mobile agent has the
//! highest priority to request the lock."
//!
//! # Winning rules
//!
//! 1. **Outright majority** (the paper's main rule): an agent that is
//!    top of the LL at a *strict majority* of the N servers wins.
//! 2. **Stuck-configuration resolution** (the paper's tie rule,
//!    generalized): the paper breaks ties by agent identifier when `M`
//!    agents hold `S` tops each and `S + (N − M·S) < N/2`. Read
//!    literally, that condition both deadlocks for some N (e.g. N = 4,
//!    M = 2, S = 2) and misses stuck configurations where a third agent
//!    tops the remaining servers (N = 5, tops 2/2/1). We implement the
//!    evidently intended semantics: once an agent has *full coverage*
//!    (a snapshot from, or an unavailability declaration for, every
//!    server) and **no agent can still reach a majority** — tops can
//!    only grow by claiming servers whose effective queue is empty,
//!    since new lock requests append at the tail — the configuration
//!    cannot change until someone commits, so the deterministic rule
//!    "most tops, then smallest agent id" picks the winner. Every agent
//!    evaluates the same rule, and the winner's claim is *validated* by
//!    the majority-ACK reservation round (see `DESIGN.md`), so a stale
//!    view can delay but never violate mutual exclusion.

use marp_agent::AgentId;
use marp_replica::{LlSnapshot, UpdatedList};
use marp_sim::{NodeId, SimTime};
use std::collections::BTreeMap;

/// Most agents one table can name: rows index the roster with a `u16`
/// (and count its slots in one).
const MAX_ROSTER: usize = u16::MAX as usize;

/// A roster slot in a remap table that maps nowhere.
const DEAD: u16 = u16::MAX;

/// Roster slots a remap table holds on the stack.
const SCRATCH: usize = 256;

/// A remap table of `len` slots, each `fill`: on the stack up to
/// [`SCRATCH`] slots, in `heap` past that.
fn scratch<'a>(
    stack: &'a mut [u16; SCRATCH],
    heap: &'a mut Vec<u16>,
    len: usize,
    fill: u16,
) -> &'a mut [u16] {
    let slots = match stack.get_mut(..len) {
        Some(slots) => slots,
        None => {
            heap.resize(len, 0);
            heap
        }
    };
    slots.fill(fill);
    slots
}

/// One server's row of a [`LockingTable`]: which snapshot of its LL
/// this is, and the queue as indices into the table's roster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlRow {
    /// The server's queue-content version when the snapshot was taken.
    pub version: u64,
    /// When the snapshot was taken at the server.
    pub taken_at: SimTime,
    /// Roster indices in queue order (index 0 is the top).
    ranks: Vec<u16>,
}

marp_wire::wire_struct!(LlRow {
    version,
    taken_at,
    ranks
});

impl LlRow {
    /// Which snapshot this is, in the order of
    /// [`LlSnapshot::is_older_than`]: the greater stamp supersedes.
    fn stamp(&self) -> (u64, SimTime) {
        (self.version, self.taken_at)
    }
}

/// The travelling Locking Table: the freshest known LL snapshot per
/// server.
///
/// A contended table names the same few agents once per server that
/// queues them, so it holds each [`AgentId`] once, in a sorted roster,
/// and every row is a list of small indices into it. That is also the
/// wire form — roster, then rows — so migrating agents, `LlInfo`
/// replies and gossip boards ship an id once however many queues it
/// waits in. The roster holds exactly the agents some row names (the
/// mutators drop an id with its last reference), which makes the
/// representation a function of the content: equal tables are equal
/// field by field and encode to the same bytes.
#[derive(Debug, Default, PartialEq)]
pub struct LockingTable {
    roster: Vec<AgentId>,
    rows: BTreeMap<NodeId, LlRow>,
}

marp_wire::wire_struct!(LockingTable { roster, rows } if LockingTable::indexes_its_roster);

impl Clone for LockingTable {
    fn clone(&self) -> Self {
        Self {
            roster: self.roster.clone(),
            rows: self.rows.clone(),
        }
    }

    /// Row by row into the buffers already held: a table that is
    /// overwritten again and again (a gossip board) stops allocating
    /// once its rows have grown to the queues' depth.
    fn clone_from(&mut self, source: &Self) {
        self.roster.clone_from(&source.roster);
        self.rows
            .retain(|server, _| source.rows.contains_key(server));
        for (&server, row) in &source.rows {
            match self.rows.get_mut(&server) {
                Some(held) => {
                    held.version = row.version;
                    held.taken_at = row.taken_at;
                    held.ranks.clone_from(&row.ranks);
                }
                None => {
                    self.rows.insert(server, row.clone());
                }
            }
        }
    }
}

impl LockingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// What a decoded table must satisfy before any method may index
    /// with its ranks: a strictly ascending roster (so no id twice) of
    /// a size ranks can address, and every rank inside it. An id no row
    /// references is accepted: tables built here never hold one, and in
    /// a forged one it can only pad the rival set ([`Self::known_agents`])
    /// — which the forger could have written into the claim directly,
    /// and which servers check against their live queues anyway.
    fn indexes_its_roster(&self) -> bool {
        self.roster.len() <= MAX_ROSTER
            && self.roster.windows(2).all(|pair| pair[0] < pair[1])
            && self
                .rows
                .values()
                .flat_map(|row| &row.ranks)
                .all(|&rank| usize::from(rank) < self.roster.len())
    }

    /// The roster index of `agent`, adding it if new. `guess` is tried
    /// first: the slot after the previous rank of a queue, where an agent
    /// queued behind an older one usually is. Ranks at or above an
    /// insertion point move up by one, in every row and in `pending` (the
    /// ranks of a row still being built).
    fn intern(&mut self, agent: AgentId, pending: &mut [u16], guess: usize) -> u16 {
        if self.roster.get(guess) == Some(&agent) {
            return guess as u16;
        }
        let at = match self.roster.binary_search(&agent) {
            Ok(at) => at,
            Err(at) => {
                self.roster.insert(at, agent);
                // Agents sort by birth, so a new one usually lands last.
                if at + 1 < self.roster.len() {
                    let rows = self.rows.values_mut().flat_map(|row| &mut row.ranks);
                    for rank in rows.chain(pending).filter(|rank| usize::from(**rank) >= at) {
                        *rank += 1;
                    }
                }
                at
            }
        };
        at as u16
    }

    /// Install `queue` as `server`'s row if the snapshot it comes from
    /// supersedes the one held.
    fn offer_row(
        &mut self,
        server: NodeId,
        version: u64,
        taken_at: SimTime,
        queue: impl ExactSizeIterator<Item = AgentId>,
    ) {
        let held = self.rows.get_mut(&server);
        if held
            .as_ref()
            .is_some_and(|row| row.stamp() >= (version, taken_at))
        {
            return;
        }
        if self.roster.len() + queue.len() > MAX_ROSTER {
            return; // no deployment queues 65 535 agents; never index past u16
        }
        // The held row's buffer, emptied: while the new ranks are built
        // it names nobody, and `release` drops whom only it named.
        let mut ranks = held
            .map(|row| std::mem::take(&mut row.ranks))
            .unwrap_or_default();
        ranks.clear();
        ranks.reserve(queue.len());
        let mut guess = 0;
        for agent in queue {
            let rank = self.intern(agent, &mut ranks, guess);
            ranks.push(rank);
            guess = usize::from(rank) + 1;
        }
        let row = LlRow {
            version,
            taken_at,
            ranks,
        };
        if self.rows.insert(server, row).is_some() {
            self.release();
        }
    }

    /// Restore the roster invariant after rows were removed or replaced:
    /// drop every agent no row names and close the gaps in the ranks, in
    /// one pass over the rows and one over the roster.
    fn release(&mut self) {
        let (mut stack, mut heap) = ([0; SCRATCH], Vec::new());
        // Each roster slot's index once the dead are gone, or DEAD.
        let slots = scratch(&mut stack, &mut heap, self.roster.len(), DEAD);
        for &rank in self.rows.values().flat_map(|row| &row.ranks) {
            slots[usize::from(rank)] = 0;
        }
        let mut live = 0;
        for slot in slots.iter_mut().filter(|slot| **slot != DEAD) {
            *slot = live;
            live += 1;
        }
        if usize::from(live) == self.roster.len() {
            return;
        }
        let mut slot = slots.iter();
        self.roster.retain(|_| slot.next() != Some(&DEAD));
        for rank in self.rows.values_mut().flat_map(|row| &mut row.ranks) {
            *rank = slots[usize::from(*rank)];
        }
    }

    /// Merge a snapshot of `server`'s LL, keeping the newer one.
    pub fn merge(&mut self, server: NodeId, snapshot: LlSnapshot) {
        let LlSnapshot {
            version,
            taken_at,
            queue,
        } = snapshot;
        self.offer_row(server, version, taken_at, queue.into_iter());
    }

    /// Merge every entry of another table (agents leave their LT at
    /// servers; later visitors pick it up — the paper's information
    /// sharing), keeping the newer snapshot per server.
    ///
    /// One walk of the two id-sorted rosters maps every agent `other`'s
    /// fresher rows name to its slot in the union, inserting the ones
    /// `self` lacks in place from the back; each fresher row is then
    /// written into the buffer of the row it replaces, and one pass
    /// drops whom the replaced rows alone named. An agent only `other`'s
    /// stale rows name never enters.
    pub fn merge_table(&mut self, other: &LockingTable) {
        let supersedes = |server: &NodeId, row: &LlRow| {
            let held = self.rows.get(server);
            held.is_none_or(|held| held.stamp() < row.stamp())
        };
        // Per slot of `other`'s roster: DEAD, or (once the walk below has
        // run) the agent's slot in the union.
        let (mut stack, mut heap) = ([0; SCRATCH], Vec::new());
        let theirs = scratch(&mut stack, &mut heap, other.roster.len(), DEAD);
        let mut fresher = false;
        for (_, row) in other.rows.iter().filter(|&(s, row)| supersedes(s, row)) {
            fresher = true;
            for &rank in &row.ranks {
                theirs[usize::from(rank)] = 0;
            }
        }
        if !fresher {
            return;
        }
        // Per slot of `self`'s roster: its slot in the union.
        let (mut stack, mut heap) = ([0; SCRATCH], Vec::new());
        let mine = scratch(&mut stack, &mut heap, self.roster.len(), 0);
        let (mut held, mut union) = (0, 0);
        for (slot, agent) in theirs.iter_mut().zip(&other.roster) {
            if *slot == DEAD {
                continue;
            }
            while self.roster.get(held).is_some_and(|id| id < agent) {
                mine[held] = union as u16;
                held += 1;
                union += 1;
            }
            if self.roster.get(held) == Some(agent) {
                mine[held] = union as u16;
                held += 1;
            }
            *slot = union as u16;
            union += 1;
        }
        for slot in &mut mine[held..] {
            *slot = union as u16;
            union += 1;
        }
        if union > MAX_ROSTER {
            return; // no deployment queues 65 535 agents; never index past u16
        }
        let known = self.roster.len();
        if union > known {
            // Every slot is written below; the filler never survives.
            self.roster.resize(union, other.roster[0]);
            for from in (0..known).rev() {
                self.roster[usize::from(mine[from])] = self.roster[from];
            }
            for (&to, &agent) in theirs.iter().zip(&other.roster) {
                if to != DEAD {
                    self.roster[usize::from(to)] = agent;
                }
            }
            for rank in self.rows.values_mut().flat_map(|row| &mut row.ranks) {
                *rank = mine[usize::from(*rank)];
            }
        }
        let mut replaced = false;
        for (&server, row) in &other.rows {
            let ranks = row.ranks.iter().map(|&rank| theirs[usize::from(rank)]);
            match self.rows.get_mut(&server) {
                Some(held) if held.stamp() >= row.stamp() => {}
                Some(held) => {
                    held.version = row.version;
                    held.taken_at = row.taken_at;
                    held.ranks.clear();
                    held.ranks.extend(ranks);
                    replaced = true;
                }
                None => {
                    let ranks = ranks.collect();
                    let row = LlRow { ranks, ..*row };
                    self.rows.insert(server, row);
                }
            }
        }
        if replaced {
            self.release();
        }
    }

    /// The row held for `server`, if any. Its queue is in [`Self::iter`].
    pub fn snapshot(&self, server: NodeId) -> Option<&LlRow> {
        self.rows.get(&server)
    }

    /// Number of servers with known snapshots.
    pub fn known_servers(&self) -> usize {
        self.rows.len()
    }

    /// Every `(server, snapshot)` pair, the queues spelled out.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, LlSnapshot)> + '_ {
        self.rows.iter().map(|(&server, row)| {
            let snapshot = LlSnapshot {
                version: row.version,
                taken_at: row.taken_at,
                queue: self.queue(row).collect(),
            };
            (server, snapshot)
        })
    }

    fn queue<'a>(&'a self, row: &'a LlRow) -> impl ExactSizeIterator<Item = AgentId> + 'a {
        row.ranks.iter().map(|&rank| self.roster[usize::from(rank)])
    }

    /// Every agent some row names, once each, in id order.
    pub fn roster(&self) -> &[AgentId] {
        &self.roster
    }

    /// Whether any row names `agent`.
    pub fn names(&self, agent: AgentId) -> bool {
        self.roster.binary_search(&agent).is_ok()
    }

    /// Queue entries over all rows: what the table would cost with
    /// every id spelled out where it is queued.
    pub fn entries(&self) -> usize {
        self.rows.values().map(|row| row.ranks.len()).sum()
    }

    /// The roster read against `finished`, slot by slot, in one walk of
    /// the two id-sorted lists: `None` where the agent has finished,
    /// `Some(0)` — no tops tallied yet — where it has not.
    fn live_slots(&self, finished: &UpdatedList) -> Vec<Option<u32>> {
        let mut done = finished.agents().peekable();
        self.roster
            .iter()
            .map(|agent| {
                while done.next_if(|d| d < agent).is_some() {}
                (done.peek() != Some(agent)).then_some(0)
            })
            .collect()
    }

    /// The slot of the first agent in `row` that `slots` has as live.
    fn first_live(row: &LlRow, slots: &[Option<u32>]) -> Option<usize> {
        let mut ranks = row.ranks.iter().map(|&rank| usize::from(rank));
        ranks.find(|&rank| slots[rank].is_some())
    }

    /// One reading of the table against `finished`: per roster slot, the
    /// number of rows whose effective top the agent is (`None` where it
    /// has finished). `drained` hears of every server whose queue holds
    /// no unfinished agent.
    fn tally_tops(
        &self,
        finished: &UpdatedList,
        mut drained: impl FnMut(NodeId),
    ) -> Vec<Option<u32>> {
        let mut slots = self.live_slots(finished);
        for (&server, row) in &self.rows {
            match Self::first_live(row, &slots) {
                Some(top) => slots[top] = slots[top].map(|tops| tops + 1),
                None => drained(server),
            }
        }
        slots
    }

    /// The *effective top* of a server's queue: the first agent not
    /// known to have finished already (stale snapshots may still list
    /// committed agents).
    pub fn effective_top(&self, server: NodeId, finished: &UpdatedList) -> Option<AgentId> {
        let top = Self::first_live(self.rows.get(&server)?, &self.live_slots(finished))?;
        Some(self.roster[top])
    }

    /// Count, for every agent, the servers whose effective top it is.
    pub fn top_counts(&self, finished: &UpdatedList) -> BTreeMap<AgentId, usize> {
        let tops = self.tally_tops(finished, |_| {});
        let tally = self.roster.iter().zip(tops);
        tally
            .filter_map(|(&agent, tops)| match tops {
                Some(tops) if tops > 0 => Some((agent, tops as usize)),
                _ => None,
            })
            .collect()
    }

    /// Number of servers whose known queue contains `agent` — the
    /// agent's *presence*. A claim can only be validated at servers
    /// where the claimant is enqueued, so the stuck-configuration rule
    /// requires presence at a strict majority (this is also exactly
    /// Theorem 3's lower bound of ⌈(N+1)/2⌉ visits).
    pub fn presence_count(&self, agent: AgentId) -> usize {
        let Ok(rank) = self.roster.binary_search(&agent) else {
            return 0;
        };
        self.rows
            .values()
            .filter(|row| row.ranks.contains(&(rank as u16)))
            .count()
    }

    /// The table's knowledge horizon: for every known server, the
    /// version of the snapshot held. Receivers advertise this so
    /// senders can delta-encode (ship only snapshots strictly newer
    /// than the receiver's horizon).
    pub fn horizon(&self) -> BTreeMap<NodeId, u64> {
        self.rows
            .iter()
            .map(|(&server, row)| (server, row.version))
            .collect()
    }

    /// Drop every snapshot the `horizon` already covers (entry version
    /// ≤ the horizon's version for that server). What remains is exactly
    /// the delta a receiver with that horizon still needs; merging the
    /// delta into the receiver's table yields the same result as merging
    /// the full table (proved by property test).
    pub fn prune_covered_by(&mut self, horizon: &BTreeMap<NodeId, u64>) {
        let held = self.rows.len();
        self.rows.retain(|server, row| {
            horizon
                .get(server)
                .is_none_or(|&covered| row.version > covered)
        });
        if self.rows.len() < held {
            self.release();
        }
    }

    /// Remove one server's snapshot (used when migrating *to* that
    /// server: its own LL is re-read on arrival, so carrying a snapshot
    /// of it is always dead weight).
    pub fn drop_server(&mut self, server: NodeId) {
        if self.rows.remove(&server).is_some() {
            self.release();
        }
    }

    /// Every agent appearing anywhere in the table and not finished —
    /// used as the tie certificate (the set of rivals the claimed winner
    /// knows about).
    pub fn known_agents(&self, finished: &UpdatedList) -> Vec<AgentId> {
        let slots = self.roster.iter().zip(self.live_slots(finished));
        slots
            .filter(|(_, slot)| slot.is_some())
            .map(|(&agent, _)| agent)
            .collect()
    }
}

/// Result of a priority evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Priority {
    /// This agent holds the distributed lock.
    Win {
        /// True when the win came from stuck-configuration resolution
        /// rather than an outright majority of tops.
        via_tie: bool,
        /// For tie wins: the rivals the winner knows about; servers use
        /// it to validate the claim against their live LLs.
        certificate: Vec<AgentId>,
    },
    /// Not decidable in this agent's favour yet.
    NotYet,
}

/// Strict-majority threshold for `n` replicas (`⌊n/2⌋ + 1`).
pub fn majority(n: usize) -> usize {
    n / 2 + 1
}

/// Evaluate the priority rules for agent `me` over `n` replica servers.
///
/// `unavailable` lists servers this agent has declared unreachable —
/// they count toward coverage (we will never get their snapshot) but
/// never toward anyone's potential.
pub fn decide(
    lt: &LockingTable,
    me: AgentId,
    n: usize,
    finished: &UpdatedList,
    unavailable: &[NodeId],
) -> Priority {
    let maj = majority(n);
    // Servers whose effective queue is empty are the only ones whose top
    // can change without a commit (new requests append at the tail).
    // Servers this agent has declared unavailable cannot be claimed by
    // anyone right now, even if a stale gossip snapshot shows them
    // empty — counting them would wedge every agent in NotYet while a
    // replica is down.
    let mut claimable = 0;
    let tops = lt.tally_tops(finished, |server| {
        if usize::from(server) < n && !unavailable.contains(&server) {
            claimable += 1;
        }
    });
    let my_slot = lt.roster.binary_search(&me).ok();
    let my_tops = my_slot.and_then(|slot| tops[slot]).unwrap_or(0);
    if my_tops as usize >= maj {
        return Priority::Win {
            via_tie: false,
            certificate: Vec::new(),
        };
    }

    // Stuck-configuration resolution requires full coverage: a snapshot
    // or an unavailability declaration for every server.
    let covered = (0..n as NodeId).all(|s| lt.snapshot(s).is_some() || unavailable.contains(&s));
    if !covered {
        return Priority::NotYet;
    }

    // If any agent (this one included) could still assemble an outright
    // majority, wait.
    let best = tops.iter().flatten().copied().max().unwrap_or(0);
    if best as usize + claimable >= maj {
        return Priority::NotYet;
    }

    // Nobody can reach a majority until a commit happens — but nobody
    // has committed and nobody will: resolve deterministically by
    // (most tops, then smallest agent id), which in a roster kept in id
    // order is the first slot holding the most. An empty tally means
    // there is nothing to resolve yet.
    if best == 0 || tops.iter().position(|&tops| tops == Some(best)) != my_slot {
        return Priority::NotYet;
    }
    // A stuck-rule win is only claimable where the winner is enqueued:
    // servers validate a tie certificate against their live LL and
    // refuse claimants they have never seen. Without presence at a
    // strict majority the claim can never assemble a positive quorum —
    // the agent must keep travelling instead (Theorem 3's lower bound,
    // enforced structurally).
    if lt.presence_count(me) < maj {
        return Priority::NotYet;
    }
    let slots = lt.roster.iter().zip(&tops);
    Priority::Win {
        via_tie: true,
        certificate: slots
            .filter(|&(&agent, tops)| tops.is_some() && agent != me)
            .map(|(&agent, _)| agent)
            .collect(),
    }
}

/// Full priority ranking (most tops first, then agent id) — the paper's
/// extension where agents determine "not only the first mobile agent who
/// will obtain the lock next, but also the second agent, the third
/// agent, etc."
pub fn ranking(lt: &LockingTable, finished: &UpdatedList) -> Vec<(AgentId, usize)> {
    let counts = lt.top_counts(finished);
    let mut ranked: Vec<(AgentId, usize)> = counts.into_iter().collect();
    ranked.sort_by_key(|&(agent, tops)| (std::cmp::Reverse(tops), agent));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::SimTime;

    fn aid(home: u16) -> AgentId {
        AgentId::new(home, SimTime::from_millis(u64::from(home)), 0)
    }

    fn snap(at_ms: u64, queue: &[AgentId]) -> LlSnapshot {
        LlSnapshot {
            version: at_ms,
            taken_at: SimTime::from_millis(at_ms),
            queue: queue.to_vec(),
        }
    }

    /// Build an LT where server `i`'s queue is `queues[i]`.
    fn table(queues: &[&[AgentId]]) -> LockingTable {
        let mut lt = LockingTable::new();
        for (server, queue) in queues.iter().enumerate() {
            lt.merge(server as NodeId, snap(1, queue));
        }
        lt
    }

    #[test]
    fn majority_threshold() {
        assert_eq!(majority(3), 2);
        assert_eq!(majority(4), 3);
        assert_eq!(majority(5), 3);
        assert_eq!(majority(6), 4);
    }

    #[test]
    fn merge_keeps_newer_snapshot() {
        let mut lt = LockingTable::new();
        let a = aid(1);
        let b = aid(2);
        lt.merge(0, snap(5, &[a]));
        lt.merge(0, snap(3, &[b])); // older, ignored
        assert_eq!(lt.roster(), [a]);
        lt.merge(0, snap(9, &[b])); // newer, replaces
        assert_eq!(lt.roster(), [b]);
        assert_eq!(lt.snapshot(0).unwrap().version, 9);
        assert_eq!(lt.known_servers(), 1);
    }

    #[test]
    fn merge_table_combines_servers() {
        let a = aid(1);
        let mut lt1 = LockingTable::new();
        lt1.merge(0, snap(1, &[a]));
        let mut lt2 = LockingTable::new();
        lt2.merge(1, snap(1, &[a]));
        lt2.merge(0, snap(5, &[]));
        lt1.merge_table(&lt2);
        assert_eq!(lt1.known_servers(), 2);
        assert_eq!(lt1.snapshot(0).unwrap().version, 5);
        assert_eq!(lt1.entries(), 1);
    }

    #[test]
    fn roster_holds_exactly_the_agents_some_row_names() {
        let (a, b, c, d) = (aid(1), aid(2), aid(3), aid(4));
        let mut lt = table(&[&[d, b], &[b, d]]);
        assert_eq!(lt.roster(), [b, d]);
        // `a` and `c` sort before and between the ids already ranked.
        lt.merge(2, snap(1, &[c, a, d]));
        assert_eq!(lt.roster(), [a, b, c, d]);
        assert_eq!(lt.entries(), 7);
        let queues: Vec<Vec<AgentId>> = lt.iter().map(|(_, snap)| snap.queue).collect();
        assert_eq!(queues, [vec![d, b], vec![b, d], vec![c, a, d]]);
        // An id goes with the last row that names it, and only then.
        lt.drop_server(0);
        assert_eq!(lt.roster(), [a, b, c, d]);
        lt.merge(1, snap(2, &[d]));
        assert_eq!(lt.roster(), [a, c, d]);
        assert!(lt.names(c) && !lt.names(b));
        assert_eq!(lt.presence_count(d), 2);
        assert_eq!(lt.effective_top(2, &UpdatedList::new()), Some(c));
        lt.prune_covered_by(&BTreeMap::from([(2, 1), (1, 1)]));
        assert_eq!(lt.roster(), [d]);
        assert_eq!(lt.known_servers(), 1);
    }

    #[test]
    fn effective_top_skips_finished_agents() {
        let done = aid(9);
        let live = aid(1);
        let lt = table(&[&[done, live]]);
        let mut finished = UpdatedList::new();
        assert_eq!(lt.effective_top(0, &finished), Some(done));
        finished.record(done, SimTime::ZERO);
        assert_eq!(lt.effective_top(0, &finished), Some(live));
    }

    #[test]
    fn outright_majority_wins() {
        let me = aid(1);
        let rival = aid(2);
        // 5 servers: me top at 3, rival at 2.
        let lt = table(&[&[me], &[me], &[me, rival], &[rival, me], &[rival]]);
        let finished = UpdatedList::new();
        assert_eq!(
            decide(&lt, me, 5, &finished, &[]),
            Priority::Win {
                via_tie: false,
                certificate: vec![]
            }
        );
        assert_eq!(decide(&lt, rival, 5, &finished, &[]), Priority::NotYet);
    }

    #[test]
    fn no_win_without_coverage() {
        let me = aid(1);
        // Top at 2 of 5 known servers; 3 unknown.
        let lt = table(&[&[me], &[me]]);
        let finished = UpdatedList::new();
        assert_eq!(decide(&lt, me, 5, &finished, &[]), Priority::NotYet);
    }

    #[test]
    fn paper_tie_case_resolved_by_id() {
        // N = 4: A tops 2, B tops 2 — the paper's formula (read as ≤)
        // fires; smaller id wins.
        let a = aid(1);
        let b = aid(2);
        let lt = table(&[&[a, b], &[a, b], &[b, a], &[b, a]]);
        let finished = UpdatedList::new();
        let decision_a = decide(&lt, a, 4, &finished, &[]);
        let Priority::Win {
            via_tie: true,
            certificate,
        } = decision_a
        else {
            panic!("expected tie win for a, got {decision_a:?}")
        };
        assert_eq!(certificate, vec![b]);
        assert_eq!(decide(&lt, b, 4, &finished, &[]), Priority::NotYet);
    }

    #[test]
    fn three_way_stuck_configuration_resolves() {
        // N = 5, tops 2/2/1 — the literal paper formula misses this but
        // it is provably stuck; most-tops-then-id picks a.
        let a = aid(1);
        let b = aid(2);
        let c = aid(3);
        let lt = table(&[&[a, c], &[a, b], &[b, a], &[b, c], &[c, a, b]]);
        let finished = UpdatedList::new();
        let decision_a = decide(&lt, a, 5, &finished, &[]);
        let Priority::Win {
            via_tie: true,
            certificate,
        } = decision_a
        else {
            panic!("expected tie win for a, got {decision_a:?}")
        };
        assert!(certificate.contains(&b) && certificate.contains(&c));
        assert!(!certificate.contains(&a));
        assert_eq!(decide(&lt, b, 5, &finished, &[]), Priority::NotYet);
        assert_eq!(decide(&lt, c, 5, &finished, &[]), Priority::NotYet);
    }

    #[test]
    fn empty_servers_block_tie_resolution() {
        // N = 5: a tops 2, b tops 2, server 4's queue is empty — either
        // could still claim it and reach majority, so nobody tie-wins.
        let a = aid(1);
        let b = aid(2);
        let lt = table(&[&[a], &[a], &[b], &[b], &[]]);
        let finished = UpdatedList::new();
        assert_eq!(decide(&lt, a, 5, &finished, &[]), Priority::NotYet);
        assert_eq!(decide(&lt, b, 5, &finished, &[]), Priority::NotYet);
    }

    #[test]
    fn unavailable_servers_count_toward_coverage() {
        // N = 5, server 4 declared unavailable; a tops 2, b tops 2 of
        // the 4 reachable. Nobody can reach majority(5) = 3 → stuck →
        // a wins by id.
        let a = aid(1);
        let b = aid(2);
        let lt = table(&[&[a, b], &[a, b], &[b, a], &[b, a]]);
        let finished = UpdatedList::new();
        assert!(matches!(
            decide(&lt, a, 5, &finished, &[4]),
            Priority::Win { via_tie: true, .. }
        ));
        // Without the declaration there is no coverage and no decision.
        assert_eq!(decide(&lt, a, 5, &finished, &[]), Priority::NotYet);
    }

    #[test]
    fn finished_agents_do_not_block() {
        // The previous winner w still sits atop stale snapshots; once in
        // the finished list, me's effective tops give a majority.
        let w = aid(9);
        let me = aid(1);
        let lt = table(&[&[w, me], &[w, me], &[me], &[], &[]]);
        let mut finished = UpdatedList::new();
        assert_eq!(decide(&lt, me, 5, &finished, &[]), Priority::NotYet);
        finished.record(w, SimTime::ZERO);
        assert_eq!(
            decide(&lt, me, 5, &finished, &[]),
            Priority::Win {
                via_tie: false,
                certificate: vec![]
            }
        );
    }

    #[test]
    fn agreement_on_stuck_winner_is_symmetric() {
        // Theorem-2 style check: with identical tables, at most one of
        // several agents decides Win.
        let agents = [aid(1), aid(2), aid(3)];
        let lt = table(&[
            &[agents[0]],
            &[agents[1]],
            &[agents[2]],
            &[agents[0], agents[1]],
            &[agents[1], agents[0]],
        ]);
        let finished = UpdatedList::new();
        let wins: Vec<AgentId> = agents
            .iter()
            .copied()
            .filter(|&a| matches!(decide(&lt, a, 5, &finished, &[]), Priority::Win { .. }))
            .collect();
        assert!(wins.len() <= 1, "multiple winners: {wins:?}");
    }

    #[test]
    fn single_server_cluster_wins_on_its_own_top() {
        let me = aid(1);
        let lt = table(&[&[me]]);
        let finished = UpdatedList::new();
        assert_eq!(
            decide(&lt, me, 1, &finished, &[]),
            Priority::Win {
                via_tie: false,
                certificate: vec![]
            }
        );
    }

    #[test]
    fn two_server_cluster_needs_both_tops() {
        let me = aid(1);
        let rival = aid(2);
        let finished = UpdatedList::new();
        // Top at one of two: majority(2) = 2, not enough; rival tops the
        // other → stuck, but me is min id with presence at both.
        let lt = table(&[&[me, rival], &[rival, me]]);
        assert!(matches!(
            decide(&lt, me, 2, &finished, &[]),
            Priority::Win { via_tie: true, .. }
        ));
        assert_eq!(decide(&lt, rival, 2, &finished, &[]), Priority::NotYet);
        // Top at both → outright.
        let lt = table(&[&[me], &[me, rival]]);
        assert!(matches!(
            decide(&lt, me, 2, &finished, &[]),
            Priority::Win { via_tie: false, .. }
        ));
    }

    #[test]
    fn stuck_win_requires_majority_presence() {
        // b and c top two servers each (server 4 unavailable): the
        // stuck winner by (most tops, min id) is b — but b is enqueued
        // at only two of five Locking Lists, so its claim could never
        // be validated at a majority. decide must hold everyone at
        // NotYet until b gains presence.
        let b = aid(2);
        let c = aid(3);
        let lt = table(&[&[c], &[b], &[b], &[c]]);
        let finished = UpdatedList::new();
        assert_eq!(decide(&lt, b, 5, &finished, &[4]), Priority::NotYet);
        assert_eq!(decide(&lt, c, 5, &finished, &[4]), Priority::NotYet);
        // Once b is enqueued at a third server, its claim unlocks.
        let lt = table(&[&[c, b], &[b], &[b], &[c]]);
        assert!(matches!(
            decide(&lt, b, 5, &finished, &[4]),
            Priority::Win { via_tie: true, .. }
        ));
        assert_eq!(decide(&lt, c, 5, &finished, &[4]), Priority::NotYet);
    }

    #[test]
    fn presence_count_counts_queues_containing_agent() {
        let a = aid(1);
        let b = aid(2);
        let lt = table(&[&[a, b], &[b], &[], &[a]]);
        assert_eq!(lt.presence_count(a), 2);
        assert_eq!(lt.presence_count(b), 2);
        assert_eq!(lt.presence_count(aid(9)), 0);
    }

    #[test]
    fn ranking_orders_by_tops_then_id() {
        let a = aid(1);
        let b = aid(2);
        let c = aid(3);
        let lt = table(&[&[b], &[b], &[a], &[c], &[a]]);
        let finished = UpdatedList::new();
        let ranked = ranking(&lt, &finished);
        // a and b both top 2 servers; a is the smaller (older) id.
        assert_eq!(ranked[0], (a, 2));
        assert_eq!(ranked[1], (b, 2));
        assert_eq!(ranked[2], (c, 1));
    }

    #[test]
    fn wire_roundtrip() {
        let a = aid(1);
        let lt = table(&[&[a], &[], &[a, aid(2)]]);
        let bytes = marp_wire::to_bytes(&lt);
        assert_eq!(marp_wire::from_bytes::<LockingTable>(&bytes).unwrap(), lt);
    }
}
