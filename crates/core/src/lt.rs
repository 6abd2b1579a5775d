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
//!
//! # Representation
//!
//! A [`LockingTable`] names each agent once, in a sorted roster, and
//! every row is a list of ranks into it. In memory the table is three
//! buffers however many rows it holds: the roster, the row heads
//! (server and [`LlRow`] stamp) and every row's ranks back to back, a
//! [`Ragged`]. On the wire it is the roster, then the rows each with its
//! ranks, exactly as when every row kept a vector of its own. A new
//! row's ranks are built at the tail of the ranks buffer and rotated
//! into place, so arriving, exchanging with a gossip board and being
//! copied or decoded into a held table allocate nothing once the
//! buffers have grown.

use marp_agent::{AgentId, Horizon};
use marp_replica::{LlSnapshot, UpdatedList};
use marp_sim::{NodeId, SimTime};
use marp_wire::Ragged;
use std::collections::BTreeMap;

/// Most agents one table can name: rows index the roster with a `u16`
/// (and count its slots in one).
const MAX_ROSTER: usize = u16::MAX as usize;

/// A roster slot in a remap table that maps nowhere, or in a tally an
/// agent that has finished.
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

/// The head of one server's row of a [`LockingTable`]: which snapshot
/// of its LL the row is. The queue is the row's ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlRow {
    /// The server's queue-content version when the snapshot was taken.
    pub version: u64,
    /// When the snapshot was taken at the server.
    pub taken_at: SimTime,
}

marp_wire::wire_struct!(LlRow { version, taken_at });

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
///
/// The whole table is three buffers however many rows it holds: the
/// roster, the row heads in server order, and every row's ranks back to
/// back (a [`Ragged`]). A row is added, replaced or dropped by a splice
/// on the ranks, and a table decoded or copied into another reuses all
/// three ([`marp_wire::Wire::decode_into`], [`Clone::clone_from`]), so
/// a table that keeps its shape stops allocating.
#[derive(Debug, Default, PartialEq)]
pub struct LockingTable {
    roster: Vec<AgentId>,
    /// `(server, row)` heads, servers strictly ascending, each with its
    /// ranks: roster indices in queue order (index 0 is the top).
    rows: Ragged<(NodeId, LlRow), u16>,
}

marp_wire::wire_struct!(LockingTable { roster, rows } if LockingTable::is_well_formed);

impl Clone for LockingTable {
    fn clone(&self) -> Self {
        Self {
            roster: self.roster.clone(),
            rows: self.rows.clone(),
        }
    }

    /// Into the buffers already held: a table that is overwritten again
    /// and again (a gossip board) stops allocating once they have grown
    /// to the queues' depth.
    fn clone_from(&mut self, source: &Self) {
        self.roster.clone_from(&source.roster);
        self.rows.clone_from(&source.rows);
    }
}

impl LockingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the table, keeping its buffers.
    pub fn clear(&mut self) {
        self.roster.clear();
        self.rows.clear();
    }

    /// What a decoded table must satisfy before any method may search
    /// its rows or index with its ranks: servers strictly ascending (so
    /// none twice), a strictly ascending roster (so no id twice) of a
    /// size ranks can address, and every rank inside it. An id no row
    /// references is accepted: tables built here never hold one, and in
    /// a forged one it can only pad the rival set ([`Self::known_agents`])
    /// — which the forger could have written into the claim directly,
    /// and which servers check against their live queues anyway.
    fn is_well_formed(&self) -> bool {
        let servers = self.rows.heads().map(|&(server, _)| server);
        self.roster.len() <= MAX_ROSTER
            && servers.clone().zip(servers.skip(1)).all(|(a, b)| a < b)
            && self.roster.windows(2).all(|pair| pair[0] < pair[1])
            && self
                .rows
                .items()
                .iter()
                .all(|&rank| usize::from(rank) < self.roster.len())
    }

    /// Where `server`'s row is, or where it would go.
    fn slot(&self, server: NodeId) -> Result<usize, usize> {
        self.rows.binary_search_by(|&(held, _)| held.cmp(&server))
    }

    /// The roster index of `agent`, adding it if new. `guess` is tried
    /// first: the slot after the previous rank of a queue, where an agent
    /// queued behind an older one usually is. Ranks at or above an
    /// insertion point move up by one, in every row and in the tail (the
    /// ranks of a row still being built).
    fn intern(&mut self, agent: AgentId, guess: usize) -> u16 {
        if self.roster.get(guess) == Some(&agent) {
            return guess as u16;
        }
        let at = match self.roster.binary_search(&agent) {
            Ok(at) => at,
            Err(at) => {
                self.roster.insert(at, agent);
                // Agents sort by birth, so a new one usually lands last.
                if at + 1 < self.roster.len() {
                    let ranks = self.rows.items_mut().iter_mut();
                    for rank in ranks.filter(|rank| usize::from(**rank) >= at) {
                        *rank += 1;
                    }
                }
                at
            }
        };
        at as u16
    }

    /// Install `queue` — `server`'s LL as of `(version, taken_at)`, read
    /// in place — as `server`'s row if that snapshot supersedes the one
    /// held. The ranks are built at the tail of the ranks buffer and
    /// rotated into place.
    pub fn offer_row(
        &mut self,
        server: NodeId,
        version: u64,
        taken_at: SimTime,
        queue: impl ExactSizeIterator<Item = AgentId>,
    ) {
        let slot = self.slot(server);
        if let Ok(at) = slot {
            if self.rows.head(at).1.stamp() >= (version, taken_at) {
                return;
            }
        }
        if self.roster.len() + queue.len() > MAX_ROSTER {
            return; // no deployment queues 65 535 agents; never index past u16
        }
        // The held row goes first: while the new ranks are built at the
        // tail it names nobody, and `release` drops whom only it named.
        if let Ok(at) = slot {
            self.rows.remove(at);
        }
        let mut guess = 0;
        for agent in queue {
            let rank = self.intern(agent, guess);
            self.rows.push(rank);
            guess = usize::from(rank) + 1;
        }
        let (Ok(at) | Err(at)) = slot;
        self.rows
            .insert_tail(at, (server, LlRow { version, taken_at }));
        if slot.is_ok() {
            self.release();
        }
    }

    /// Restore the roster invariant after rows were removed or replaced:
    /// drop every agent no row names and close the gaps in the ranks, in
    /// one pass over the ranks and one over the roster.
    fn release(&mut self) {
        let (mut stack, mut heap) = ([0; SCRATCH], Vec::new());
        // Each roster slot's index once the dead are gone, or DEAD.
        let slots = scratch(&mut stack, &mut heap, self.roster.len(), DEAD);
        for &rank in self.rows.items() {
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
        for rank in self.rows.items_mut() {
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
    /// spliced into the ranks in place of the row it replaces, and one
    /// pass drops whom the replaced rows alone named. An agent only
    /// `other`'s stale rows name never enters.
    pub fn merge_table(&mut self, other: &LockingTable) {
        let supersedes = |server: NodeId, row: &LlRow| {
            let held = self.snapshot(server);
            held.is_none_or(|held| held.stamp() < row.stamp())
        };
        // Per slot of `other`'s roster: DEAD, or (once the walk below has
        // run) the agent's slot in the union.
        let (mut stack, mut heap) = ([0; SCRATCH], Vec::new());
        let theirs = scratch(&mut stack, &mut heap, other.roster.len(), DEAD);
        let mut fresher = false;
        for (&(server, row), ranks) in other.rows.iter() {
            if supersedes(server, &row) {
                fresher = true;
                for &rank in ranks {
                    theirs[usize::from(rank)] = 0;
                }
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
            for rank in self.rows.items_mut() {
                *rank = mine[usize::from(*rank)];
            }
        }
        let mut replaced = false;
        for (&head, ranks) in other.rows.iter() {
            let ranks = ranks.iter().map(|&rank| theirs[usize::from(rank)]);
            match self.slot(head.0) {
                Ok(at) if self.rows.head(at).1.stamp() < head.1.stamp() => {
                    self.rows.replace(at, head, ranks);
                    replaced = true;
                }
                Ok(_) => {}
                Err(at) => self.rows.insert(at, head, ranks),
            }
        }
        if replaced {
            self.release();
        }
    }

    /// The head of the row held for `server`, if any. Its queue is in
    /// [`Self::iter`].
    pub fn snapshot(&self, server: NodeId) -> Option<&LlRow> {
        let at = self.slot(server).ok()?;
        Some(&self.rows.head(at).1)
    }

    /// Number of servers with known snapshots.
    pub fn known_servers(&self) -> usize {
        self.rows.len()
    }

    /// Every `(server, snapshot)` pair, the queues spelled out.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, LlSnapshot)> + '_ {
        self.rows.iter().map(|(&(server, row), ranks)| {
            let snapshot = LlSnapshot {
                version: row.version,
                taken_at: row.taken_at,
                queue: self.queue(ranks).collect(),
            };
            (server, snapshot)
        })
    }

    fn queue<'a>(&'a self, ranks: &'a [u16]) -> impl ExactSizeIterator<Item = AgentId> + 'a {
        ranks.iter().map(|&rank| self.roster[usize::from(rank)])
    }

    /// Every agent some row names, once each, in id order.
    pub fn roster(&self) -> &[AgentId] {
        &self.roster
    }

    /// True when every row is a server of an `n`-server system and
    /// every agent named was launched by one (rows are in server
    /// order, so the last row speaks for all).
    pub fn validate(&self, n: usize) -> bool {
        self.rows
            .heads()
            .next_back()
            .is_none_or(|&(server, _)| usize::from(server) < n)
            && self.roster.iter().all(|agent| agent.validate(n))
    }

    /// Whether any row names `agent`.
    pub fn names(&self, agent: AgentId) -> bool {
        self.roster.binary_search(&agent).is_ok()
    }

    /// Queue entries over all rows: what the table would cost with
    /// every id spelled out where it is queued.
    pub fn entries(&self) -> usize {
        self.rows.items().len()
    }

    /// The roster read against `finished`, slot by slot, in one walk of
    /// the two id-sorted lists, into a [`scratch`] table: [`DEAD`] where
    /// the agent has finished, 0 — no tops tallied yet — where it has
    /// not.
    fn live_slots<'a>(
        &self,
        finished: &UpdatedList,
        stack: &'a mut [u16; SCRATCH],
        heap: &'a mut Vec<u16>,
    ) -> &'a mut [u16] {
        let slots = scratch(stack, heap, self.roster.len(), 0);
        let mut done = finished.agents().peekable();
        for (slot, agent) in slots.iter_mut().zip(&self.roster) {
            while done.next_if(|d| d < agent).is_some() {}
            if done.peek() == Some(agent) {
                *slot = DEAD;
            }
        }
        slots
    }

    /// One reading of the table against `finished`, into a [`scratch`]
    /// table: per roster slot, the number of rows whose effective top
    /// the agent is ([`DEAD`] where it has finished). `drained` hears of
    /// every server whose queue holds no unfinished agent.
    fn tally_tops<'a>(
        &self,
        finished: &UpdatedList,
        stack: &'a mut [u16; SCRATCH],
        heap: &'a mut Vec<u16>,
        mut drained: impl FnMut(NodeId),
    ) -> &'a mut [u16] {
        let slots = self.live_slots(finished, stack, heap);
        for (&(server, _), ranks) in self.rows.iter() {
            let mut ranks = ranks.iter().map(|&rank| usize::from(rank));
            match ranks.find(|&rank| slots[rank] != DEAD) {
                // (A count stops one short of DEAD: no deployment has
                // 65 535 servers.)
                Some(top) => slots[top] = (slots[top] + 1).min(DEAD - 1),
                None => drained(server),
            }
        }
        slots
    }

    /// The *effective top* of a server's queue: the first agent not
    /// known to have finished already (stale snapshots may still list
    /// committed agents).
    pub fn effective_top(&self, server: NodeId, finished: &UpdatedList) -> Option<AgentId> {
        let at = self.slot(server).ok()?;
        self.queue(self.rows.row(at))
            .find(|&agent| !finished.contains(agent))
    }

    /// Count, for every agent, the servers whose effective top it is.
    pub fn top_counts(&self, finished: &UpdatedList) -> BTreeMap<AgentId, usize> {
        let (mut stack, mut heap) = ([0; SCRATCH], Vec::new());
        let tops = self.tally_tops(finished, &mut stack, &mut heap, |_| {});
        let tally = self.roster.iter().zip(tops.iter());
        tally
            .filter(|&(_, &tops)| tops != DEAD && tops > 0)
            .map(|(&agent, &tops)| (agent, usize::from(tops)))
            .collect()
    }

    /// Number of rows where slot `me` is next in line behind slot
    /// `rival`: the first agent there that is neither `rival` nor
    /// [`DEAD`] in `slots` (a [`Self::tally_tops`] reading).
    fn next_in_line(&self, me: usize, rival: usize, slots: &[u16]) -> usize {
        let first_other = |ranks: &[u16]| {
            let mut ranks = ranks.iter().map(|&rank| usize::from(rank));
            ranks.find(|&rank| rank != rival && slots[rank] != DEAD)
        };
        self.rows
            .iter()
            .filter(|(_, ranks)| first_other(ranks) == Some(me))
            .count()
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
            .iter()
            .filter(|(_, ranks)| ranks.contains(&(rank as u16)))
            .count()
    }

    /// The table's knowledge horizon: for every known server, the
    /// version of the snapshot held. Receivers advertise this so
    /// senders can delta-encode (ship only snapshots strictly newer
    /// than the receiver's horizon).
    pub fn horizon(&self) -> Horizon {
        self.rows
            .heads()
            .map(|&(server, row)| (server, row.version))
            .collect()
    }

    /// Raise `horizon` to cover every snapshot held: what
    /// [`Self::horizon`] says, written into a horizon buffer.
    pub fn raise_horizon(&self, horizon: &mut Horizon) {
        for &(server, row) in self.rows.heads() {
            horizon.raise(server, row.version);
        }
    }

    /// Drop every snapshot the `horizon` already covers (entry version
    /// ≤ the horizon's version for that server). What remains is exactly
    /// the delta a receiver with that horizon still needs; merging the
    /// delta into the receiver's table yields the same result as merging
    /// the full table (proved by property test).
    pub fn prune_covered_by(&mut self, horizon: &Horizon) {
        let held = self.rows.len();
        self.rows
            .retain(|&(server, row), _| horizon.get(server).is_none_or(|v| row.version > v));
        if self.rows.len() < held {
            self.release();
        }
    }

    /// Remove one server's snapshot (used when migrating *to* that
    /// server: its own LL is re-read on arrival, so carrying a snapshot
    /// of it is always dead weight).
    pub fn drop_server(&mut self, server: NodeId) {
        if let Ok(at) = self.slot(server) {
            self.rows.remove(at);
            self.release();
        }
    }

    /// Every agent appearing anywhere in the table and not finished —
    /// used as the tie certificate (the set of rivals the claimed winner
    /// knows about).
    pub fn known_agents(&self, finished: &UpdatedList) -> Vec<AgentId> {
        let (mut stack, mut heap) = ([0; SCRATCH], Vec::new());
        let slots = self.live_slots(finished, &mut stack, &mut heap);
        let slots = self.roster.iter().zip(slots.iter());
        slots
            .filter(|&(_, &slot)| slot != DEAD)
            .map(|(&agent, _)| agent)
            .collect()
    }
}

/// Result of a priority evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Priority {
    /// This agent holds the distributed lock: `None` by an outright
    /// majority of tops, or by stuck-configuration resolution with the
    /// tie certificate — the rivals the winner knows about, which
    /// servers validate the claim against in their live LLs.
    Win(Option<Vec<AgentId>>),
    /// Not decidable in this agent's favour yet.
    NotYet,
    /// Another live agent already tops a strict majority, and this one
    /// is next in line behind it at a strict majority: no further visit
    /// can change who commits next, and this agent can claim the moment
    /// the rival finishes, so it parks instead of touring on until news
    /// leaves no settled rival.
    Behind,
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
    let (mut stack, mut heap) = ([0; SCRATCH], Vec::new());
    let tops = lt.tally_tops(finished, &mut stack, &mut heap, |server| {
        if usize::from(server) < n && !unavailable.contains(&server) {
            claimable += 1;
        }
    });
    let live = |tops: &&u16| **tops != DEAD;
    let my_slot = lt.roster.binary_search(&me).ok();
    let my_tops = my_slot
        .map(|slot| &tops[slot])
        .filter(live)
        .map_or(0, |&tops| tops);
    if usize::from(my_tops) >= maj {
        return Priority::Win(None);
    }
    // A rival's outright majority settles the next commit whatever this
    // agent sees elsewhere. Only an agent next in line at a majority
    // can claim after it without another visit (Theorem 3's floor);
    // one further back gains nothing by waiting here.
    let best = tops.iter().filter(live).copied().max().unwrap_or(0);
    if usize::from(best) >= maj {
        let rival = tops.iter().position(|&tops| tops == best);
        return match my_slot.zip(rival) {
            Some((me, rival)) if lt.next_in_line(me, rival, tops) >= maj => Priority::Behind,
            _ => Priority::NotYet,
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
    if usize::from(best) + claimable >= maj {
        return Priority::NotYet;
    }

    // Nobody can reach a majority until a commit happens — but nobody
    // has committed and nobody will: resolve deterministically by
    // (most tops, then smallest agent id), which in a roster kept in id
    // order is the first slot holding the most. An empty tally means
    // there is nothing to resolve yet.
    if best == 0 || tops.iter().position(|&tops| tops == best) != my_slot {
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
    let slots = lt.roster.iter().zip(tops.iter());
    Priority::Win(Some(
        slots
            .filter(|(&agent, tops)| live(tops) && agent != me)
            .map(|(&agent, _)| agent)
            .collect(),
    ))
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
        lt.prune_covered_by(&Horizon::from_iter([(2, 1), (1, 1)]));
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
        assert_eq!(decide(&lt, me, 5, &finished, &[]), Priority::Win(None));
        // The rival is next in line behind `me` at 3 of 5: it waits for
        // `me` to finish.
        assert_eq!(decide(&lt, rival, 5, &finished, &[]), Priority::Behind);
    }

    #[test]
    fn behind_an_outright_rival_parks_only_next_in_line_at_a_majority() {
        let me = aid(1);
        let rival = aid(2);
        let third = aid(3);
        let finished = UpdatedList::new();
        // The rival tops 3 of 5; `me` is enqueued at only 2, so it could
        // not claim after the rival finishes: it keeps travelling.
        let lt = table(&[&[rival, me], &[rival, me], &[rival], &[], &[]]);
        assert_eq!(decide(&lt, me, 5, &finished, &[]), Priority::NotYet);
        // Enqueued at a third server, it has nothing left to gain by a
        // visit.
        let lt = table(&[&[rival, me], &[rival, me], &[rival, me], &[], &[]]);
        assert_eq!(decide(&lt, me, 5, &finished, &[]), Priority::Behind);
        // The rival finishing unsettles it again.
        let mut done = UpdatedList::new();
        done.record(rival, SimTime::ZERO);
        assert!(matches!(
            decide(&lt, me, 5, &done, &[]),
            Priority::Win(None)
        ));
        // Behind the rival, next in line at only 2 servers: the commit
        // after the rival's is not settled to be its own, so it tours on.
        let lt = table(&[
            &[rival, third, me],
            &[rival, third, me],
            &[rival, me, third],
            &[],
            &[],
        ]);
        assert_eq!(decide(&lt, third, 5, &finished, &[]), Priority::NotYet);
        assert_eq!(decide(&lt, me, 5, &finished, &[]), Priority::NotYet);
        // Third in line at a majority gains nothing by parking early.
        let lt = table(&[
            &[rival, third, me],
            &[rival, third, me],
            &[rival, third, me],
            &[],
            &[],
        ]);
        assert_eq!(decide(&lt, third, 5, &finished, &[]), Priority::Behind);
        assert_eq!(decide(&lt, me, 5, &finished, &[]), Priority::NotYet);
    }

    #[test]
    fn a_tie_break_winner_does_not_settle_the_next_commit() {
        // N = 5, tops 2/2/1 with full coverage: `a` wins on the stuck
        // rule only. `c` is enqueued at 3 servers, but a tie-break win
        // can still be refused, so `c` is not behind a settled rival.
        let (a, b, c) = (aid(1), aid(2), aid(3));
        let lt = table(&[&[a, c], &[a, b], &[b, a], &[b, c], &[c, a, b]]);
        let finished = UpdatedList::new();
        assert!(matches!(
            decide(&lt, a, 5, &finished, &[]),
            Priority::Win(Some(_))
        ));
        assert_eq!(lt.presence_count(c), 3);
        assert_eq!(decide(&lt, c, 5, &finished, &[]), Priority::NotYet);
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
        let Priority::Win(Some(certificate)) = decision_a else {
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
        let Priority::Win(Some(certificate)) = decision_a else {
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
            Priority::Win(Some(_))
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
        assert_eq!(decide(&lt, me, 5, &finished, &[]), Priority::Win(None));
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
            .filter(|&a| matches!(decide(&lt, a, 5, &finished, &[]), Priority::Win(_)))
            .collect();
        assert!(wins.len() <= 1, "multiple winners: {wins:?}");
    }

    #[test]
    fn single_server_cluster_wins_on_its_own_top() {
        let me = aid(1);
        let lt = table(&[&[me]]);
        let finished = UpdatedList::new();
        assert_eq!(decide(&lt, me, 1, &finished, &[]), Priority::Win(None));
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
            Priority::Win(Some(_))
        ));
        assert_eq!(decide(&lt, rival, 2, &finished, &[]), Priority::NotYet);
        // Top at both → outright.
        let lt = table(&[&[me], &[me, rival]]);
        assert!(matches!(
            decide(&lt, me, 2, &finished, &[]),
            Priority::Win(None)
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
            Priority::Win(Some(_))
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
