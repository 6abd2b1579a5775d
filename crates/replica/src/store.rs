//! The versioned replica store.
//!
//! Every committed update carries a version number within its *chain* —
//! MARP's per-object lock means updates to one key are totally ordered,
//! and the paper's "order preserving" property says every replica
//! applies them in that order. The store enforces it: commits apply
//! strictly in version order within their chain; out-of-order arrivals
//! (a replica that missed some commits while down) are buffered until
//! the gap is filled by anti-entropy ([`VersionedStore::suffix_for_versions`]
//! answers a recovering peer's request).
//!
//! Two chain disciplines exist, fixed at construction:
//!
//! * **Global** ([`VersionedStore::new`]) — one chain for everything,
//!   whatever keys the records carry. This is the discipline of the
//!   message-passing baselines (MCV, primary copy), whose coordinators
//!   allocate one dense version sequence across all keys.
//! * **Per-key** ([`VersionedStore::per_key`]) — one independent chain
//!   per object key. This is MARP's discipline once the lock table is
//!   keyed: winners of *different* keys commit concurrently, so their
//!   version sequences must not share a counter.

use marp_sim::{AgentKey, SimTime};
use std::collections::BTreeMap;

/// One committed update, as shipped between replicas and kept in the
/// commit log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// Commit sequence number within the record's chain (1-based;
    /// version 0 is "empty"). Under the global discipline the chain is
    /// system-wide; under per-key chains it is `key`'s own sequence.
    pub version: u64,
    /// Updated key.
    pub key: u64,
    /// New value.
    pub value: u64,
    /// The agent (or baseline coordinator) that performed the update.
    pub agent: AgentKey,
    /// The client request this update serves.
    pub request: u64,
    /// When the winner issued the commit.
    pub committed_at: SimTime,
}

marp_wire::wire_struct!(CommitRecord {
    version,
    key,
    value,
    agent,
    request,
    committed_at
});

/// A stored value with its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredValue {
    /// Current value.
    pub value: u64,
    /// Version (within the key's chain) that wrote it.
    pub version: u64,
    /// When it was applied locally.
    pub applied_at: SimTime,
}

/// One version chain: a dense applied prefix plus a gap buffer.
#[derive(Debug, Default)]
struct Chain {
    applied: u64,
    log: Vec<CommitRecord>,
    pending: BTreeMap<u64, CommitRecord>,
}

/// Versioned key-value store with strict in-order application per
/// chain.
#[derive(Debug, Default)]
pub struct VersionedStore {
    per_key: bool,
    chains: BTreeMap<u64, Chain>,
    data: BTreeMap<u64, StoredValue>,
    applied_requests: BTreeMap<u64, u64>,
}

impl VersionedStore {
    /// An empty store with one global chain (the baselines'
    /// discipline).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with an independent chain per object key (MARP's
    /// discipline under the keyed lock table).
    pub fn per_key() -> Self {
        VersionedStore {
            per_key: true,
            ..Self::default()
        }
    }

    /// The chain a record for `key` belongs to.
    fn chain_of(&self, key: u64) -> u64 {
        if self.per_key {
            key
        } else {
            0
        }
    }

    /// Highest version applied on chain 0 (the whole store under the
    /// global discipline; key 0's chain under per-key chains). Prefer
    /// [`VersionedStore::applied_version_for`] in keyed protocol paths.
    pub fn applied_version(&self) -> u64 {
        self.chains.get(&0).map_or(0, |c| c.applied)
    }

    /// Highest version chain 0 has applied or holds buffered behind a
    /// gap: every version this store has been handed a commit for.
    pub fn seen_version(&self) -> u64 {
        self.seen_version_for(0)
    }

    /// Highest version `key`'s chain has applied or holds buffered
    /// behind a gap: what a quorum member must report, since a version
    /// it holds only buffered is taken all the same.
    pub fn seen_version_for(&self, key: u64) -> u64 {
        self.chains.get(&self.chain_of(key)).map_or(0, |c| {
            c.pending.last_key_value().map_or(c.applied, |(&v, _)| v)
        })
    }

    /// Highest version applied on `key`'s chain.
    pub fn applied_version_for(&self, key: u64) -> u64 {
        self.chains
            .get(&self.chain_of(key))
            .map_or(0, |c| c.applied)
    }

    /// Current value of a key, if any.
    pub fn get(&self, key: u64) -> Option<StoredValue> {
        self.data.get(&key).copied()
    }

    /// Number of distinct keys present.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no key has ever been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Offer a commit: [`Self::offer_into`] a list of its own.
    pub fn offer(&mut self, record: CommitRecord, now: SimTime) -> Vec<(CommitRecord, bool)> {
        let mut applied = Vec::new();
        self.offer_into(record, now, &mut applied);
        applied
    }

    /// Offer a commit. Appends to `applied` every record that became
    /// applicable (the offered one plus any buffered successors on the
    /// same chain), in application order, each tagged with whether its
    /// data write was *suppressed* — the record's request was already
    /// applied under an earlier version, so the slot is burned (the
    /// chain advances, its log stays dense for anti-entropy) but the
    /// data and the client reply are exactly-once. Records at or below
    /// their chain's applied version are ignored: duplicates, unless
    /// [`Self::conflicts_with`] says otherwise.
    pub fn offer_into(
        &mut self,
        record: CommitRecord,
        now: SimTime,
        applied: &mut Vec<(CommitRecord, bool)>,
    ) {
        let cid = self.chain_of(record.key);
        let chain = self.chains.entry(cid).or_default();
        if record.version <= chain.applied {
            return;
        }
        chain.pending.insert(record.version, record);
        loop {
            let chain = self.chains.get_mut(&cid).expect("chain just touched");
            let Some(next) = chain.pending.remove(&(chain.applied + 1)) else {
                break;
            };
            chain.applied = next.version;
            let suppressed = self.applied_requests.contains_key(&next.request);
            if !suppressed {
                self.data.insert(
                    next.key,
                    StoredValue {
                        value: next.value,
                        version: next.version,
                        applied_at: now,
                    },
                );
                self.applied_requests.insert(next.request, next.version);
            }
            self.chains
                .get_mut(&cid)
                .expect("chain just touched")
                .log
                .push(next.clone());
            applied.push((next, suppressed));
        }
    }

    /// Whether `record` contradicts this store's history: its version
    /// is already applied on its chain, as a different request. Two
    /// committers numbered different writes alike — [`Self::offer`]
    /// will drop the record as if it were a duplicate, so ask first.
    pub fn conflicts_with(&self, record: &CommitRecord) -> bool {
        let applied_as = self
            .chains
            .get(&self.chain_of(record.key))
            .zip(record.version.checked_sub(1))
            .and_then(|(chain, slot)| chain.log.get(usize::try_from(slot).ok()?));
        applied_as.is_some_and(|held| held.request != record.request)
    }

    /// Whether a client request has already been applied here (used to
    /// avoid re-dispatching work whose original agent survived).
    pub fn request_applied(&self, request: u64) -> bool {
        self.applied_requests.contains_key(&request)
    }

    /// The version (within its chain) under which a client request
    /// first committed, if it has been applied here — the answer an
    /// idempotent resend gets.
    pub fn request_version(&self, request: u64) -> Option<u64> {
        self.applied_requests.get(&request).copied()
    }

    /// Lowest missing version if chain 0 is waiting on a gap.
    pub fn gap(&self) -> Option<u64> {
        self.chains.get(&0).and_then(|c| {
            if c.pending.is_empty() {
                None
            } else {
                Some(c.applied + 1)
            }
        })
    }

    /// Whether any chain is waiting on a gap (drives anti-entropy
    /// pulls).
    pub fn has_gap(&self) -> bool {
        self.chains.values().any(|c| !c.pending.is_empty())
    }

    /// Applied version of every chain this store has touched — the
    /// horizon map an anti-entropy pull advertises.
    pub fn chain_versions(&self) -> BTreeMap<u64, u64> {
        self.chains.iter().map(|(&c, ch)| (c, ch.applied)).collect()
    }

    /// One chain's commit log from `from_version` (exclusive) onwards.
    pub fn log_suffix_for(&self, chain: u64, from_version: u64) -> Vec<CommitRecord> {
        let Some(chain) = self.chains.get(&chain) else {
            return Vec::new();
        };
        let start = usize::try_from(from_version).unwrap_or(usize::MAX);
        if start >= chain.log.len() {
            Vec::new()
        } else {
            chain.log[start..].to_vec()
        }
    }

    /// Everything the peer behind `versions` is missing: for each local
    /// chain, the suffix past the peer's advertised applied version
    /// (absent = 0, i.e. the full chain) — the anti-entropy payload.
    pub fn suffix_for_versions(&self, versions: &BTreeMap<u64, u64>) -> Vec<CommitRecord> {
        let mut records = Vec::new();
        for &chain in self.chains.keys() {
            let from = versions.get(&chain).copied().unwrap_or(0);
            records.extend(self.log_suffix_for(chain, from));
        }
        records
    }

    /// Chain 0's full applied history (for audits and tests; the whole
    /// store under the global discipline).
    pub fn log(&self) -> &[CommitRecord] {
        self.chains.get(&0).map_or(&[], |c| c.log.as_slice())
    }

    /// Drop buffered out-of-order commits (volatile state) after a
    /// crash; the applied logs are "stable storage" and survive.
    pub fn clear_volatile(&mut self) {
        for chain in self.chains.values_mut() {
            chain.pending.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(version: u64, key: u64, value: u64) -> CommitRecord {
        CommitRecord {
            version,
            key,
            value,
            agent: 7,
            request: version * 100 + key,
            committed_at: SimTime::from_millis(version),
        }
    }

    #[test]
    fn in_order_commits_apply_immediately() {
        let mut store = VersionedStore::new();
        let applied = store.offer(record(1, 10, 100), SimTime::from_millis(1));
        assert_eq!(applied.len(), 1);
        assert_eq!(store.applied_version(), 1);
        assert_eq!(store.get(10).unwrap().value, 100);
    }

    #[test]
    fn out_of_order_commits_buffer_until_gap_fills() {
        let mut store = VersionedStore::new();
        assert!(store.offer(record(3, 1, 30), SimTime::ZERO).is_empty());
        assert!(store.offer(record(2, 1, 20), SimTime::ZERO).is_empty());
        assert_eq!(store.gap(), Some(1));
        assert!(store.has_gap());
        assert_eq!(store.chains[&0].pending.len(), 2);
        let applied = store.offer(record(1, 1, 10), SimTime::from_millis(5));
        assert_eq!(
            applied.iter().map(|(r, _)| r.version).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(store.applied_version(), 3);
        assert_eq!(store.get(1).unwrap().value, 30);
        assert_eq!(store.gap(), None);
        assert!(!store.has_gap());
    }

    #[test]
    fn a_buffered_commit_is_seen_before_it_is_applied() {
        let mut store = VersionedStore::new();
        store.offer(record(1, 1, 10), SimTime::ZERO);
        store.offer(record(3, 1, 30), SimTime::ZERO);
        assert_eq!((store.applied_version(), store.seen_version()), (1, 3));
        store.offer(record(2, 1, 20), SimTime::ZERO);
        assert_eq!((store.applied_version(), store.seen_version()), (3, 3));
    }

    #[test]
    fn a_buffered_commit_is_seen_on_its_own_keys_chain_only() {
        let mut store = VersionedStore::per_key();
        store.offer(record(1, 5, 10), SimTime::ZERO);
        store.offer(record(4, 5, 40), SimTime::ZERO);
        store.offer(record(1, 6, 11), SimTime::ZERO);
        assert_eq!(
            (store.applied_version_for(5), store.seen_version_for(5)),
            (1, 4)
        );
        assert_eq!(
            (store.applied_version_for(6), store.seen_version_for(6)),
            (1, 1)
        );
        assert_eq!(store.seen_version_for(7), 0);
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut store = VersionedStore::new();
        store.offer(record(1, 1, 10), SimTime::ZERO);
        assert!(store.offer(record(1, 1, 99), SimTime::ZERO).is_empty());
        assert_eq!(store.get(1).unwrap().value, 10);
        assert_eq!(store.log().len(), 1);
    }

    #[test]
    fn another_request_at_an_applied_version_is_a_conflict() {
        let mut store = VersionedStore::per_key();
        store.offer(record(1, 1, 10), SimTime::ZERO);
        store.offer(record(2, 1, 20), SimTime::ZERO);
        // The same record again is a duplicate, and a version not yet
        // applied contradicts nothing.
        assert!(!store.conflicts_with(&record(1, 1, 10)));
        assert!(!store.conflicts_with(&record(3, 1, 30)));
        assert!(!store.conflicts_with(&record(1, 2, 10)), "another chain");
        // Version 1 of key 1 under another request is a second history.
        let rival = CommitRecord {
            request: 999,
            ..record(1, 1, 10)
        };
        assert!(store.conflicts_with(&rival));
        assert!(store.offer(rival, SimTime::ZERO).is_empty());
        assert_eq!(store.get(1).unwrap().value, 20);
    }

    #[test]
    fn log_suffix_serves_recovery() {
        let mut store = VersionedStore::new();
        for v in 1..=5 {
            store.offer(record(v, v, v * 10), SimTime::ZERO);
        }
        let suffix = store.log_suffix_for(0, 3);
        assert_eq!(
            suffix.iter().map(|r| r.version).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert!(store.log_suffix_for(0, 5).is_empty());
        assert!(store.log_suffix_for(0, 99).is_empty());
        assert_eq!(store.log_suffix_for(0, 0).len(), 5);
    }

    #[test]
    fn latest_version_per_key_wins() {
        let mut store = VersionedStore::new();
        store.offer(record(1, 5, 50), SimTime::ZERO);
        store.offer(record(2, 5, 51), SimTime::ZERO);
        let sv = store.get(5).unwrap();
        assert_eq!(sv.value, 51);
        assert_eq!(sv.version, 2);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn global_discipline_spans_keys_on_one_chain() {
        // The baselines allocate one dense sequence across all keys.
        let mut store = VersionedStore::new();
        store.offer(record(1, 10, 1), SimTime::ZERO);
        store.offer(record(2, 20, 2), SimTime::ZERO);
        store.offer(record(3, 10, 3), SimTime::ZERO);
        assert_eq!(store.applied_version(), 3);
        assert_eq!(store.applied_version_for(20), 3);
        assert_eq!(store.log().len(), 3);
    }

    #[test]
    fn per_key_chains_are_independent() {
        let mut store = VersionedStore::per_key();
        // Keys 1 and 2 each start their own chain at version 1 —
        // concurrent winners on disjoint keys never collide.
        store.offer(record(1, 1, 10), SimTime::from_millis(1));
        store.offer(record(1, 2, 20), SimTime::from_millis(2));
        store.offer(record(2, 1, 11), SimTime::from_millis(3));
        assert_eq!(store.applied_version_for(1), 2);
        assert_eq!(store.applied_version_for(2), 1);
        assert_eq!(store.get(1).unwrap().value, 11);
        assert_eq!(store.get(2).unwrap().value, 20);
        assert_eq!(
            store.chain_versions(),
            BTreeMap::from([(1u64, 2u64), (2, 1)])
        );
    }

    #[test]
    fn per_key_gap_buffers_only_its_chain() {
        let mut store = VersionedStore::per_key();
        // Key 1 has a gap; key 2 keeps applying.
        assert!(store.offer(record(2, 1, 12), SimTime::ZERO).is_empty());
        let applied = store.offer(record(1, 2, 20), SimTime::ZERO);
        assert_eq!(applied.len(), 1);
        assert!(store.has_gap());
        assert_eq!(store.chains[&1].pending.len(), 1);
        // Filling key 1's gap releases its buffered successor.
        let applied = store.offer(record(1, 1, 11), SimTime::ZERO);
        assert_eq!(
            applied.iter().map(|(r, _)| r.version).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(!store.has_gap());
    }

    #[test]
    fn keyed_suffix_serves_recovery_per_chain() {
        let mut source = VersionedStore::per_key();
        for v in 1..=3 {
            source.offer(record(v, 1, v * 10), SimTime::ZERO);
        }
        for v in 1..=2 {
            source.offer(record(v, 2, v * 100), SimTime::ZERO);
        }
        let mut target = VersionedStore::per_key();
        target.offer(record(1, 1, 10), SimTime::ZERO);
        // The peer advertises {1: 1} (chain 2 unknown → full chain).
        let missing = source.suffix_for_versions(&target.chain_versions());
        for rec in missing {
            target.offer(rec, SimTime::ZERO);
        }
        assert_eq!(target.applied_version_for(1), 3);
        assert_eq!(target.applied_version_for(2), 2);
        assert_eq!(target.get(1).unwrap().value, 30);
        assert_eq!(target.get(2).unwrap().value, 200);
    }

    #[test]
    fn duplicate_request_burns_the_slot_without_rewriting_data() {
        let mut store = VersionedStore::new();
        // Version 1 commits request 100 writing key 5 = 50.
        let first = CommitRecord {
            request: 100,
            ..record(1, 5, 50)
        };
        let applied = store.offer(first, SimTime::from_millis(1));
        assert_eq!(applied.len(), 1);
        assert!(!applied[0].1);
        assert_eq!(store.request_version(100), Some(1));
        // A zombie re-commit of request 100 arrives as version 2 with a
        // different (stale) value: the slot burns, the data does not move.
        let dup = CommitRecord {
            request: 100,
            ..record(2, 5, 99)
        };
        let applied = store.offer(dup, SimTime::from_millis(2));
        assert_eq!(applied.len(), 1);
        assert!(applied[0].1, "duplicate request must be suppressed");
        assert_eq!(store.get(5).unwrap().value, 50);
        assert_eq!(store.get(5).unwrap().version, 1);
        assert_eq!(store.request_version(100), Some(1));
        // The log stays dense so anti-entropy still works.
        assert_eq!(store.applied_version(), 2);
        assert_eq!(store.log().len(), 2);
        // An unrelated request applies normally afterwards.
        let applied = store.offer(record(3, 6, 60), SimTime::from_millis(3));
        assert!(!applied[0].1, "fresh request must not be suppressed");
        assert_eq!(store.get(6).unwrap().value, 60);
    }

    #[test]
    fn request_dedup_spans_chains() {
        // A regenerated agent's re-commit may land on the same chain at
        // a later version; dedup is by request id, chain-wide.
        let mut store = VersionedStore::per_key();
        let first = CommitRecord {
            request: 100,
            ..record(1, 5, 50)
        };
        store.offer(first, SimTime::from_millis(1));
        let dup = CommitRecord {
            request: 100,
            ..record(2, 5, 99)
        };
        let applied = store.offer(dup, SimTime::from_millis(2));
        assert!(applied[0].1);
        assert_eq!(store.get(5).unwrap().value, 50);
        assert_eq!(store.applied_version_for(5), 2);
    }

    #[test]
    fn clear_volatile_keeps_applied_log() {
        let mut store = VersionedStore::new();
        store.offer(record(1, 1, 10), SimTime::ZERO);
        store.offer(record(3, 1, 30), SimTime::ZERO);
        store.clear_volatile();
        assert!(!store.has_gap());
        assert_eq!(store.applied_version(), 1);
        assert_eq!(store.log().len(), 1);
    }

    #[test]
    fn commit_record_wire_roundtrip() {
        let r = record(9, 4, 44);
        let bytes = marp_wire::to_bytes(&r);
        assert_eq!(marp_wire::from_bytes::<CommitRecord>(&bytes).unwrap(), r);
    }
}
