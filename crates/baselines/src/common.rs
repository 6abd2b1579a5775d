//! Pieces shared by the message-passing baseline protocols.

use marp_sim::{NodeId, SimTime};
use std::time::Duration;

/// A totally ordered round identifier for coordinator-based protocols:
/// `(seq, coordinator)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ballot {
    /// Per-coordinator round counter.
    pub seq: u64,
    /// The coordinating server.
    pub coordinator: NodeId,
}

impl Ballot {
    /// First ballot of a coordinator.
    pub fn first(coordinator: NodeId) -> Self {
        Ballot {
            seq: 1,
            coordinator,
        }
    }

    /// The coordinator's next ballot.
    pub fn next(self) -> Self {
        Ballot {
            seq: self.seq + 1,
            coordinator: self.coordinator,
        }
    }
}

marp_wire::wire_struct!(Ballot { seq, coordinator });

/// A replica's vote promise: granted to one ballot at a time, with an
/// expiry so a crashed coordinator cannot wedge the replica.
///
/// Leases are half-open intervals `[granted, granted + lease)`: the
/// promise binds while `now < expires` and is free at the expiry
/// instant itself. This matches `LockingList::purge_expired` in
/// `marp-replica`, which purges entries with `expires_at <= now` — at
/// exactly `t = expires` both structures agree the holder is gone.
#[derive(Debug, Clone, Copy, Default)]
pub struct Promise {
    current: Option<(Ballot, SimTime)>,
}

impl Promise {
    /// Empty promise slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Try to grant a promise to `ballot` at `now` for `lease`. Granting
    /// again to the same ballot refreshes the lease. Returns whether the
    /// promise is now held by `ballot`.
    pub fn try_grant(&mut self, ballot: Ballot, now: SimTime, lease: Duration) -> bool {
        match self.current {
            Some((held, expires)) if held != ballot && expires > now => false,
            _ => {
                self.current = Some((ballot, now + lease));
                true
            }
        }
    }

    /// Clear the promise if held by `ballot`.
    pub fn release(&mut self, ballot: Ballot) {
        if let Some((held, _)) = self.current {
            if held == ballot {
                self.current = None;
            }
        }
    }

    /// Clear unconditionally (crash recovery).
    pub fn clear(&mut self) {
        self.current = None;
    }

    /// The ballot currently holding the promise, if unexpired at `now`.
    pub fn holder(&self, now: SimTime) -> Option<Ballot> {
        match self.current {
            Some((ballot, expires)) if expires > now => Some(ballot),
            _ => None,
        }
    }
}

/// A last-writer-wins timestamp: `(counter, node)`, totally ordered.
/// Used by the Available Copy baseline, which has no global version
/// sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct LwwTs {
    /// Lamport-style counter.
    pub counter: u64,
    /// Tie-breaking writer node.
    pub node: NodeId,
}

marp_wire::wire_struct!(LwwTs { counter, node });

/// A per-key last-writer-wins store with a Lamport clock.
#[derive(Debug, Clone, Default)]
pub struct LwwStore {
    clock: u64,
    data: std::collections::BTreeMap<u64, (u64, LwwTs)>,
}

impl LwwStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mint a fresh local timestamp (advances the clock).
    pub fn stamp(&mut self, me: NodeId) -> LwwTs {
        self.clock += 1;
        LwwTs {
            counter: self.clock,
            node: me,
        }
    }

    /// Apply a write if its timestamp is newer than what we hold;
    /// always advances the local clock past the observed timestamp.
    /// Returns true if the value changed.
    pub fn apply(&mut self, key: u64, value: u64, ts: LwwTs) -> bool {
        self.clock = self.clock.max(ts.counter);
        match self.data.get(&key) {
            Some(&(_, held)) if held >= ts => false,
            _ => {
                self.data.insert(key, (value, ts));
                true
            }
        }
    }

    /// Current value and timestamp of a key.
    pub fn get(&self, key: u64) -> Option<(u64, LwwTs)> {
        self.data.get(&key).copied()
    }

    /// Full contents (for state transfer).
    pub fn dump(&self) -> Vec<(u64, u64, LwwTs)> {
        self.data.iter().map(|(&k, &(v, ts))| (k, v, ts)).collect()
    }

    /// Merge a dump from a peer (recovery).
    pub fn absorb(&mut self, dump: Vec<(u64, u64, LwwTs)>) {
        for (key, value, ts) in dump {
            self.apply(key, value, ts);
        }
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no key is present.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballots_order_by_seq_then_node() {
        let a = Ballot {
            seq: 1,
            coordinator: 2,
        };
        let b = Ballot {
            seq: 2,
            coordinator: 1,
        };
        assert!(a < b);
        assert!(
            Ballot {
                seq: 1,
                coordinator: 1
            } < a
        );
        assert_eq!(a.next().seq, 2);
    }

    #[test]
    fn promise_is_exclusive_until_release() {
        let mut p = Promise::new();
        let now = SimTime::from_millis(1);
        let lease = Duration::from_secs(1);
        let b1 = Ballot::first(0);
        let b2 = Ballot::first(1);
        assert!(p.try_grant(b1, now, lease));
        assert!(!p.try_grant(b2, now, lease));
        assert!(p.try_grant(b1, now, lease)); // refresh
        assert_eq!(p.holder(now), Some(b1));
        p.release(b2); // wrong ballot: no-op
        assert!(!p.try_grant(b2, now, lease));
        p.release(b1);
        assert!(p.try_grant(b2, now, lease));
    }

    #[test]
    fn promise_expires() {
        let mut p = Promise::new();
        let lease = Duration::from_millis(10);
        assert!(p.try_grant(Ballot::first(0), SimTime::from_millis(1), lease));
        let later = SimTime::from_millis(20);
        assert_eq!(p.holder(later), None);
        assert!(p.try_grant(Ballot::first(1), later, lease));
    }

    #[test]
    fn promise_lease_boundary_is_half_open() {
        let mut p = Promise::new();
        let lease = Duration::from_millis(10);
        assert!(p.try_grant(Ballot::first(0), SimTime::from_millis(1), lease));
        // One instant before expiry the promise still binds...
        let almost = SimTime::from_nanos(11_000_000 - 1);
        assert_eq!(p.holder(almost), Some(Ballot::first(0)));
        assert!(!p.try_grant(Ballot::first(1), almost, lease));
        // ...and at exactly t = granted + lease it is free.
        let expiry = SimTime::from_millis(11);
        assert_eq!(p.holder(expiry), None);
        assert!(p.try_grant(Ballot::first(1), expiry, lease));
    }

    #[test]
    fn lww_applies_newest_only() {
        let mut store = LwwStore::new();
        let t1 = LwwTs {
            counter: 1,
            node: 0,
        };
        let t2 = LwwTs {
            counter: 2,
            node: 0,
        };
        assert!(store.apply(5, 50, t2));
        assert!(!store.apply(5, 49, t1));
        assert_eq!(store.get(5), Some((50, t2)));
    }

    #[test]
    fn lww_ties_break_by_node() {
        let mut store = LwwStore::new();
        let ta = LwwTs {
            counter: 1,
            node: 0,
        };
        let tb = LwwTs {
            counter: 1,
            node: 1,
        };
        store.apply(1, 10, ta);
        assert!(store.apply(1, 11, tb)); // higher node wins the tie
        assert!(!store.apply(1, 10, ta));
        assert_eq!(store.get(1).unwrap().0, 11);
    }

    #[test]
    fn lww_clock_advances_past_observed() {
        let mut store = LwwStore::new();
        store.apply(
            1,
            10,
            LwwTs {
                counter: 100,
                node: 3,
            },
        );
        let stamp = store.stamp(0);
        assert!(stamp.counter > 100);
    }

    #[test]
    fn lww_dump_absorb_converges() {
        let mut a = LwwStore::new();
        let mut b = LwwStore::new();
        a.apply(
            1,
            10,
            LwwTs {
                counter: 1,
                node: 0,
            },
        );
        b.apply(
            2,
            20,
            LwwTs {
                counter: 2,
                node: 1,
            },
        );
        b.apply(
            1,
            11,
            LwwTs {
                counter: 3,
                node: 1,
            },
        );
        a.absorb(b.dump());
        b.absorb(a.dump());
        assert_eq!(a.dump(), b.dump());
        assert_eq!(a.get(1).unwrap().0, 11);
        assert_eq!(a.len(), 2);
    }
}
