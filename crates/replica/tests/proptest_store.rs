//! Property tests for the versioned store: arbitrary delivery orders
//! and duplications must converge to the same state.

use marp_replica::{CommitRecord, VersionedStore};
use marp_sim::SimTime;
use proptest::prelude::*;

fn record(version: u64) -> CommitRecord {
    CommitRecord {
        version,
        key: version % 8,
        value: version * 3,
        agent: 1,
        request: version + 1000,
        committed_at: SimTime::from_millis(version),
    }
}

proptest! {
    /// Offering a permutation (with arbitrary duplicates) of versions
    /// 1..=n yields exactly the in-order log.
    #[test]
    fn shuffled_delivery_converges(
        n in 1u64..40,
        order in proptest::collection::vec(any::<proptest::sample::Index>(), 0..120),
    ) {
        let mut store = VersionedStore::new();
        // A base pass in shuffled order driven by the index samples...
        let mut pending: Vec<u64> = (1..=n).collect();
        for idx in &order {
            if pending.is_empty() {
                break;
            }
            let pick = idx.index(pending.len());
            let version = pending[pick];
            store.offer(record(version), SimTime::from_millis(version));
            // Duplicates allowed: only remove sometimes.
            if !version.is_multiple_of(3) {
                pending.remove(pick);
            }
        }
        // ...then deliver whatever is left, in order.
        pending.sort_unstable();
        pending.dedup();
        for version in pending {
            store.offer(record(version), SimTime::from_millis(version));
        }
        prop_assert_eq!(store.applied_version(), n);
        prop_assert_eq!(store.log().len(), n as usize);
        for (i, rec) in store.log().iter().enumerate() {
            prop_assert_eq!(rec.version, i as u64 + 1);
        }
        prop_assert_eq!(store.gap(), None);
        // Every key holds the value of its highest version.
        for key in 0..8u64 {
            let expected = (1..=n).filter(|v| v % 8 == key).max();
            prop_assert_eq!(
                store.get(key).map(|s| s.version),
                expected,
                "key {}", key
            );
        }
    }

    /// `request_applied` tracks exactly the applied records.
    #[test]
    fn request_tracking_is_exact(n in 1u64..30, probe in 0u64..3000) {
        let mut store = VersionedStore::new();
        for version in 1..=n {
            store.offer(record(version), SimTime::ZERO);
        }
        let applied = (1000 + 1..=1000 + n).contains(&probe);
        prop_assert_eq!(store.request_applied(probe), applied);
    }

    /// A log suffix replayed into a fresh store reproduces the source
    /// from any synchronization point.
    #[test]
    fn log_suffix_bootstraps_replicas(n in 1u64..30, from in 0u64..30) {
        let from = from.min(n);
        let mut source = VersionedStore::new();
        for version in 1..=n {
            source.offer(record(version), SimTime::ZERO);
        }
        let mut target = VersionedStore::new();
        for version in 1..=from {
            target.offer(record(version), SimTime::ZERO);
        }
        for rec in source.log_suffix_for(0, from) {
            target.offer(rec, SimTime::ZERO);
        }
        prop_assert_eq!(target.applied_version(), n);
        prop_assert_eq!(target.log().len(), source.log().len());
    }
}
