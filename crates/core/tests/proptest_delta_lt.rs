//! Property proofs for delta-encoded Locking Table migration.
//!
//! A migrating agent prunes its LT against the destination's advertised
//! knowledge horizon before serializing (`LockingTable::prune_covered_by`)
//! and unconditionally drops the destination's own entry
//! (`LockingTable::drop_server`), relying on the destination to re-supply
//! everything pruned. These tests prove the two soundness obligations:
//!
//! 1. **Delta-merge ≡ full-merge**: merging the pruned table into the
//!    receiver yields the same protocol-relevant state (version + queue
//!    per server) as merging the full table.
//! 2. **Own-entry drop is free**: when the destination re-merges a
//!    snapshot of its own LL that is at least as new as anything the
//!    agent carried (guaranteed by LL version monotonicity), dropping
//!    the carried entry changes nothing.
//!
//! Snapshots are generated under the invariant the protocol maintains:
//! a server's LL version uniquely determines its queue content (the
//! version bumps on every queue mutation), while `taken_at` may advance
//! independently (lease refreshes re-stamp without re-versioning).

use marp_agent::AgentId;
use marp_core::lt::LockingTable;
use marp_replica::LlSnapshot;
use marp_sim::{NodeId, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SERVERS: NodeId = 5;

/// The keys of the multi-key properties: small ones and one past
/// 2^48, which the old packed `key << 16 | server` slots could not
/// carry.
const KEYS: [u64; 4] = [0, 1, 7, 1 << 50];

/// The queue a server's LL held at a given version — deterministic, so
/// equal versions always mean equal queues (the protocol's invariant).
fn queue_at(server: NodeId, version: u64) -> Vec<AgentId> {
    let len = ((version + u64::from(server)) % 4) as usize;
    (0..len)
        .map(|i| {
            let home = ((version + i as u64 * 3 + u64::from(server) * 7) % 8) as u16;
            AgentId::new(home, SimTime::from_millis(home as u64), 0)
        })
        .collect()
}

/// A snapshot of `server` at `version`, re-stamped `refresh` ms after the
/// version was minted (models lease refreshes: same content, later
/// `taken_at`).
fn snap_at(server: NodeId, version: u64, refresh: u64) -> LlSnapshot {
    LlSnapshot {
        version,
        taken_at: SimTime::from_millis(version * 1_000 + refresh),
        queue: queue_at(server, version),
    }
}

/// Per-server: does each side hold a snapshot, and at which point of the
/// server's history? `None` = no entry.
fn arb_entry() -> impl Strategy<Value = Option<(u64, u64)>> {
    proptest::option::of((0u64..12, 0u64..1_000))
}

fn arb_table_pair() -> impl Strategy<Value = (LockingTable, LockingTable)> {
    proptest::collection::vec((arb_entry(), arb_entry()), SERVERS as usize).prop_map(|entries| {
        let mut sender = LockingTable::new();
        let mut receiver = LockingTable::new();
        for (server, (s, r)) in entries.into_iter().enumerate() {
            let server = server as NodeId;
            if let Some((version, refresh)) = s {
                sender.merge(server, snap_at(server, version, refresh));
            }
            if let Some((version, refresh)) = r {
                receiver.merge(server, snap_at(server, version, refresh));
            }
        }
        (sender, receiver)
    })
}

/// A table pair per object key — each key's Locking Table evolves
/// independently (agents are key-uniform), and a host advertises each
/// key's horizon on its own.
fn arb_keyed_table_pairs() -> impl Strategy<Value = Vec<(u64, LockingTable, LockingTable)>> {
    proptest::collection::vec(arb_table_pair(), KEYS.len()).prop_map(|pairs| {
        KEYS.iter()
            .copied()
            .zip(pairs)
            .map(|(key, (s, r))| (key, s, r))
            .collect()
    })
}

/// What a sender remembers of a host's acks: per key, the plain
/// `server → snapshot version` horizon the host advertised last.
fn advertised_horizons(
    tables: &[(u64, LockingTable, LockingTable)],
) -> BTreeMap<u64, BTreeMap<NodeId, u64>> {
    tables
        .iter()
        .map(|(key, _, receiver)| (*key, receiver.horizon()))
        .collect()
}

/// The protocol-relevant projection of a table: version and queue per
/// server. `taken_at` is deliberately excluded — equal-version snapshots
/// differ only by lease-refresh timestamps, which no decision reads.
fn relevant(lt: &LockingTable) -> Vec<(NodeId, u64, Vec<AgentId>)> {
    lt.iter()
        .map(|(server, snap)| (server, snap.version, snap.queue.clone()))
        .collect()
}

proptest! {
    /// Obligation 1: the receiver ends in the same state whether the
    /// sender shipped its full table or only the delta above the
    /// receiver's horizon.
    #[test]
    fn delta_merge_equals_full_merge((sender, receiver) in arb_table_pair()) {
        let horizon = receiver.horizon();

        let mut full = receiver.clone();
        full.merge_table(&sender);

        let mut delta_table = sender.clone();
        delta_table.prune_covered_by(&horizon);
        let mut delta = receiver.clone();
        delta.merge_table(&delta_table);

        prop_assert_eq!(relevant(&delta), relevant(&full));
    }

    /// Obligation 2: dropping the destination's own entry before
    /// migrating is free, because the destination re-merges a snapshot
    /// of its live LL that is at least as new (versions are monotonic,
    /// and a snapshot taken on arrival is stamped no earlier than any
    /// older snapshot of the same LL).
    #[test]
    fn own_entry_drop_is_recovered_on_arrival(
        (sender, _) in arb_table_pair(),
        dest in 0..SERVERS,
        newer in 0u64..6,
        refresh in 0u64..1_000,
    ) {
        // The destination's live LL is `newer` versions ahead of
        // whatever the agent carries for it (0 = identical version, with
        // a re-stamp at least as late).
        let carried = sender.snapshot(dest).cloned();
        let base = carried.as_ref().map_or(0, |s| s.version);
        let live_refresh = match &carried {
            Some(s) if newer == 0 => (s.taken_at.as_millis() - s.version * 1_000) + refresh,
            _ => refresh,
        };
        let live = snap_at(dest, base + newer, live_refresh);

        let mut kept = sender.clone();
        kept.merge(dest, live.clone());

        let mut dropped = sender.clone();
        dropped.drop_server(dest);
        dropped.merge(dest, live);

        prop_assert_eq!(relevant(&dropped), relevant(&kept));
    }

    /// Pruning never invents entries and never keeps an entry the
    /// horizon covers.
    #[test]
    fn prune_keeps_exactly_the_uncovered((sender, receiver) in arb_table_pair()) {
        let horizon = receiver.horizon();
        let mut pruned = sender.clone();
        pruned.prune_covered_by(&horizon);
        for (server, snap) in sender.iter() {
            let kept = pruned.snapshot(server).is_some();
            let covered = horizon.get(&server).is_some_and(|&v| snap.version <= v);
            prop_assert_eq!(kept, !covered);
        }
        prop_assert!(pruned.known_servers() <= sender.known_servers());
    }

    /// Versioned snapshots survive the wire byte-for-byte, and so does a
    /// whole table.
    #[test]
    fn versioned_snapshot_roundtrips(
        server in 0..SERVERS,
        version in 0u64..1_000_000,
        refresh in 0u64..1_000,
    ) {
        let snap = snap_at(server, version, refresh);
        let bytes = marp_wire::to_bytes(&snap);
        prop_assert_eq!(marp_wire::from_bytes::<LlSnapshot>(&bytes).unwrap(), snap);
    }

    #[test]
    fn versioned_table_roundtrips((sender, _) in arb_table_pair()) {
        let bytes = marp_wire::to_bytes(&sender);
        prop_assert_eq!(marp_wire::from_bytes::<LockingTable>(&bytes).unwrap(), sender);
    }

    /// Multi-key obligation 1: each key's agent prunes against the
    /// horizon the host advertised for *its* key, and for every key the
    /// delta merge matches the full merge — another key's horizon is
    /// never consulted, so it can never wrongly prune this key's rows.
    #[test]
    fn per_key_delta_merge_equals_full_merge(tables in arb_keyed_table_pairs()) {
        let advertised = advertised_horizons(&tables);
        for (key, sender, receiver) in &tables {
            let horizon = &advertised[key];

            let mut full = receiver.clone();
            full.merge_table(sender);

            let mut delta_table = sender.clone();
            delta_table.prune_covered_by(horizon);
            let mut delta = receiver.clone();
            delta.merge_table(&delta_table);

            prop_assert_eq!(
                relevant(&delta),
                relevant(&full),
                "key {} diverged under per-key horizon pruning",
                key
            );
        }
    }
}
