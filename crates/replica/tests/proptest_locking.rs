//! Property proofs for the keyed lock table.
//!
//! Theorem 1's mutual-exclusion argument leans on two structural facts
//! about the Locking Lists, which generalize per key:
//!
//! 1. **Per-key FIFO**: each key's queue holds the live agents in
//!    arrival order — re-requests refresh leases but never move an
//!    entry, removals close ranks without reordering survivors.
//! 2. **Key isolation**: a mutation under one key never changes the
//!    content or the content-version of any other key's queue, which is
//!    what lets agents for disjoint keys proceed independently (and
//!    lets a host advertise each key's horizon on its own).
//!
//! Both are checked against a naive model: one `Vec<AgentId>` of live
//! entries per key, maintained by replaying the same operations.

use marp_agent::AgentId;
use marp_replica::LockTable;
use marp_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

const LEASE_MS: u64 = 50;

/// One scripted mutation against the table.
#[derive(Debug, Clone)]
enum Op {
    /// Enqueue (or lease-refresh) agent `a` under `key` .
    Request { key: u64, a: u8 },
    /// Remove agent `a` from `key`'s queue.
    Remove { key: u64, a: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Listed twice to bias toward growth (the compat `prop_oneof!`
    // draws uniformly across arms).
    prop_oneof![
        (0u64..4, 0u8..8).prop_map(|(key, a)| Op::Request { key, a }),
        (0u64..4, 0u8..8).prop_map(|(key, a)| Op::Request { key, a }),
        (0u64..4, 0u8..8).prop_map(|(key, a)| Op::Remove { key, a }),
    ]
}

fn agent(a: u8) -> AgentId {
    AgentId::new(a as u16, SimTime::from_millis(a as u64), 0)
}

/// Live queue order per key according to the table.
fn table_order(table: &LockTable, key: u64) -> Vec<AgentId> {
    table
        .list(key)
        .map(|ll| ll.entries().iter().map(|e| e.agent).collect())
        .unwrap_or_default()
}

proptest! {
    /// Replaying any operation script, every key's queue matches the
    /// FIFO model and versions bump exactly on content changes.
    #[test]
    fn per_key_fifo_order_matches_the_model(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let mut table = LockTable::new();
        let mut model: BTreeMap<u64, Vec<AgentId>> = BTreeMap::new();
        // Outlives the script: every entry the model holds is live.
        let lease = Duration::from_secs(1);
        for (step, op) in ops.iter().enumerate() {
            let now = SimTime::from_millis(step as u64);
            // Key isolation: snapshot every *other* key before the op.
            let touched = match *op {
                Op::Request { key, .. } | Op::Remove { key, .. } => key,
            };
            let before: BTreeMap<u64, (u64, Vec<AgentId>)> = (0..4)
                .filter(|&k| k != touched)
                .map(|k| (k, (table.version(k), table_order(&table, k))))
                .collect();

            match *op {
                Op::Request { key, a } => {
                    table.request(key, agent(a), now, lease, 0);
                    let queue = model.entry(key).or_default();
                    // A repeat request refreshes but keeps the original
                    // position.
                    if !queue.contains(&agent(a)) {
                        queue.push(agent(a));
                    }
                }
                Op::Remove { key, a } => {
                    table.remove(key, agent(a));
                    model.entry(key).or_default().retain(|&x| x != agent(a));
                }
            }

            for key in 0..4u64 {
                let expect = model.get(&key).cloned().unwrap_or_default();
                prop_assert_eq!(
                    table_order(&table, key),
                    expect.clone(),
                    "key {} diverged at step {}",
                    key,
                    step
                );
                prop_assert_eq!(table.top(key, now), expect.first().copied());
                for (rank, &a) in expect.iter().enumerate() {
                    prop_assert_eq!(table.rank_of(key, a, now), Some(rank));
                }
            }
            for (key, (version, order)) in before {
                prop_assert_eq!(
                    table.version(key),
                    version,
                    "untouched key {} re-versioned at step {}",
                    key,
                    step
                );
                prop_assert_eq!(table_order(&table, key), order);
            }
        }
    }

    /// Lease expiry preserves arrival order among survivors, per key,
    /// and a lapsed entry has stopped ranking before it is purged.
    #[test]
    fn purge_keeps_survivors_in_fifo_order(
        arrivals in proptest::collection::vec((0u64..4, 0u8..8, 0u64..100), 1..40),
        purge_at in 0u64..200,
    ) {
        let mut table = LockTable::new();
        let lease = Duration::from_millis(LEASE_MS);
        let mut model: BTreeMap<u64, Vec<(AgentId, SimTime)>> = BTreeMap::new();
        for &(key, a, at) in &arrivals {
            let now = SimTime::from_millis(at);
            table.request(key, agent(a), now, lease, 0);
            let queue = model.entry(key).or_default();
            match queue.iter_mut().find(|(x, _)| *x == agent(a)) {
                // Repeats extend the lease in place.
                Some(entry) => entry.1 = entry.1.max(now + lease),
                None => queue.push((agent(a), now + lease)),
            }
        }
        let now = SimTime::from_millis(purge_at);
        let tops: Vec<Option<AgentId>> = (0..4).map(|key| table.top(key, now)).collect();
        table.purge_expired(now);
        for key in 0..4u64 {
            let survivors: Vec<AgentId> = model
                .get(&key)
                .map(|queue| {
                    queue
                        .iter()
                        .filter(|&&(_, expires)| expires > now)
                        .map(|&(a, _)| a)
                        .collect()
                })
                .unwrap_or_default();
            prop_assert_eq!(tops[key as usize], survivors.first().copied());
            prop_assert_eq!(table_order(&table, key), survivors);
        }
    }
}
