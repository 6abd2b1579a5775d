//! Protocol data-structure microbenchmarks: Locking List operations,
//! Locking Table merges, the priority calculation, the Updated List an
//! arriving agent reads, and versioned-store commit application.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use marp_agent::AgentId;
use marp_core::lt::{decide, LockingTable};
use marp_replica::{CommitRecord, LlSnapshot, LockingList, UpdatedList, VersionedStore};
use marp_sim::{NodeId, SimTime};
use std::time::Duration;

fn agent(i: u32) -> AgentId {
    AgentId::new((i % 7) as NodeId, SimTime::from_millis(u64::from(i)), i)
}

fn bench_locking_list(c: &mut Criterion) {
    let lease = Duration::from_secs(30);
    let mut group = c.benchmark_group("structures/locking-list");
    group.bench_function("request-remove-64", |b| {
        b.iter(|| {
            let mut ll = LockingList::new();
            for i in 0..64 {
                ll.request(agent(i), SimTime::from_millis(u64::from(i)), lease, 0);
            }
            for i in 0..64 {
                ll.remove(agent(i));
            }
            ll.is_empty()
        })
    });
    let mut full = LockingList::new();
    for i in 0..64 {
        full.request(agent(i), SimTime::from_millis(u64::from(i)), lease, 0);
    }
    group.bench_function("snapshot-64", |b| {
        b.iter(|| std::hint::black_box(&full).snapshot(SimTime::from_secs(1)))
    });
    group.bench_function("purge-expired-64", |b| {
        b.iter(|| {
            let mut ll = full.clone();
            ll.purge_expired(SimTime::from_secs(60))
        })
    });
    group.finish();
}

fn build_table(servers: usize, queue_len: u32) -> LockingTable {
    let mut lt = LockingTable::new();
    for server in 0..servers {
        let queue: Vec<AgentId> = (0..queue_len)
            .map(|i| agent((i + server as u32) % queue_len.max(1)))
            .collect();
        lt.merge(
            server as NodeId,
            LlSnapshot {
                version: server as u64,
                taken_at: SimTime::from_millis(server as u64),
                queue,
            },
        );
    }
    lt
}

fn bench_locking_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("structures/locking-table");
    for (servers, queue) in [(5usize, 8u32), (15, 32)] {
        let lt = build_table(servers, queue);
        let other = build_table(servers, queue);
        let finished = UpdatedList::new();
        group.bench_function(format!("merge/{servers}x{queue}"), |b| {
            b.iter(|| {
                let mut base = lt.clone();
                base.merge_table(std::hint::black_box(&other));
                base
            })
        });
        group.bench_function(format!("decide/{servers}x{queue}"), |b| {
            b.iter(|| decide(std::hint::black_box(&lt), agent(0), servers, &finished, &[]))
        });
    }
    group.finish();
}

/// A server's Updated List after `n` commits, recorded in the order
/// COMMITs land: close to id order (ids sort by birth), with
/// neighbours overtaking each other.
fn updated_list(n: u32) -> UpdatedList {
    let mut ul = UpdatedList::new();
    for i in 0..n {
        let overtaken = i ^ 5; // a permutation within each block of 8
        ul.record(agent(overtaken), SimTime::from_millis(u64::from(i)));
    }
    ul
}

fn bench_updated_list(c: &mut Criterion) {
    let mut group = c.benchmark_group("structures/updated-list");
    for n in [64u32, 4096] {
        let full = updated_list(n);
        group.throughput(Throughput::Elements(u64::from(n)));
        group.bench_function(format!("record-{n}"), |b| {
            b.iter(|| updated_list(std::hint::black_box(n)).len())
        });
        group.bench_function(format!("contains-{n}"), |b| {
            b.iter(|| {
                let ul = std::hint::black_box(&full);
                (0..n).filter(|&i| ul.contains(agent(i))).count()
            })
        });
    }
    // One arrival: the agent's table names itself and three rivals, and
    // the host has 4096 commits behind it, theirs among them.
    let host = updated_list(4096);
    let lt = build_table(5, 4);
    let me = agent(0);
    let mut carried = UpdatedList::new();
    carried.record(agent(5_000), SimTime::from_millis(1));
    group.throughput(Throughput::Elements(1));
    group.bench_function("arrive-named3-of-4096", |b| {
        b.iter(|| {
            let mut ual = carried.clone();
            let asked = lt.roster().iter().copied().chain([me]);
            ual.absorb(std::hint::black_box(&host), asked);
            ual.contains(me)
        })
    });
    group.finish();
}

fn bench_versioned_store(c: &mut Criterion) {
    let records: Vec<CommitRecord> = (1..=10_000u64)
        .map(|version| CommitRecord {
            version,
            key: version % 128,
            value: version,
            agent: 7,
            request: version,
            committed_at: SimTime::from_millis(version),
        })
        .collect();
    let mut group = c.benchmark_group("structures/versioned-store");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("offer-in-order-10k", |b| {
        b.iter(|| {
            let mut store = VersionedStore::new();
            for record in std::hint::black_box(&records) {
                store.offer(record.clone(), SimTime::from_millis(record.version));
            }
            store.applied_version()
        })
    });
    group.bench_function("offer-reverse-10k", |b| {
        b.iter(|| {
            let mut store = VersionedStore::new();
            for record in std::hint::black_box(&records).iter().rev() {
                store.offer(record.clone(), SimTime::from_millis(record.version));
            }
            store.applied_version()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_locking_list,
    bench_locking_table,
    bench_updated_list,
    bench_versioned_store
);
criterion_main!(benches);
