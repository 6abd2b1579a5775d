//! Protocol data-structure microbenchmarks: Locking List operations,
//! Locking Table merges, the priority calculation, the Updated List an
//! arriving agent reads, and versioned-store commit application.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use marp_agent::AgentId;
use marp_core::lt::{decide, LockingTable};
use marp_core::GossipBoard;
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
    bench_convoy(&mut group);
    group.finish();
}

/// `server`'s queue in a convoy at N = 9: those of `agents` that got
/// as far as this server — each queued at five of the nine, as a
/// majority walk leaves them — in arrival order. 58 agents make the
/// queues 30 to 34 deep.
fn convoy_snapshot(server: u32, agents: std::ops::Range<u32>, version: u64) -> LlSnapshot {
    LlSnapshot {
        version,
        taken_at: SimTime::from_millis(version),
        queue: agents
            .filter(|i| (server + 9 - i % 9) % 9 < 5)
            .map(agent)
            .collect(),
    }
}

/// What `cliff_n9` does to one agent's table: nine servers, queues some
/// 32 deep, the first 24 or so of each already finished.
fn bench_convoy(group: &mut criterion::BenchmarkGroup<'_>) {
    let mut lt = LockingTable::new();
    for server in 0..9 {
        lt.merge(server as NodeId, convoy_snapshot(server, 0..58, 1));
    }
    let mut finished = UpdatedList::new();
    for i in 0..43 {
        finished.record(agent(i), SimTime::from_millis(u64::from(i)));
    }
    // A parked agent re-reading its table on a change notice.
    group.bench_function("decide/9x32-finished-24", |b| {
        b.iter(|| decide(std::hint::black_box(&lt), agent(50), 9, &finished, &[]))
    });
    // An arrival: the visitor brings one row fresher than the board's,
    // the board holds one fresher than the visitor's.
    group.bench_function("exchange/9x32", |b| {
        let mut visitor = lt.clone();
        let mut board = GossipBoard::new();
        board.exchange(0, &mut lt.clone());
        let mut version = 1;
        b.iter(|| {
            version += 1;
            visitor.merge(0, convoy_snapshot(0, 0..58, version));
            let row = convoy_snapshot(1, 0..58, version);
            board.post(0, 1, row.version, row.taken_at, row.queue.into_iter());
            board.exchange(0, &mut visitor);
            visitor.known_servers()
        })
    });
    // A hop's whole Locking-Table cost at the destination: the agent
    // left its row for this server behind (`lt_delta`), reads the
    // server's queue back in and exchanges with the board.
    group.bench_function("arrival/9x32", |b| {
        let mut visitor = lt.clone();
        let mut board = GossipBoard::new();
        board.exchange(0, &mut lt.clone());
        let queue = convoy_snapshot(0, 0..58, 1).queue;
        let mut version = 1;
        b.iter(|| {
            version += 1;
            visitor.drop_server(0);
            let taken_at = SimTime::from_millis(version);
            visitor.offer_row(0, version, taken_at, queue.iter().copied());
            board.exchange(0, &mut visitor);
            visitor.known_servers()
        })
    });
    // An arriving agent's table decoded into the one a spare holds.
    group.bench_function("decode-into/9x32", |b| {
        let bytes = marp_wire::to_bytes(&lt);
        let mut spare = lt.clone();
        b.iter(|| marp_wire::from_bytes_into(&mut spare, std::hint::black_box(&bytes)))
    });
    // One row replaced by its successor: five agents gone from its head
    // (other rows still name them) and five newcomers at its tail — or,
    // every other time, the reverse, which takes the newcomers off the
    // roster again.
    group.bench_function("release/9x32", |b| {
        let mut table = lt.clone();
        let mut version = 1;
        b.iter(|| {
            version += 1;
            let from = (version % 2) as u32 * 9;
            table.merge(0, convoy_snapshot(0, from..from + 58, version));
            table.roster().len()
        })
    });
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
