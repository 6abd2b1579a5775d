//! Wire-codec microbenchmarks: the cost of serializing protocol
//! messages and — critically — migrating agent state, which is the
//! per-hop overhead of the emulated code mobility: the agent as
//! dispatched, and the Locking Table it has filled mid-journey.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use marp_agent::AgentId;
use marp_core::lt::LockingTable;
use marp_core::{MarpConfig, NodeMsg, UpdateAgent, UpdateMsg};
use marp_replica::{CommitRecord, LlSnapshot, WriteRequest};
use marp_sim::{NodeId, SimTime};

fn sample_requests(count: usize) -> Vec<WriteRequest> {
    (0..count)
        .map(|i| WriteRequest {
            id: i as u64,
            client: 9,
            key: i as u64 % 4,
            value: i as u64 * 10,
            arrived: SimTime::from_millis(i as u64),
        })
        .collect()
}

fn bench_agent_state(c: &mut Criterion) {
    let cfg = MarpConfig::new(5);
    let mut group = c.benchmark_group("codec/agent-state");
    for batch in [1usize, 8, 32] {
        let agent = UpdateAgent::new(
            None,
            AgentId::new(0, SimTime::from_millis(1), 0),
            &cfg,
            sample_requests(batch),
        );
        let bytes = marp_wire::to_bytes(&agent);
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_function(format!("encode/batch{batch}"), |b| {
            b.iter(|| marp_wire::to_bytes(std::hint::black_box(&agent)))
        });
        group.bench_function(format!("decode/batch{batch}"), |b| {
            b.iter(|| marp_wire::from_bytes::<UpdateAgent>(std::hint::black_box(&bytes)).unwrap())
        });
    }
    group.finish();
}

/// A travelling Locking Table as it looks mid-journey: one snapshot per
/// server, four agents deep.
fn build_table(servers: u64) -> LockingTable {
    let mut lt = LockingTable::new();
    for server in 0..servers {
        let queued = |i: u64| {
            let born = SimTime::from_millis(10 * i + server);
            AgentId::new(((server + i) % 7) as NodeId, born, i as u32)
        };
        let snapshot = LlSnapshot {
            version: 3 + server,
            taken_at: SimTime::from_millis(100 + server),
            queue: (0..4).map(queued).collect(),
        };
        lt.merge(server as NodeId, snapshot);
    }
    lt
}

fn roundtrip(lt: &LockingTable) -> LockingTable {
    let bytes = marp_wire::to_bytes(std::hint::black_box(lt));
    marp_wire::from_bytes(&bytes).unwrap()
}

/// Encode + decode of the table a migrating agent ships: whole, and as
/// the delta left once the destination's horizon covers all but the
/// freshest snapshot.
fn bench_locking_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/locking-table");
    for n in [3u64, 5, 9] {
        let full = build_table(n);
        group.throughput(Throughput::Bytes(marp_wire::to_bytes(&full).len() as u64));
        group.bench_function(format!("roundtrip/full-n{n}"), |b| {
            b.iter(|| roundtrip(&full))
        });
    }
    let mut delta = build_table(5);
    let horizon = delta.horizon();
    let all_but_freshest = horizon.iter().count() - 1;
    delta.prune_covered_by(&horizon.iter().take(all_but_freshest).collect());
    assert_eq!(delta.known_servers(), 1);
    group.throughput(Throughput::Bytes(marp_wire::to_bytes(&delta).len() as u64));
    group.bench_function("roundtrip/delta-n5", |b| b.iter(|| roundtrip(&delta)));
    group.finish();
}

fn bench_protocol_messages(c: &mut Criterion) {
    let update = NodeMsg::Update(UpdateMsg {
        agent: AgentId::new(2, SimTime::from_millis(5), 1),
        attempt: 1,
        incarnation: 0,
        reply_to: 2,
        requests: sample_requests(4),
        tie_certificate: Some(vec![
            AgentId::new(1, SimTime::from_millis(3), 0),
            AgentId::new(3, SimTime::from_millis(4), 0),
        ]),
    });
    let commit_records: Vec<CommitRecord> = (0..4)
        .map(|i| CommitRecord {
            version: i + 1,
            key: i,
            value: i * 7,
            agent: 42,
            request: i,
            committed_at: SimTime::from_millis(i),
        })
        .collect();
    let commit = NodeMsg::Commit(marp_core::CommitMsg {
        agent: AgentId::new(2, SimTime::from_millis(5), 1),
        records: commit_records,
    });

    let mut group = c.benchmark_group("codec/messages");
    for (name, msg) in [("update", &update), ("commit", &commit)] {
        let bytes = marp_wire::to_bytes(msg);
        group.bench_function(format!("encode/{name}"), |b| {
            b.iter(|| marp_wire::to_bytes(std::hint::black_box(msg)))
        });
        group.bench_function(format!("decode/{name}"), |b| {
            b.iter(|| marp_wire::from_bytes::<NodeMsg>(std::hint::black_box(&bytes)).unwrap())
        });
    }
    group.finish();
}

fn bench_varints(c: &mut Criterion) {
    let values: Vec<u64> = (0..1024).map(|i| (i * 2654435761u64) % (1 << 40)).collect();
    c.bench_function("codec/varint/encode-1k", |b| {
        b.iter(|| {
            let mut buf = bytes::BytesMut::with_capacity(8 * 1024);
            for &v in std::hint::black_box(&values) {
                marp_wire::put_uvarint(&mut buf, v);
            }
            buf
        })
    });
}

criterion_group!(
    benches,
    bench_agent_state,
    bench_locking_table,
    bench_protocol_messages,
    bench_varints
);
criterion_main!(benches);
