//! End-to-end benchmarks: full multi-replica MARP scenarios through the
//! discrete-event simulator, plus the migration codec hot path they
//! exercise.
//!
//! Four groups:
//!
//! * `e2e/commit-throughput` — complete 3/5/9-replica paper scenarios;
//!   throughput is reported per committed write.
//! * `e2e/migration` — encode/decode roundtrip of the Locking Table an
//!   agent ships on migration, full versus delta-pruned.
//! * `e2e/lt-merge` — merging a full travelling table into a resident
//!   one (the arrival path).
//! * `e2e/metric/*` — non-timing byte-accounting rows (see
//!   `criterion::record_metric`): total bytes per committed write and
//!   migrated agent-state bytes per committed write, with the Locking
//!   Table delta optimisation on and off. `docs/PERFORMANCE.md`
//!   explains how CI gates on the 5-replica row.
//!
//! Refresh the committed snapshot from the workspace root (the bench
//! binary runs with the package directory as its working directory, so
//! pin the path):
//!
//! ```text
//! CRITERION_JSON="$PWD/BENCH_e2e.json" cargo bench -p marp-bench --bench e2e
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use marp_agent::AgentId;
use marp_core::lt::LockingTable;
use marp_lab::{run_seeds, Scenario, SweepConfig, PAPER_SEEDS};
use marp_replica::LlSnapshot;
use marp_sim::{NodeId, SimTime};

/// The scale sweep's workload (`marp-trace sweep`: mean 25 ms, 10
/// requests per client), so `bytes-per-commit/n{3,5,9}` here are the
/// numbers `results/sweep_n3_n5_n9.json` records.
fn sweep_scenario(n: usize, lt_delta: bool) -> Scenario {
    let mut s = SweepConfig::full().scenario(n, 0);
    s.lt_delta = lt_delta;
    s
}

fn bench_commit_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2e/commit-throughput");
    group.sample_size(10);
    for n in [3usize, 5, 9] {
        let scenario = sweep_scenario(n, true);
        let commits = (scenario.requests_per_client as usize * n) as u64;
        group.throughput(Throughput::Elements(commits));
        group.bench_function(format!("n{n}"), |b| {
            b.iter(|| {
                let outcome = marp_lab::run_scenario(std::hint::black_box(&scenario));
                outcome.audit.assert_ok();
                assert_eq!(outcome.audit.committed_versions, commits);
                outcome.stats.bytes_sent
            })
        });
    }
    group.finish();
}

/// A travelling Locking Table as it looks mid-journey: one snapshot per
/// server, a few agents deep.
fn build_table(servers: usize) -> LockingTable {
    let mut lt = LockingTable::new();
    for server in 0..servers {
        let queue: Vec<AgentId> = (0..4u64)
            .map(|i| {
                AgentId::new(
                    ((server as u64 + i) % 7) as NodeId,
                    SimTime::from_millis(10 * i + server as u64),
                    i as u32,
                )
            })
            .collect();
        lt.merge(
            server as NodeId,
            LlSnapshot {
                version: 3 + server as u64,
                taken_at: SimTime::from_millis(100 + server as u64),
                queue,
            },
        );
    }
    lt
}

fn bench_migration_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2e/migration");
    for n in [3usize, 5, 9] {
        let full = build_table(n);
        let encoded = marp_wire::to_bytes(&full);
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        group.bench_function(format!("roundtrip/full-lt-n{n}"), |b| {
            b.iter(|| {
                let bytes = marp_wire::to_bytes(std::hint::black_box(&full));
                marp_wire::from_bytes::<LockingTable>(&bytes).unwrap()
            })
        });
    }
    // The delta an agent actually ships once the destination's horizon
    // covers all but the freshest snapshot.
    let mut delta = build_table(5);
    let mut horizon = build_table(5).horizon();
    let freshest = *horizon.keys().last().unwrap();
    horizon.remove(&freshest);
    delta.prune_covered_by(&horizon);
    assert_eq!(delta.known_servers(), 1);
    let encoded = marp_wire::to_bytes(&delta);
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("roundtrip/delta-lt-n5", |b| {
        b.iter(|| {
            let bytes = marp_wire::to_bytes(std::hint::black_box(&delta));
            marp_wire::from_bytes::<LockingTable>(&bytes).unwrap()
        })
    });
    group.finish();
}

fn bench_lt_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2e/lt-merge");
    for n in [5usize, 9] {
        let incoming = build_table(n);
        let resident = build_table(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("merge-table-n{n}"), |b| {
            b.iter(|| {
                let mut lt = resident.clone();
                lt.merge_table(std::hint::black_box(&incoming));
                lt.known_servers()
            })
        });
    }
    group.finish();
}

/// `total` per committed write, to the nearest whole (the sweep's
/// tables round the same way).
fn per_commit(total: u64, commits: u64) -> u128 {
    let commits = commits.max(1);
    u128::from((total + commits / 2) / commits)
}

/// Byte-accounting rows: the sweep's workload pooled over
/// [`PAPER_SEEDS`] at the paper's 5-replica configuration (plus 3 and 9
/// for scaling context), recorded as plain values rather than timings.
fn record_byte_metrics(_c: &mut Criterion) {
    for n in [3usize, 5, 9] {
        let outcomes = run_seeds(&sweep_scenario(n, true), PAPER_SEEDS, None);
        let mut commits = 0u64;
        let mut bytes = 0u64;
        let mut migrated = 0u64;
        for outcome in &outcomes {
            outcome.audit.assert_ok();
            commits += outcome.audit.committed_versions;
            bytes += outcome.stats.bytes_sent;
            migrated += outcome.stats.agent_bytes_migrated;
        }
        criterion::record_metric(
            format!("e2e/metric/bytes-per-commit/n{n}"),
            per_commit(bytes, commits),
        );
        criterion::record_metric(
            format!("e2e/metric/migrated-bytes-per-commit/n{n}/delta"),
            per_commit(migrated, commits),
        );
    }
    // The ablation the delta optimisation is judged by: identical N=5
    // runs with full-table shipping.
    let outcomes = run_seeds(&sweep_scenario(5, false), PAPER_SEEDS, None);
    let mut commits = 0u64;
    let mut migrated = 0u64;
    for outcome in &outcomes {
        outcome.audit.assert_ok();
        commits += outcome.audit.committed_versions;
        migrated += outcome.stats.agent_bytes_migrated;
    }
    criterion::record_metric(
        "e2e/metric/migrated-bytes-per-commit/n5/full",
        per_commit(migrated, commits),
    );
    // The keyed-store row: the same 5-replica cluster with writes
    // spread over two object keys, so mixed batches fan out into
    // per-key agents and the store keeps two disjoint version chains.
    // CI gates on this row alongside the single-key one — per-key
    // Locking Tables must not inflate the wire cost of a commit.
    let mut two_key = sweep_scenario(5, true);
    two_key.keys = marp_workload::KeyDist::Uniform { keys: 2 };
    let outcomes = run_seeds(&two_key, PAPER_SEEDS, None);
    let mut commits = 0u64;
    let mut bytes = 0u64;
    for outcome in &outcomes {
        outcome.audit.assert_ok();
        commits += outcome.audit.committed_versions;
        bytes += outcome.stats.bytes_sent;
    }
    criterion::record_metric(
        "e2e/metric/bytes-per-commit/n5-2key",
        per_commit(bytes, commits),
    );
}

criterion_group!(
    benches,
    bench_commit_throughput,
    bench_migration_codec,
    bench_lt_merge,
    record_byte_metrics,
);
criterion_main!(benches);
