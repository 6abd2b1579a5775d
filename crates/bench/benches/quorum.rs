//! Coordination-kernel microbenchmarks: the per-reply cost of a
//! [`QuorumCall`] (every vote in every round of every protocol goes
//! through `offer`), the timer-tag mux operations that replace the old
//! hand-rolled `*_armed` flags, and the backoff arithmetic.

use criterion::{criterion_group, criterion_main, Criterion};
use marp_quorum::{QuorumCall, RetryPolicy, SuccessRule, TimerMux};
use marp_sim::SimTime;
use std::time::Duration;

fn bench_quorum_call(c: &mut Criterion) {
    let mut group = c.benchmark_group("quorum/call");
    for n in [5u16, 33, 129] {
        group.bench_function(format!("majority-round/n{n}"), |b| {
            b.iter(|| {
                let mut call: QuorumCall<u64> =
                    QuorumCall::majority(std::hint::black_box(n), SimTime::ZERO);
                for node in 0..n {
                    if call.offer_vote(node, true, u64::from(node)).is_some() {
                        break;
                    }
                }
                std::hint::black_box(call.verdict())
            })
        });
        group.bench_function(format!("weighted-round/n{n}"), |b| {
            let rule = SuccessRule::Weighted {
                total_votes: u32::from(n) * 2,
                threshold: u32::from(n) + 1,
            };
            b.iter(|| {
                let mut call: QuorumCall<u64> =
                    QuorumCall::new(rule, 0..std::hint::black_box(n), SimTime::ZERO);
                for node in 0..n {
                    if call
                        .offer(node, 2, node % 3 != 0, u64::from(node))
                        .is_some()
                    {
                        break;
                    }
                }
                std::hint::black_box(call.verdict())
            })
        });
    }
    // Duplicate replies are the hot no-op path under retried broadcasts.
    group.bench_function("duplicate-reply", |b| {
        let mut call: QuorumCall<u64> = QuorumCall::majority(33, SimTime::ZERO);
        call.offer_vote(0, true, 0);
        b.iter(|| std::hint::black_box(call.offer_vote(0, true, 0)))
    });
    group.finish();
}

marp_quorum::timer_kinds! {
    enum Timer { Round = 1, Retry = 2, Maintenance = 3 }
}

fn bench_timer_mux(c: &mut Criterion) {
    let mut group = c.benchmark_group("quorum/mux");
    group.bench_function("arm-fire-cycle", |b| {
        let mut mux = TimerMux::new();
        b.iter(|| {
            let tag = mux.arm(Timer::Round, std::hint::black_box(7));
            std::hint::black_box(mux.fired(tag))
        })
    });
    group.bench_function("stale-fire/16-armed", |b| {
        let mut mux = TimerMux::new();
        for epoch in 0..16 {
            mux.arm(Timer::Retry, epoch);
        }
        let stale = TimerMux::tag(Timer::Maintenance, 99);
        b.iter(|| std::hint::black_box(mux.fired(std::hint::black_box(stale))))
    });
    group.finish();
}

fn bench_retry_policy(c: &mut Criterion) {
    let policy = RetryPolicy::COORDINATOR.staggered(Duration::from_micros(500), 3, 0);
    c.bench_function("quorum/retry/next-delay", |b| {
        b.iter(|| std::hint::black_box(policy.next_delay(std::hint::black_box(7))))
    });
}

criterion_group!(
    benches,
    bench_quorum_call,
    bench_timer_mux,
    bench_retry_policy
);
criterion_main!(benches);
