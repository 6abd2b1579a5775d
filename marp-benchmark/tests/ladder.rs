//! The ladder picks the right rung on synthetic latency tables,
//! including the growing-backlog rejection.

use marp_benchmark::ladder::{max_sustained_rate, sustained, Refusal, BACKLOG_RATIO, P95_LIMIT_MS};

/// 400 latencies in issue order: a flat level with a periodic spike.
fn flat(level_ms: f64, spike_ms: f64, spike_every: usize) -> Vec<f64> {
    (0..400)
        .map(|i| {
            if i % spike_every == 0 {
                spike_ms
            } else {
                level_ms
            }
        })
        .collect()
}

/// 400 latencies rising linearly from `from_ms` to `to_ms` in issue order.
fn ramp(from_ms: f64, to_ms: f64) -> Vec<f64> {
    (0..400)
        .map(|i| from_ms + (to_ms - from_ms) * i as f64 / 399.0)
        .collect()
}

#[test]
fn a_rung_is_judged_on_p95_and_on_backlog() {
    assert_eq!(sustained(&flat(10.0, 10.0, 1)), Ok(()));
    // 2.5 % of requests over the limit: p95 still under it.
    assert_eq!(sustained(&flat(10.0, 900.0, 40)), Ok(()));
    // 10 % over the limit: p95 is one of them.
    assert_eq!(
        sustained(&flat(10.0, 60.0, 10)),
        Err(Refusal::OverLimit(60.0))
    );
    assert_eq!(sustained(&flat(P95_LIMIT_MS, P95_LIMIT_MS, 1)), Ok(()));
    // Under the limit throughout, but the last quarter waits 3.3 times
    // as long as the first: the queue is growing.
    match sustained(&ramp(5.0, 30.0)) {
        Err(Refusal::GrowingBacklog(ratio)) => assert!(ratio > BACKLOG_RATIO, "{ratio}"),
        other => panic!("expected a growing backlog, got {other:?}"),
    }
    // A mild drift is not a backlog.
    assert_eq!(sustained(&ramp(10.0, 13.0)), Ok(()));
    // Too few samples to speak of a p95 at all.
    assert_eq!(
        sustained(&flat(1.0, 1.0, 1)[..100]),
        Err(Refusal::TooFewSamples)
    );
}

#[test]
fn the_ladder_stops_at_the_first_refused_rung() {
    let rates = [25.0, 50.0, 100.0, 125.0, 200.0];
    let mut measured = Vec::new();
    let climb = max_sustained_rate(&rates, |rate| {
        measured.push(rate);
        match rate as u32 {
            25 | 50 => flat(8.0, 8.0, 1),
            100 => flat(20.0, 45.0, 10),
            125 => ramp(10.0, 40.0), // under the limit, but backing up
            _ => flat(500.0, 500.0, 1),
        }
    });
    assert_eq!(climb.best, Some(100.0));
    // 200 writes/s is never simulated.
    assert_eq!(measured, vec![25.0, 50.0, 100.0, 125.0]);
    assert_eq!(climb.rungs.len(), 4);
    assert!(matches!(climb.rungs[3], (r, Err(Refusal::GrowingBacklog(_))) if r == 125.0));
}

#[test]
fn the_ladder_can_refuse_every_rung_or_none() {
    let rates = [25.0, 50.0];
    assert_eq!(
        max_sustained_rate(&rates, |_| flat(80.0, 80.0, 1)).best,
        None
    );
    assert_eq!(
        max_sustained_rate(&rates, |_| flat(8.0, 8.0, 1)).best,
        Some(50.0)
    );
    // A rung that recovers above a refused one does not count: the
    // answer is the highest rate reached without a refusal below it.
    let climb = max_sustained_rate(&[25.0, 50.0, 100.0], |rate| {
        if rate == 50.0 {
            flat(80.0, 80.0, 1)
        } else {
            flat(8.0, 8.0, 1)
        }
    });
    assert_eq!(climb.best, Some(25.0));
}
