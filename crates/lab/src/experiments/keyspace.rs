//! E16 — the keyspace generalization: throughput and lock latency as
//! the write stream spreads over many object keys.
//!
//! The paper's evaluation drives every write at a single object — the
//! maximum-contention case — so its figures say nothing about how the
//! protocol behaves when independent objects could commit
//! concurrently. With the keyed Locking Tables and per-key version
//! chains, agents for disjoint keys never share a lock queue, so
//! committed-writes/sec should scale with the number of independently
//! writable keys until clients, not locks, are the bottleneck.
//!
//! This experiment fixes N = 5 and the paper's heaviest arrival rate,
//! and sweeps the key distribution: the paper's single key, uniform
//! over 16 keys, Zipf-skewed, and a hotspot mix. For each it reports
//! aggregate ALT, committed writes per second (completed writes over
//! the makespan), and the speedup over the single-key baseline, then
//! breaks ALT and commit counts down per key. The single-key row *is*
//! the paper's workload (`KeyDist::Single` pins every request to key
//! 0), so the figures stay pinned to the published configuration.

use crate::{run_sweep_traced, Scenario, PAPER_SEEDS};
use marp_metrics::{fmt_ms, PaperMetrics, Samples, Table};
use marp_sim::{SimTime, TraceEvent, TraceLog};
use marp_workload::KeyDist;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Floor on the committed-writes/sec ratio of 16 uniform keys over the
/// paper's single key (see the assertion in `run`).
const MIN_SPEEDUP: f64 = 2.3;

/// One sweep arm: a key distribution under the paper's N = 5 cluster
/// at the heaviest arrival rate of the figure sweep.
fn scenario(keys: KeyDist, requests_per_client: u64, seed: u64) -> Scenario {
    let mut s = Scenario::paper(5, 5.0, seed);
    s.keys = keys;
    s.requests_per_client = requests_per_client;
    s
}

/// Per-key and aggregate results pooled over the seeds of one arm.
#[derive(Default)]
struct ArmResult {
    metrics: PaperMetrics,
    /// Sum of per-seed makespans (first arrival to last completion) in
    /// seconds; throughput = completed / makespan.
    makespan_s: f64,
    /// ALT of every commit, by key.
    per_key_alt: BTreeMap<u64, Samples>,
}

impl ArmResult {
    fn writes_per_sec(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.metrics.completed as f64 / self.makespan_s
    }
}

/// Fold one run's trace into the arm's per-key view: join each
/// completed update to its key through the `CommitApplied` record of
/// the same request id, and clock the makespan from first request
/// arrival to last completion.
fn fold(arm: &mut ArmResult, trace: &TraceLog) {
    let mut key_of_request: HashMap<u64, u64> = HashMap::new();
    for record in trace.records() {
        if let TraceEvent::CommitApplied { request, key, .. } = record.event {
            key_of_request.insert(request, key);
        }
    }
    let mut first_arrival: Option<SimTime> = None;
    let mut last_completion: Option<SimTime> = None;
    for record in trace.records() {
        match record.event {
            TraceEvent::RequestArrived { write: true, .. } => {
                first_arrival.get_or_insert(record.at);
            }
            TraceEvent::UpdateCompleted {
                request,
                dispatched,
                locked,
                ..
            } => {
                let alt = locked.saturating_since(dispatched).as_secs_f64() * 1e3;
                last_completion = Some(record.at);
                // A request that completed without any replica applying
                // it would be an exactly-once violation; the audit
                // would already have failed.
                if let Some(&key) = key_of_request.get(&request) {
                    arm.per_key_alt.entry(key).or_default().push(alt);
                }
            }
            _ => {}
        }
    }
    if let (Some(first), Some(last)) = (first_arrival, last_completion) {
        arm.makespan_s += last.saturating_since(first).as_secs_f64();
    }
}

/// `--test` is the CI shape: fewer requests, one seed.
///
/// The workload is open-loop, so the single-key arm runs far past
/// saturation and its lock queue — and the cost of every migration that
/// snapshots it — grows with every request; the request count stays
/// modest so the maximum-contention arm stays tractable.
fn shape(args: &[String]) -> (u64, &'static [u64]) {
    if args.iter().any(|a| a == "--test") {
        (40, &PAPER_SEEDS[..1])
    } else {
        (60, PAPER_SEEDS)
    }
}

/// The run `--trace-out` records: the uniform-16 arm's first seed.
pub(super) fn representative(args: &[String]) -> Scenario {
    let (requests_per_client, seeds) = shape(args);
    scenario(KeyDist::Uniform { keys: 16 }, requests_per_client, seeds[0])
}

pub(super) fn run(args: &[String]) -> Result<String, String> {
    if let Some(flag) = args.iter().find(|a| *a != "--test") {
        return Err(format!("unknown flag {flag}"));
    }
    let (requests_per_client, seeds) = shape(args);

    let hotspot = KeyDist::Hotspot {
        keys: 16,
        hot_fraction: 0.5,
    };
    let arms = [
        ("single (paper)", KeyDist::Single),
        ("uniform 16", KeyDist::Uniform { keys: 16 }),
        ("zipf 16 s=1.2", KeyDist::Zipf { keys: 16, s: 1.2 }),
        ("hotspot 16 50%", hotspot),
    ];
    // Every arm at every seed in one fan-out.
    let scenarios: Vec<Scenario> = arms
        .iter()
        .flat_map(|(_, keys)| {
            seeds
                .iter()
                .map(move |&seed| scenario(keys.clone(), requests_per_client, seed))
        })
        .collect();
    let runs = run_sweep_traced(&scenarios, None);
    let mut results: Vec<ArmResult> = runs
        .chunks(seeds.len())
        .map(|arm_runs| {
            let mut arm = ArmResult::default();
            for (outcome, trace) in arm_runs {
                outcome.audit.assert_ok();
                arm.metrics.merge(&outcome.metrics);
                fold(&mut arm, trace);
            }
            arm
        })
        .collect();

    let mut table = Table::new(
        "E16 — key distributions (N = 5, 5 ms mean inter-arrival, write-only)",
        &[
            "keys",
            "completed",
            "ALT (ms)",
            "p95 ALT (ms)",
            "writes/s",
            "vs single",
        ],
    );
    let single_wps = results[0].writes_per_sec();
    for ((label, _), arm) in arms.iter().zip(&mut results) {
        let wps = arm.writes_per_sec();
        table.row(vec![
            label.to_string(),
            arm.metrics.completed.to_string(),
            fmt_ms(arm.metrics.mean_alt_ms()),
            fmt_ms(arm.metrics.alt_ms.quantile(0.95)),
            format!("{wps:.0}"),
            format!("{:.2}x", wps / single_wps.max(f64::MIN_POSITIVE)),
        ]);
    }
    let mut out = format!("{}\n", table.render());

    // Per-key breakdown: uniform spreads evenly, Zipf and hotspot pile
    // commits (and queueing) onto the low keys while the tail stays
    // nearly contention-free.
    let mut breakdown = Table::new(
        "E16 — per-key commits and ALT",
        &[
            "key",
            "uniform n",
            "uniform ALT",
            "zipf n",
            "zipf ALT",
            "hotspot n",
            "hotspot ALT",
        ],
    );
    for key in 0..16u64 {
        let mut row = vec![key.to_string()];
        for arm in &results[1..] {
            let alt = arm.per_key_alt.get(&key);
            row.push(alt.map_or("-".to_string(), |s| s.len().to_string()));
            row.push(fmt_ms(alt.and_then(Samples::mean)));
        }
        breakdown.row(row);
    }
    let _ = writeln!(out, "{}", breakdown.render());

    let uniform_wps = results[1].writes_per_sec();
    let speedup = uniform_wps / single_wps.max(f64::MIN_POSITIVE);
    let _ = writeln!(
        out,
        "uniform-16 over single-key: {speedup:.2}x committed-writes/sec ({uniform_wps:.0} vs {single_wps:.0})"
    );
    // The keyed protocol's headline claim: disjoint keys commit
    // concurrently, so spreading the same offered load over 16 keys
    // must lift saturation throughput severalfold. The floor was 3x
    // until the pipelined lock handoff made the *single-key* arm faster
    // (256 -> 313 committed writes/s in --test mode, 252 -> 303 in the
    // full sweep; the 16-key arm unchanged at ~805 / ~825): the
    // measured ratio is now 2.57x (--test) and 2.72x (full sweep).
    assert!(
        speedup >= MIN_SPEEDUP,
        "expected >= {MIN_SPEEDUP}x committed-writes/sec from 16 uniform keys over one key \
         (measured 2.57x since the pipelined handoff sped the single-key arm up), got {speedup:.2}x\n{out}"
    );
    Ok(out)
}
