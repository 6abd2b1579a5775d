//! The untraced rounds: every end-to-end metric, on two clocks.
//!
//! One process, one thread. A *pass* calls the product's public entry
//! point (`marp_lab::run_scenario_traced`, which is `run_scenario` plus
//! the trace it would otherwise drop) once per pooled seed. Passes repeat
//! until `--seconds` are used up, at least three times. Virtual-clock metrics
//! are a pure function of the seeds, so every pass must reproduce the
//! first one's [`Facts`] exactly; host-clock metrics take each seed's
//! *minimum* over the passes, because this box's noise is slow spells of
//! up to a few seconds that only ever add time (see README, "Minimum,
//! not median").

use crate::alloc::HeapMark;
use crate::facts::Facts;
use crate::rebuild;
use crate::report::{BenchError, Metric, Report, STORM_LIMIT};
use crate::stats;
use crate::workloads::Workload;
use marp_lab::{run_scenario_traced, Scenario};
use std::time::{Duration, Instant};

/// Fewest passes of a run: each seed's host time is its fastest of
/// these, which takes three to shrug off a slow spell reliably.
const MIN_PASSES: usize = 3;

/// One timed `run_scenario` call.
struct SeedRun {
    /// Its virtual-clock facts.
    pub facts: Facts,
    /// Host time of the call, the trace's drop included (as in
    /// `run_scenario`) and the benchmark's reading of it excluded.
    pub wall: Duration,
    /// Heap allocations during the call.
    pub allocs: u64,
    /// Peak live heap bytes during the call, above the level before it.
    pub peak_bytes: u64,
}

/// Run one scenario through the public entry point and time it.
fn run_seed(workload: &'static str, scenario: &Scenario) -> Result<SeedRun, BenchError> {
    let heap = HeapMark::now();
    let start = Instant::now();
    let (outcome, trace) = run_scenario_traced(scenario);
    let ran = start.elapsed();
    let facts = Facts::of_run(&outcome, &trace);
    let start = Instant::now();
    drop(trace);
    let wall = ran + start.elapsed();
    let heap = heap.since();
    if wall > STORM_LIMIT {
        return Err(BenchError::Storm {
            workload,
            seed: scenario.seed,
        });
    }
    Ok(SeedRun {
        facts,
        wall,
        allocs: heap.allocs,
        peak_bytes: heap.peak_bytes,
    })
}

/// One pass over a workload's pooled seeds.
struct Pass {
    /// Facts pooled over the seeds.
    pub facts: Facts,
    /// Host time of each seed's `run_scenario` call, in seed order.
    pub walls: Vec<Duration>,
    /// Heap allocations in them.
    pub allocs: u64,
    /// Mean over the seeds of each call's peak live bytes.
    pub mean_peak_bytes: f64,
}

/// Run every pooled seed once.
fn pass(workload: &'static Workload, base_seed: u64) -> Result<Pass, BenchError> {
    let mut out = Pass {
        facts: Facts::empty_pool(),
        walls: Vec::new(),
        allocs: 0,
        mean_peak_bytes: 0.0,
    };
    for seed in workload.pass_seeds(base_seed) {
        let run = run_seed(workload.name, &workload.scenario(seed))?;
        out.facts.pool(&run.facts);
        out.walls.push(run.wall);
        out.allocs += run.allocs;
        out.mean_peak_bytes += run.peak_bytes as f64 / workload.seeds as f64;
    }
    Ok(out)
}

/// Times constructing (not running) the workload's pooled simulations.
/// Rounds are taken in batches between the passes, so that a slow spell
/// cannot cover them all; `setup_s` is the fastest round.
struct SetupTimer {
    scenarios: Vec<Scenario>,
    /// Seconds per set of simulations, one entry per round.
    pub rounds: Vec<f64>,
}

impl SetupTimer {
    /// Rounds per batch.
    const BATCH: usize = 8;
    /// A round repeats the set until it has run this long, so the timed
    /// interval is milliseconds where one set is microseconds.
    const ROUND: Duration = Duration::from_millis(5);

    /// A timer for `workload`'s pass at `base_seed`.
    fn new(workload: &Workload, base_seed: u64) -> Self {
        SetupTimer {
            scenarios: workload
                .pass_seeds(base_seed)
                .map(|seed| workload.scenario(seed))
                .collect(),
            rounds: Vec::new(),
        }
    }

    /// Time one batch of rounds.
    fn batch(&mut self) {
        for _ in 0..Self::BATCH {
            let start = Instant::now();
            let mut sets = 0u32;
            while start.elapsed() < Self::ROUND {
                for scenario in &self.scenarios {
                    std::hint::black_box(rebuild::build(std::hint::black_box(scenario), None));
                }
                sets += 1;
            }
            self.rounds
                .push(start.elapsed().as_secs_f64() / f64::from(sets));
        }
    }
}

fn percentile_ms(name: &'static str, values: &[f64], q: f64) -> Result<Metric, BenchError> {
    let value = stats::percentile(values, q).map_err(|e| BenchError::TooFewSamples(name, e))?;
    Ok(Metric::new(name, value, "ms"))
}

/// The virtual-clock end-to-end metrics of pooled facts.
fn virtual_metrics(facts: &Facts) -> Result<Vec<Metric>, BenchError> {
    let commits = facts.completed as f64;
    Ok(vec![
        percentile_ms("commit_p50_ms", &facts.write_ms, 0.50)?,
        percentile_ms("commit_p95_ms", &facts.write_ms, 0.95)?,
        percentile_ms("op_p50_ms", &facts.op_ms(), 0.50)?,
        Metric::new("alt_mean_ms", facts.alt_sum_ms / commits, "ms"),
        Metric::new("att_mean_ms", facts.att_sum_ms / commits, "ms"),
        Metric::new(
            "commits_per_vsec",
            commits / facts.busy.as_secs_f64(),
            "1/s",
        ),
        Metric::new("bytes_per_commit", facts.bytes as f64 / commits, "B"),
        Metric::new("msgs_per_commit", facts.messages as f64 / commits, "count"),
    ])
}

/// Run the end-to-end mode: passes for `seconds`, set-up timing between.
pub fn run(
    workload: &'static Workload,
    base_seed: u64,
    seconds: f64,
) -> Result<Report, BenchError> {
    let started = Instant::now();
    let mut setup = SetupTimer::new(workload, base_seed);
    setup.batch();
    let first = pass(workload, base_seed)?;
    setup.batch();
    let pass_s = |walls: &[Duration]| walls.iter().sum::<Duration>().as_secs_f64();
    let mut pass_walls = vec![pass_s(&first.walls)];
    let mut fastest = first.walls.clone();
    // The fewest passes; then as many as still fit.
    while pass_walls.len() < MIN_PASSES
        || started.elapsed().as_secs_f64() + stats::minimum(&pass_walls) <= seconds
    {
        let again = pass(workload, base_seed)?;
        if again.facts != first.facts {
            return Err(BenchError::Nondeterministic {
                pass: pass_walls.len() + 1,
            });
        }
        for (fastest, wall) in fastest.iter_mut().zip(&again.walls) {
            *fastest = (*fastest).min(*wall);
        }
        pass_walls.push(pass_s(&again.walls));
        setup.batch();
    }

    let facts = &first.facts;
    let ops = facts.acked() as f64;
    let per_op_us = |seconds: f64| seconds * 1e6 / ops;
    let mut metrics = virtual_metrics(facts)?;
    metrics.extend([
        Metric::new("host_us_per_op", per_op_us(pass_s(&fastest)), "us"),
        Metric::new("allocs_per_op", first.allocs as f64 / ops, "count"),
        Metric::new("peak_live_mb", first.mean_peak_bytes / 1e6, "MB"),
        Metric::new("setup_s", stats::minimum(&setup.rounds), "s"),
    ]);

    let notes = vec![
        format!(
            "{}: seeds {}..+101x{}, {} passes in {:.1} s, virtual-clock facts identical in all",
            workload.name,
            base_seed,
            workload.seeds,
            pass_walls.len(),
            started.elapsed().as_secs_f64()
        ),
        format!(
            "samples: {} writes, {} reads; {} resends, {} abandoned",
            facts.write_ms.len(),
            facts.read_ms.len(),
            facts.retries,
            facts.abandoned
        ),
        format!(
            "host_us_per_op: {:.3} from each seed's fastest pass; whole passes min {:.3} median {:.3} max {:.3}",
            per_op_us(pass_s(&fastest)),
            per_op_us(stats::minimum(&pass_walls)),
            per_op_us(stats::median(&pass_walls)),
            per_op_us(pass_walls.iter().copied().fold(0.0, f64::max))
        ),
        format!(
            "setup_s: fastest of {} rounds; median {:.6} s",
            setup.rounds.len(),
            stats::median(&setup.rounds)
        ),
    ];
    Ok(Report::checked(workload, facts, metrics, notes))
}
