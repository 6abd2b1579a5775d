//! Parallel sweep runner.
//!
//! Every scenario is an independent, deterministic simulation, so a
//! parameter sweep is embarrassingly parallel: scenarios are distributed
//! over worker threads (scoped threads pulling from a shared atomic
//! cursor), and results come back in input order.

use crate::scenario::{run_scenario, run_scenario_traced, RunOutcome, Scenario};
use marp_sim::TraceLog;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Shared fan-out skeleton: distribute scenarios over worker threads
/// pulling from an atomic cursor, collect results in input order.
fn fan_out<T, F>(scenarios: &[Scenario], workers: Option<usize>, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Scenario) -> T + Sync,
{
    let worker_count = workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .clamp(1, scenarios.len().max(1));

    if worker_count <= 1 || scenarios.len() <= 1 {
        return scenarios.iter().map(run).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = scenarios.iter().map(|_| Mutex::new(None)).collect();

    // A worker's panic resurfaces here, once all are joined.
    std::thread::scope(|scope| {
        for _ in 0..worker_count {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= scenarios.len() {
                    break;
                }
                let outcome = run(&scenarios[idx]);
                *slots[idx].lock().expect("poisoned slot") = Some(outcome);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("poisoned slot")
                .expect("every slot filled")
        })
        .collect()
}

/// Run all scenarios, fanning out across up to `workers` threads
/// (`None` = one per available core). Results are returned in the same
/// order as the input.
pub fn run_sweep(scenarios: &[Scenario], workers: Option<usize>) -> Vec<RunOutcome> {
    fan_out(scenarios, workers, run_scenario)
}

/// Like [`run_sweep`], but each run also hands back its recorded trace
/// (the profiling pipeline folds these into per-phase cost tables).
pub fn run_sweep_traced(
    scenarios: &[Scenario],
    workers: Option<usize>,
) -> Vec<(RunOutcome, TraceLog)> {
    fan_out(scenarios, workers, run_scenario_traced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn small(seed: u64) -> Scenario {
        let mut s = Scenario::paper(3, 30.0, seed);
        s.requests_per_client = 3;
        s
    }

    #[test]
    fn sweep_preserves_order_and_runs_all() {
        let scenarios = vec![small(1), small(2), small(3), small(4)];
        let outcomes = run_sweep(&scenarios, Some(3));
        assert_eq!(outcomes.len(), 4);
        for outcome in &outcomes {
            outcome.audit.assert_ok();
            assert_eq!(outcome.metrics.completed, 9);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let scenarios = vec![small(5), small(6)];
        let parallel = run_sweep(&scenarios, Some(2));
        let serial = run_sweep(&scenarios, Some(1));
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.metrics.completed, s.metrics.completed);
            assert_eq!(p.stats.messages_sent, s.stats.messages_sent);
            assert_eq!(p.metrics.mean_att_ms(), s.metrics.mean_att_ms());
        }
    }
}
