//! What a benchmark invocation hands back: its metrics and checks, or
//! the reason it refuses to report.

use crate::facts::Facts;
use crate::stats::TooFewSamples;
use crate::workloads::Workload;
use std::time::Duration;

/// Host time after which one `run_scenario` call counts as a storm.
pub const STORM_LIMIT: Duration = Duration::from_secs(20);

/// Why the benchmark refuses to report a result.
#[derive(Debug)]
pub enum BenchError {
    /// One `run_scenario` call ran past [`STORM_LIMIT`].
    Storm {
        /// The workload.
        workload: &'static str,
        /// The seed.
        seed: u64,
    },
    /// A later pass did not reproduce the first pass's virtual-clock facts.
    Nondeterministic {
        /// The pass that differed (1-based).
        pass: usize,
    },
    /// A percentile was asked of too few samples.
    TooFewSamples(&'static str, TooFewSamples),
    /// The traced rebuild is not the simulation `run_scenario` ran.
    NotTransparent(String),
    /// The span ledger or a share identity does not add up.
    Ledger(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Storm { workload, seed } => write!(f, "storm: {workload} seed={seed}"),
            BenchError::Nondeterministic { pass } => write!(
                f,
                "determinism bug: pass {pass} changed a virtual-clock fact of pass 1"
            ),
            BenchError::TooFewSamples(metric, e) => write!(f, "{metric}: {e}"),
            BenchError::NotTransparent(what) => write!(f, "traced rebuild differs: {what}"),
            BenchError::Ledger(what) => write!(f, "ledger does not add up: {what}"),
        }
    }
}

/// A metric value with its unit, as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result of one benchmark invocation.
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations issued in one pass.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// The metrics of the selected mode.
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed above the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// The report of a run whose pooled facts are `facts`: applies the
    /// output checks and notes the ones that failed.
    pub fn checked(
        workload: &Workload,
        facts: &Facts,
        metrics: Vec<Metric>,
        mut notes: Vec<String>,
    ) -> Self {
        let failed_checks = output_checks(workload, facts);
        notes.extend(failed_checks.iter().map(|c| format!("CHECK FAILED: {c}")));
        Report {
            correct: failed_checks.is_empty(),
            attempted: facts.issued,
            failed: facts.failed(),
            metrics,
            notes,
        }
    }
}

/// The output checks every pass must meet. Returns the failed ones.
fn output_checks(workload: &Workload, facts: &Facts) -> Vec<String> {
    let mut failed = Vec::new();
    if !facts.audit_ok {
        failed.push("consistency audit found a violation".to_string());
    }
    if facts.lost_acked != 0 {
        failed.push(format!(
            "{} acknowledged writes were never applied",
            facts.lost_acked
        ));
    }
    if workload.fault_free {
        if facts.completed != facts.writes_arrived || facts.writes_arrived == 0 {
            failed.push(format!(
                "{} of {} writes completed on a fault-free workload",
                facts.completed, facts.writes_arrived
            ));
        }
        if facts.failed() != 0 {
            failed.push(format!(
                "{} of {} operations unanswered on a fault-free workload",
                facts.failed(),
                facts.issued
            ));
        }
    }
    failed
}
