//! The experiment table: every figure of the paper's evaluation and
//! every extension experiment is one [`Experiment`] row, and the
//! `marp-lab` binary is a dispatcher over [`EXPERIMENTS`].
//!
//! Twelve rows are [`grid::Grid`]s — data for one runner; E12, E15, E16
//! and `smoke` are bespoke functions. Because [`Experiment::run`]
//! returns the text it would print, [`results`] regenerates or checks
//! `results/<name>.txt` from the same table.

mod backends;
mod chaos;
mod grid;
mod keyspace;
mod smoke;

use crate::{run_scenario_traced, ProtocolKind, Scenario};
use marp_agent::ItineraryPolicy;
use marp_sim::TraceLog;
use std::path::Path;

/// One runnable experiment.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Command name: `marp-lab <name>`.
    pub name: &'static str,
    /// What it reproduces, for `marp-lab list`.
    pub title: &'static str,
    /// Run it with its own flags and return exactly what it prints.
    /// Panics if an audit or the experiment's own assertion fails.
    pub run: fn(&[String]) -> String,
    /// The trace of its representative run, recorded on `--trace-out` /
    /// `--metrics-out`; `None` for an experiment that has no such run.
    pub trace: Option<fn(&[String]) -> TraceLog>,
    /// `results/<name>.txt` holds the output of `run(&[])`. False for
    /// output that is not a deterministic record.
    pub recorded: bool,
}

fn trace_of(scenario: &Scenario) -> TraceLog {
    run_scenario_traced(scenario).1
}

/// A [`grid::Grid`] as a table row.
macro_rules! grid {
    ($name:ident, $title:literal) => {
        Experiment {
            name: stringify!($name),
            title: $title,
            run: |_| grid::$name().run(),
            trace: Some(|_| trace_of(&grid::$name().representative())),
            recorded: true,
        }
    };
}

/// Every experiment, in presentation order.
pub const EXPERIMENTS: &[Experiment] = &[
    grid!(fig2_alt, "Figure 2 — average lock-acquisition time (ALT)"),
    grid!(fig3_att, "Figure 3 — average total update time (ATT)"),
    grid!(fig4_prk, "Figure 4 — % of locks obtained after K visits"),
    grid!(
        e5_wan_comparison,
        "E5 — MARP vs baselines as WAN latency grows"
    ),
    grid!(e6_scalability, "E6 — scaling the replica count"),
    grid!(e7_faults, "E7 — crash/recovery and transient outages"),
    grid!(e8_theorem3, "E8 — migration-bound validation"),
    grid!(e9_itinerary, "E9 — itinerary policy ablation"),
    grid!(e10_gossip, "E10 — information-sharing ablation"),
    grid!(e11_batching, "E11 — batch size ablation"),
    Experiment {
        name: "e12_backends",
        title: "E12 — DES vs threaded runtime cross-check (wall-clock)",
        run: backends::run,
        trace: Some(|_| backends::des_trace()),
        recorded: false,
    },
    grid!(e13_read_mix, "E13 — read-dominated mixes vs quorum reads"),
    grid!(
        e14_adaptive,
        "E14 — adaptive batching under bursty arrivals"
    ),
    Experiment {
        name: "e15_chaos",
        title: "E15 — randomized chaos sweep: exactly-once writes",
        run: chaos::run,
        trace: None,
        recorded: true,
    },
    Experiment {
        name: "e16_keyspace",
        title: "E16 — key distributions over the keyed store",
        run: keyspace::run,
        trace: Some(|args| trace_of(&keyspace::representative(args))),
        recorded: true,
    },
    Experiment {
        name: "smoke",
        title: "one small audited run per protocol and key MARP configuration",
        run: smoke::run,
        trace: Some(|_| trace_of(&smoke::representative())),
        recorded: false,
    },
];

fn marp(gossip: bool, itinerary: ItineraryPolicy, batch_max: usize) -> ProtocolKind {
    ProtocolKind::Marp {
        gossip,
        itinerary,
        batch_max,
    }
}

/// Regenerate `<dir>/<name>.txt` for every recorded experiment in
/// `experiments`, or with `check` compare instead: `Err` names each
/// stale file and its first differing line.
pub fn results(dir: &Path, check: bool, experiments: &[Experiment]) -> Result<(), String> {
    let mut stale = Vec::new();
    for experiment in experiments.iter().filter(|e| e.recorded) {
        let path = dir.join(format!("{}.txt", experiment.name));
        let text = (experiment.run)(&[]);
        if !check {
            std::fs::write(&path, text).map_err(|err| format!("{}: {err}", path.display()))?;
            continue;
        }
        let recorded = std::fs::read_to_string(&path).unwrap_or_default();
        if recorded != text {
            // Line count differs on an equal prefix: the first extra line.
            let line = recorded
                .lines()
                .zip(text.lines())
                .take_while(|(old, new)| old == new)
                .count();
            stale.push(format!(
                "{}:{}: recorded `{}`, `marp-lab {}` prints `{}`",
                path.display(),
                line + 1,
                recorded.lines().nth(line).unwrap_or("<end of file>"),
                experiment.name,
                text.lines().nth(line).unwrap_or("<end of output>"),
            ));
        }
    }
    if stale.is_empty() {
        Ok(())
    } else {
        Err(stale.join("\n"))
    }
}
