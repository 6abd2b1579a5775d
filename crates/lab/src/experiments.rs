//! The experiment table: every figure of the paper's evaluation and
//! every extension experiment is one [`Experiment`] row, and the
//! `marp-lab` binary is a dispatcher over [`EXPERIMENTS`].
//!
//! Twelve rows are [`grid::Grid`]s — data for one runner; E12, E15, E16
//! and `smoke` are bespoke functions, and the two `sweep_*` rows are the
//! marp-prof scale sweep as a JSON document (`marp-trace diagnose` and
//! `diff` read it). Because [`Experiment::run`] returns the text it
//! would print, [`results`] regenerates or checks every row's file under
//! `results/` from the same table.

mod backends;
mod chaos;
mod grid;
mod keyspace;
mod smoke;

use crate::flags::flagless;
use crate::prof::{sweep_record, SweepConfig};
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
    /// Run it with its own flags and return exactly what it prints;
    /// `Err` names a flag it does not read. Panics if an audit or the
    /// experiment's own assertion fails.
    pub run: fn(&[String]) -> Result<String, String>,
    /// The trace of its representative run, recorded on `--trace-out`
    /// (with flags `run` accepted); `None` for an experiment that has no
    /// such run.
    pub trace: Option<fn(&[String]) -> TraceLog>,
    /// The file under `results/` that holds the output of `run(&[])`,
    /// byte for byte. `None` for output that is not a deterministic
    /// record.
    pub record: Option<&'static str>,
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
            run: |args| flagless(args, || grid::$name().run()),
            trace: Some(|_| trace_of(&grid::$name().representative())),
            record: Some(concat!(stringify!($name), ".txt")),
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
        run: |args| flagless(args, backends::run),
        trace: Some(|_| backends::des_trace()),
        record: None,
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
        record: Some("e15_chaos.txt"),
    },
    Experiment {
        name: "e16_keyspace",
        title: "E16 — key distributions over the keyed store",
        run: keyspace::run,
        trace: Some(|args| trace_of(&keyspace::representative(args))),
        record: Some("e16_keyspace.txt"),
    },
    Experiment {
        name: "smoke",
        title: "one small audited run per protocol and key MARP configuration",
        run: |args| flagless(args, smoke::run),
        trace: Some(|_| trace_of(&smoke::representative())),
        record: None,
    },
    // The files keep the names `marp-trace diff` and the docs know.
    Experiment {
        name: "sweep_smoke",
        title: "scale sweep, CI shape (N=3/5, two seeds): JSON for `marp-trace diagnose`",
        run: |args| flagless(args, || sweep_record(&SweepConfig::smoke())),
        trace: None,
        record: Some("sweep_smoke.json"),
    },
    Experiment {
        name: "sweep_n3_n5_n9",
        title: "scale sweep N=3/5/9, bytes per commit and exponents: JSON",
        run: |args| flagless(args, || sweep_record(&SweepConfig::full())),
        trace: None,
        record: Some("sweep_n3_n5_n9.json"),
    },
];

fn marp(gossip: bool, itinerary: ItineraryPolicy, batch_max: usize) -> ProtocolKind {
    ProtocolKind::Marp {
        gossip,
        itinerary,
        batch_max,
    }
}

/// Regenerate every recorded experiment's file under `dir`, or with
/// `check` compare instead: `Err` names each stale file and its first
/// differing line.
pub fn results(dir: &Path, check: bool, experiments: &[Experiment]) -> Result<(), String> {
    let mut stale = Vec::new();
    for experiment in experiments {
        let Some(file) = experiment.record else {
            continue;
        };
        let path = dir.join(file);
        let text = (experiment.run)(&[])?;
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
            let old = recorded.lines().nth(line).unwrap_or("<end of file>");
            let new = text.lines().nth(line).unwrap_or("<end of output>");
            stale.push(format!(
                "{}:{}: recorded `{}`, `marp-lab {}` prints `{}`",
                path.display(),
                line + 1,
                excerpt(old, new),
                experiment.name,
                excerpt(new, old),
            ));
        }
    }
    if stale.is_empty() {
        Ok(())
    } else {
        Err(stale.join("\n"))
    }
}

/// A differing line as the error shows it: a table row whole, a longer
/// line (a sweep's JSON is one) as the 80 bytes around the first one
/// where it and `other` part.
fn excerpt<'a>(line: &'a str, other: &str) -> &'a str {
    let same = line.bytes().zip(other.bytes()).take_while(|(a, b)| a == b);
    let start = same.count().saturating_sub(40);
    match line.get(start..(start + 80).min(line.len())) {
        Some(window) if line.len() > 200 => window,
        _ => line,
    }
}
