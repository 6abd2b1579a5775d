//! `marp-lab` — run one experiment of the table, list them, or
//! regenerate / check the recorded outputs under `results/`.

use marp_lab::{results, Experiment, ObsOptions, EXPERIMENTS};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: marp-lab <experiment> [flags] [--trace-out <file>]\n\
  \x20      marp-lab list               print the experiment index\n\
  \x20      marp-lab results [--check]  rewrite every recorded experiment's file under\n\
  \x20                                  results/, or compare and fail on a stale one";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = ObsOptions::extract(&mut args);
    let (command, flags) = match args.split_first() {
        Some((command, flags)) => (command.as_str(), flags),
        None => ("", &[][..]),
    };
    let outcome = match (command, flags) {
        ("list", []) => {
            for e in EXPERIMENTS {
                let note = e.record.map_or("  [not recorded]", |_| "");
                println!("{:<18} {}{note}", e.name, e.title);
            }
            Ok(())
        }
        ("results", check) if check.is_empty() || check == ["--check"] => {
            results(Path::new("results"), !check.is_empty(), EXPERIMENTS)
        }
        _ => match EXPERIMENTS.iter().find(|e| e.name == command) {
            Some(experiment) => run(experiment, flags, &obs),
            None => Err(USAGE.to_string()),
        },
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("marp-lab: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Print the experiment's output, then honor `--trace-out` with its
/// representative run.
fn run(experiment: &Experiment, flags: &[String], obs: &ObsOptions) -> Result<(), String> {
    let traced = obs.trace_out.is_some();
    if traced && experiment.trace.is_none() {
        return Err(format!("{} has no run to trace", experiment.name));
    }
    let text = (experiment.run)(flags).map_err(|err| format!("{}: {err}", experiment.name))?;
    print!("{text}");
    if let (true, Some(trace)) = (traced, experiment.trace) {
        let written = obs
            .write(&trace(flags))
            .map_err(|err| format!("trace output failed: {err}"))?;
        if let Some(line) = written {
            eprintln!("{line}");
        }
    }
    Ok(())
}
