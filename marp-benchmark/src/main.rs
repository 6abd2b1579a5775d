//! `marp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's notes and every metric by name with its unit, then,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics. Without
//! `--workload`, every workload runs in turn. Exits non-zero if any
//! check fails.

use marp_benchmark::alloc::CountingAlloc;
use marp_benchmark::report::Report;
use marp_benchmark::{endtoend, layers, workloads};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 101,
        seconds: 12.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600 seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn print_report(report: &Report) {
    for note in &report.notes {
        println!("{note}");
    }
    for metric in &report.metrics {
        println!(
            "  {:<34} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("marp-benchmark: {message}");
            eprintln!(
                "usage: marp-benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&'static workloads::Workload> = match &args.workload {
        None => workloads::ALL.iter().collect(),
        Some(name) => match workloads::by_name(name) {
            Some(workload) => vec![workload],
            None => {
                let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                eprintln!(
                    "marp-benchmark: no workload {name}; choose from {}",
                    names.join(", ")
                );
                return ExitCode::from(2);
            }
        },
    };
    let mut all_correct = true;
    for workload in selected {
        let result = if args.trace {
            layers::run(workload, args.seed, args.seconds)
        } else {
            endtoend::run(workload, args.seed, args.seconds)
        };
        match result {
            Ok(report) => {
                if let Some(metric) = report.metrics.iter().find(|m| !m.value.is_finite()) {
                    eprintln!("marp-benchmark: {} is not a number", metric.name);
                    return ExitCode::FAILURE;
                }
                print_report(&report);
                all_correct &= report.correct;
            }
            // No result line: the run is not one to compare against.
            Err(error) => {
                eprintln!("marp-benchmark: {error}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
