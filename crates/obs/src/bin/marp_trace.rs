//! `marp-trace` — inspect, profile, and diagnose recorded simulation
//! traces.
//!
//! A reader: it runs no simulation. `marp-lab` and the examples write
//! binary traces with `--trace-out <path>`, and the `sweep_*` rows of
//! the experiment table print a scale sweep's JSON record; the
//! inspection commands turn one trace into something viewable, and the
//! marp-prof commands (`aggregate`, `diff`, `diagnose`) answer *where
//! commit cost goes as the cluster grows*:
//!
//! ```text
//! marp-trace export <trace.bin> [out.json]   Chrome/Perfetto trace_event JSON
//! marp-trace journey <trace.bin>             per-agent plain-text timelines
//! marp-trace metrics <trace.bin> [out.csv]   per-node metrics registry as CSV
//! marp-trace critical-path <trace.bin>       commit-latency breakdown
//! marp-trace validate <out.json> <trace.bin> check an export against its trace
//! marp-trace aggregate <trace.bin> [...]     flamegraph-style span-path profile
//! marp-trace diff <before.json> <after.json> compare two profiles or two sweeps
//!                                            (--fail-steeper <metric,...>: fail on a risen exponent)
//! marp-trace diagnose <sweep.json> [...]     per-phase table + rule-based cliff diagnosis
//! ```

#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

use marp_obs::{
    load_trace, perfetto_export_string, CriticalPathReport, Diagnosis, Journeys, Json,
    MetricsRegistry, Profile, ProfileDiff, SpanSet, SweepDiff, SweepReport,
};
use marp_sim::{TraceEvent, TraceLog};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: marp-trace <command> <args>\n\
  \x20 export <trace.bin> [out.json]   write Chrome trace_event JSON (stdout if no path)\n\
  \x20 journey <trace.bin>             print per-agent journey timelines\n\
  \x20 metrics <trace.bin> [out.csv]   write per-node metrics CSV (stdout if no path)\n\
  \x20 critical-path <trace.bin>       print the commit-latency critical-path report\n\
  \x20 validate <out.json> <trace.bin> verify the JSON parses and covers every committed write\n\
  \x20 aggregate <trace.bin> [--json <out.json>] [--collapsed <out.txt>]\n\
  \x20                                 fold span trees into a span-path cost profile\n\
  \x20 diff <before.json> <after.json> [out.json] [--fail-steeper <metric,...>]\n\
  \x20                                 compare two aggregate profiles or two sweeps;\n\
  \x20                                 with --fail-steeper, fail if a named sweep metric's\n\
  \x20                                 growth exponent rose\n\
  \x20 diagnose <sweep.json> [out.json]\n\
  \x20                                 print a recorded sweep's per-phase scaling table\n\
  \x20                                 and its cliff diagnosis";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("export") => cmd_export(&args[1..]),
        Some("journey") => cmd_journey(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("critical-path") => cmd_critical(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("aggregate") => cmd_aggregate(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("diagnose") => cmd_diagnose(&args[1..]),
        Some(other) => Err(format!("unknown command '{other}'\n{USAGE}")),
        None => Err(String::from(USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("marp-trace: {message}");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<TraceLog, String> {
    load_trace(std::path::Path::new(path))
        .map_err(|err| format!("cannot load trace '{path}': {err}"))
}

fn load_json(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|err| format!("cannot read '{path}': {err}"))?;
    Json::parse(&text).map_err(|err| format!("invalid JSON in '{path}': {err}"))
}

fn emit(text: String, out: Option<&String>) -> Result<(), String> {
    match out {
        Some(path) => write_file(path, &text),
        None => {
            println!("{text}");
            Ok(())
        }
    }
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|err| format!("cannot write '{path}': {err}"))?;
    eprintln!("wrote {} bytes to {path}", text.len());
    Ok(())
}

/// Pull `--flag <value>` out of an argument list, returning the value.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("export: missing <trace.bin>")?;
    let trace = load(path)?;
    emit(perfetto_export_string(&trace), args.get(1))
}

fn cmd_journey(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("journey: missing <trace.bin>")?;
    let trace = load(path)?;
    print!("{}", Journeys::from_trace(&trace).render());
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("metrics: missing <trace.bin>")?;
    let trace = load(path)?;
    let registry = MetricsRegistry::from_trace(&trace, Duration::from_millis(100));
    emit(registry.to_csv(), args.get(1))
}

fn cmd_critical(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("critical-path: missing <trace.bin>")?;
    let trace = load(path)?;
    let report = CriticalPathReport::from_trace(&trace);
    print!("{}", report.render());
    if report.min_coverage() < 0.95 {
        return Err(format!(
            "coverage below 95%: {:.1}%",
            report.min_coverage() * 100.0
        ));
    }
    Ok(())
}

/// Check that an exported JSON document parses, and that the trace it
/// came from has a request span for every committed write. Each gap is
/// reported individually (`missing-span: request=.. node=..`) and the
/// summary line is grep-able (`validate FAIL:`).
fn cmd_validate(args: &[String]) -> Result<(), String> {
    let json_path = args.first().ok_or("validate: missing <out.json>")?;
    let trace_path = args.get(1).ok_or("validate: missing <trace.bin>")?;

    let doc = load_json(json_path)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("JSON has no traceEvents array")?;
    let span_events = events
        .iter()
        .filter(|e| matches!(e.get("ph").and_then(Json::as_str), Some("X") | Some("i")))
        .count();
    if span_events == 0 {
        return Err(String::from("export contains no span events"));
    }

    let trace = load(trace_path)?;
    let set = SpanSet::from_trace(&trace);
    let commits = trace.count(|e| matches!(e, TraceEvent::UpdateCompleted { .. }));
    let missing = set.uncovered_writes(&trace);
    if commits == 0 {
        return Err(String::from("trace has no committed writes"));
    }
    if !missing.is_empty() {
        for &(request, home) in &missing {
            println!("missing-span: request={request} node={home}");
        }
        return Err(format!(
            "validate FAIL: {} of {commits} committed write(s) have no request span",
            missing.len()
        ));
    }
    println!(
        "ok: {span_events} span event(s) in JSON, {commits} committed write(s) all covered, \
         {} span(s) reconstructed ({} unmatched end(s))",
        set.spans().len(),
        set.unmatched_ends
    );
    Ok(())
}

fn cmd_aggregate(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let json_out = take_flag(&mut args, "--json")?;
    let collapsed_out = take_flag(&mut args, "--collapsed")?;
    let path = args.first().ok_or("aggregate: missing <trace.bin>")?;
    let trace = load(path)?;
    let profile = Profile::from_trace(&trace);
    print!("{}", profile.render());
    if let Some(path) = json_out {
        write_file(&path, &profile.to_json().render())?;
    }
    if let Some(path) = collapsed_out {
        write_file(&path, &profile.collapsed())?;
    }
    Ok(())
}

/// How much a gated growth exponent may rise before `diff
/// --fail-steeper` fails. The sweep is deterministic, so any rise is a
/// real protocol change; the slack only absorbs the fit's 4-decimal
/// rounding.
const STEEPER_TOLERANCE: f64 = 0.001;

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let gated = take_flag(&mut args, "--fail-steeper")?;
    let before_path = args.first().ok_or("diff: missing <before.json>")?;
    let after_path = args.get(1).ok_or("diff: missing <after.json>")?;
    let before = load_json(before_path)?;
    let after = load_json(after_path)?;
    let schema = before.get("schema").and_then(Json::as_str).unwrap_or("");
    let mut steeper = Vec::new();
    let (text, json) = match schema {
        "marp-prof/profile/v1" => {
            let b = Profile::from_json(&before)
                .map_err(|err| format!("diff: '{before_path}': {err}"))?;
            let a =
                Profile::from_json(&after).map_err(|err| format!("diff: '{after_path}': {err}"))?;
            let diff = ProfileDiff::between(&b, &a);
            (diff.render(), diff.to_json())
        }
        "marp-prof/sweep/v1" => {
            let b = SweepReport::from_json(&before)
                .map_err(|err| format!("diff: '{before_path}': {err}"))?;
            let a = SweepReport::from_json(&after)
                .map_err(|err| format!("diff: '{after_path}': {err}"))?;
            let diff = SweepDiff::between(&b, &a);
            if let Some(gated) = &gated {
                let gated: Vec<&str> = gated.split(',').map(str::trim).collect();
                if let Some(unknown) = gated
                    .iter()
                    .find(|g| !diff.metrics.iter().any(|m| m.metric == **g))
                {
                    return Err(format!("diff: --fail-steeper: no sweep metric '{unknown}'"));
                }
                steeper = diff
                    .steepened(STEEPER_TOLERANCE)
                    .into_iter()
                    .filter(|m| gated.contains(&m.metric.as_str()))
                    .map(|m| format!("{} exponent {:?} -> {:?}", m.metric, m.before_k, m.after_k))
                    .collect();
            }
            (diff.render(), diff.to_json())
        }
        other => {
            return Err(format!(
                "diff: '{before_path}' has unsupported schema '{other}' \
                 (expected marp-prof/profile/v1 or marp-prof/sweep/v1)"
            ))
        }
    };
    print!("{text}");
    if let Some(path) = args.get(2) {
        write_file(path, &json.render())?;
    }
    if steeper.is_empty() {
        Ok(())
    } else {
        Err(format!("diff: steeper growth: {}", steeper.join("; ")))
    }
}

fn cmd_diagnose(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("diagnose: missing <sweep.json>")?;
    let doc = load_json(path)?;
    let report =
        SweepReport::from_json(&doc).map_err(|err| format!("diagnose: '{path}': {err}"))?;
    let diagnosis = Diagnosis::from_sweep(&report);
    print!("{}{}", report.render(), diagnosis.render());
    if let Some(out) = args.get(1) {
        write_file(out, &diagnosis.to_json().render())?;
    }
    Ok(())
}
