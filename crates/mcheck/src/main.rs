//! `marp-mcheck` — CLI for the bounded exhaustive model checker. With no
//! command, or an option it cannot read, it prints its usage (the `USAGE`
//! text below) and exits 2.
//!
//! `check` explores the interleaving space and exits 1 on an invariant
//! violation, after shrinking it, writing the schedule to `--out`
//! (default `mcheck-counterexample.txt`) and replaying the written file
//! to prove it reproduces. `replay` re-executes a schedule file and
//! reports the verdict. `sample` records the canonical
//! (zero-preemption) schedule, for seeding the regression corpus.
//! `selftest` proves the checker can catch a bug: it seeds `chaos
//! stale-acks` (the model's network reports store version 0 in every
//! UPDATE acknowledgement) and requires `check`'s own path to catch the
//! resulting `version-conflict` (`--out`, default
//! `target/mcheck-selftest.txt`). Bad input — an unknown or
//! out-of-range option, an unreadable or malformed schedule file —
//! exits 2.
//!
//! The model flags are the schedule header's names after `--`
//! ([`ModelSpec::set`] reads both); `regeneration` is header-only.

use marp_mcheck::{
    from_text, replay, shrink, to_text, Chaos, CheckConfig, Choice, Explorer, Family, ModelSpec,
    Report,
};
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "usage: marp-mcheck <check|replay|sample|selftest> [options]\n\
    \n\
    check    [--family marp|mcv|pc] [--replicas N] [--agents N] [--crashes N]\n\
    \x20        [--chaos none|stale-acks] [--distinct-keys]\n\
    \x20        [--mail-loss none|notices|notices+reply|commits]\n\
    \x20        [--early-claims] [--preemptions N|full] [--budget N|smoke]\n\
    \x20        [--depth N] [--timers N] [--out FILE]\n\
    replay   <FILE>\n\
    sample   [model options] --out FILE\n\
    selftest [--out FILE]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Model options the command line sets, each a schedule-header name
/// after `--` ([`ModelSpec::set`] reads both). `regeneration` is
/// header-only.
const MODEL_FLAGS: [&str; 5] = ["family", "replicas", "agents", "chaos", "mail-loss"];

/// Model switches: header names after `--` that take no value and set
/// the header's `1`.
const MODEL_SWITCHES: [&str; 2] = ["distinct-keys", "early-claims"];

/// Options shared by `check`, `sample`, and `selftest`.
struct Opts {
    spec: ModelSpec,
    cfg: CheckConfig,
    out: Option<String>,
    positional: Vec<String>,
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag}: not a number"))
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut spec = ModelSpec::new(Family::Marp, 3, 2);
    let mut cfg = CheckConfig::default();
    let mut out = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--crashes" => cfg.max_crashes = number(arg, &value()?)?,
            "--preemptions" => {
                cfg.preemption_bound = match value()?.as_str() {
                    "full" => None,
                    v => Some(number(arg, v)?),
                }
            }
            "--budget" => {
                cfg.max_transitions = match value()?.as_str() {
                    "smoke" => 120_000,
                    v => number(arg, v)?,
                }
            }
            "--depth" => cfg.max_depth = number(arg, &value()?)?,
            "--timers" => cfg.max_timer_steps = number(arg, &value()?)?,
            "--out" => out = Some(value()?),
            other => match other.strip_prefix("--") {
                Some(name) if MODEL_SWITCHES.contains(&name) => spec.set(name, "1")?,
                Some(name) if MODEL_FLAGS.contains(&name) => spec.set(name, &value()?)?,
                Some(_) => return Err(format!("unknown option {other}")),
                None => positional.push(other.to_string()),
            },
        }
    }
    Ok(Opts {
        spec,
        cfg,
        out,
        positional,
    })
}

/// A model's options as `name=value` words, for the banners.
fn describe(spec: &ModelSpec) -> String {
    let words = spec.options().into_iter().map(|(n, v)| format!("{n}={v}"));
    words.collect::<Vec<_>>().join(" ")
}

fn print_report(report: &Report) {
    println!("transitions explored : {}", report.transitions);
    println!("maximal paths        : {}", report.paths);
    println!("  clean terminal     : {}", report.terminal_paths);
    println!("  stuck/budgeted     : {}", report.stuck_paths);
    println!("  depth-truncated    : {}", report.truncated_paths);
    println!("deepest path         : {}", report.max_depth_seen);
    println!(
        "bounded space        : {}",
        if report.complete {
            "fully explored"
        } else {
            "NOT exhausted (budget ran out)"
        }
    );
}

/// Read and parse a schedule file.
fn load(file: &str) -> Result<(ModelSpec, Vec<Choice>), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    from_text(&text).map_err(|e| format!("{file}: {e}"))
}

/// `check`'s path, which `selftest` takes too: explore; on a violation,
/// shrink it, write the schedule to `out`, and prove that the written
/// file, parsed back and replayed, still reproduces it. Returns whether
/// a violation was found.
fn check(spec: &ModelSpec, cfg: CheckConfig, out: &str) -> Result<bool, String> {
    println!(
        "checking {} crashes<={} preemptions={}",
        describe(spec),
        cfg.max_crashes,
        cfg.preemption_bound
            .map_or("full".to_string(), |b| b.to_string()),
    );
    let report = Explorer::new(*spec, cfg).run();
    print_report(&report);
    let Some(cx) = &report.violation else {
        println!("verdict              : no invariant violations");
        return Ok(false);
    };
    let rules: Vec<&str> = cx.violations.iter().map(|v| v.rule).collect();
    println!("verdict              : VIOLATION ({})", rules.join(", "));
    for v in &cx.violations {
        println!("  {}: {}", v.rule, v.detail);
    }
    let shrunk = shrink(spec, cx);
    println!(
        "schedule             : {} steps, {} after shrinking",
        cx.schedule.len(),
        shrunk.len()
    );
    let note = format!(
        "counterexample: violates {}\nreplay with: cargo run -p marp-mcheck -- replay {out}",
        rules.join(", ")
    );
    if let Some(dir) = std::path::Path::new(out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(out, to_text(spec, &shrunk, &note))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "counterexample       : {} steps (shrunk), written to {out}",
        shrunk.len()
    );
    let (spec, steps) = load(out)?;
    if !replay(&spec, &steps).violates(&rules) {
        return Err(format!("{out} does not reproduce {}", rules.join(", ")));
    }
    println!("replayed             : {out} reproduces it");
    Ok(true)
}

fn cmd_check(opts: &Opts) -> ExitCode {
    let out = opts.out.as_deref().unwrap_or("mcheck-counterexample.txt");
    match check(&opts.spec, opts.cfg, out) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_replay(file: &str) -> ExitCode {
    let (spec, steps) = match load(file) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {} steps against {}",
        steps.len(),
        describe(&spec)
    );
    let outcome = replay(&spec, &steps);
    println!(
        "applied {} steps ({} skipped), drained {} more, {} writes completed",
        outcome.steps_applied, outcome.steps_skipped, outcome.drained_steps, outcome.completed
    );
    println!(
        "claims held {}, claims aborted {}",
        outcome.held_claims, outcome.aborted_claims
    );
    let all = outcome.all_violations();
    if all.is_empty() {
        println!("verdict              : no invariant violations");
        ExitCode::SUCCESS
    } else {
        println!("verdict              : VIOLATION");
        for v in &all {
            println!("  {}: {}", v.rule, v.detail);
        }
        ExitCode::FAILURE
    }
}

fn cmd_sample(opts: &Opts) -> ExitCode {
    let Some(out) = opts.out.as_deref() else {
        eprintln!("error: sample needs --out FILE");
        return ExitCode::from(2);
    };
    let path = Explorer::new(opts.spec, opts.cfg).canonical_schedule();
    let outcome = replay(&opts.spec, &path);
    let note = format!(
        "canonical (zero-preemption) schedule; {} writes complete, {} violations",
        outcome.completed,
        outcome.all_violations().len()
    );
    let text = to_text(&opts.spec, &path, &note);
    if let Err(e) = std::fs::write(out, &text) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "wrote {} steps to {out} ({} writes completed, {} violations)",
        path.len(),
        outcome.completed,
        outcome.all_violations().len()
    );
    ExitCode::SUCCESS
}

/// Prove the checker catches a real bug: seed `stale-acks` (every
/// UPDATE acknowledgement reports store version 0, so winners number
/// their writes on top of nothing) and require `check`'s own path to
/// find, shrink, write and re-replay a violation.
fn cmd_selftest(opts: &Opts) -> ExitCode {
    let mut spec = ModelSpec::new(Family::Marp, 3, 2);
    spec.chaos = Chaos::StaleAcks;
    println!("selftest: the stale-acks bug is seeded; check must catch it");
    let out = opts.out.as_deref().unwrap_or("target/mcheck-selftest.txt");
    match check(&spec, CheckConfig::default(), out) {
        Ok(true) => {
            println!("selftest OK: caught, shrunk, written to {out}, and re-replayed");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("selftest FAILED: the seeded bug was not caught");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("selftest FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let opts = match parse_opts(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match cmd.as_str() {
        "check" => cmd_check(&opts),
        "replay" => match opts.positional.first() {
            Some(file) => cmd_replay(file),
            None => {
                eprintln!("error: replay needs a schedule file");
                usage()
            }
        },
        "sample" => cmd_sample(&opts),
        "selftest" => cmd_selftest(&opts),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_mcheck::MailLoss;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn every_model_flag_is_a_header_name() {
        // Every option but the header-only `regeneration`, off default.
        let mut spec = ModelSpec::new(Family::PrimaryCopy, 5, 4);
        spec.chaos = Chaos::StaleAcks;
        spec.distinct_keys = true;
        spec.mail_loss = MailLoss::Commits;
        spec.early_claims = true;
        let mut words = Vec::new();
        for (name, value) in spec.options() {
            words.push(format!("--{name}"));
            if !MODEL_SWITCHES.contains(&name) {
                words.push(value);
            }
        }
        let flags = MODEL_FLAGS.len() + MODEL_SWITCHES.len();
        assert_eq!(spec.options().len(), flags, "one flag per option");
        let parsed = parse_opts(&words).expect("every flag parses").spec;
        assert_eq!(parsed.options(), spec.options());
        assert!(parse_opts(&args(&["--regeneration", "0"])).is_err());
    }

    #[test]
    fn bad_model_flags_are_errors() {
        for bad in [
            &["--replicas", "0"][..],
            &["--agents", "0"],
            &["--family", "nope"],
            &["--chaos", "lifo"],
            &["--replicas"],
        ] {
            assert!(parse_opts(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
