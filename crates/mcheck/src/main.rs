//! `marp-mcheck` — CLI for the bounded exhaustive model checker.
//!
//! ```text
//! marp-mcheck check   [--family marp|mcv|pc] [--replicas N] [--agents N]
//!                     [--crashes N] [--chaos none|lifo|blind-acks|lifo-blind]
//!                     [--distinct-keys]
//!                     [--mail-loss none|notices|notices+reply|commits]
//!                     [--early-claims] [--preemptions N|full]
//!                     [--budget N|smoke] [--out FILE]
//! marp-mcheck replay  <FILE>
//! marp-mcheck sample  [model options] --out FILE
//! marp-mcheck selftest [--out FILE]
//! ```
//!
//! `check` explores the interleaving space and exits non-zero on an
//! invariant violation (writing the shrunk counterexample schedule to
//! `--out`, default `mcheck-counterexample.txt`). `replay` re-executes
//! a schedule file and reports the verdict. `sample` records the
//! canonical (zero-preemption) schedule, for seeding the regression
//! corpus. `selftest` proves the checker can catch a bug: it seeds the
//! `lifo-blind` protocol mutation, requires a violation to be found,
//! shrinks it, writes it (`--out`, default `target/mcheck-selftest.txt`)
//! and re-replays the shrunk schedule.

use marp_mcheck::{
    from_text, replay, schedule, shrink, to_text, CheckConfig, Explorer, Family, ModelSpec, Report,
};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: marp-mcheck <check|replay|sample|selftest> [options]\n\
         \n\
         check    [--family marp|mcv|pc] [--replicas N] [--agents N] [--crashes N]\n\
         \x20        [--chaos none|lifo|blind-acks|lifo-blind] [--distinct-keys]\n\
         \x20        [--mail-loss none|notices|notices+reply|commits]\n\
         \x20        [--early-claims] [--preemptions N|full] [--budget N|smoke]\n\
         \x20        [--depth N] [--timers N] [--out FILE]\n\
         replay   <FILE>\n\
         sample   [model options] --out FILE\n\
         selftest [--out FILE]"
    );
    ExitCode::from(2)
}

/// Options shared by `check`, `sample`, and `selftest`.
struct Opts {
    spec: ModelSpec,
    cfg: CheckConfig,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut family = Family::Marp;
    let mut replicas = 3usize;
    let mut agents = 2usize;
    let mut chaos = marp_core::ChaosMode::None;
    let mut distinct_keys = false;
    let mut mail_loss = marp_mcheck::MailLoss::None;
    let mut early_claims = false;
    let mut cfg = CheckConfig::default();
    let mut out = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--family" => {
                let v = value("--family")?;
                family = Family::parse(&v).ok_or_else(|| format!("unknown family {v}"))?;
            }
            "--replicas" => {
                replicas = value("--replicas")?
                    .parse()
                    .map_err(|_| "--replicas: not a number".to_string())?;
            }
            "--agents" => {
                agents = value("--agents")?
                    .parse()
                    .map_err(|_| "--agents: not a number".to_string())?;
            }
            "--crashes" => {
                cfg.max_crashes = value("--crashes")?
                    .parse()
                    .map_err(|_| "--crashes: not a number".to_string())?;
            }
            "--chaos" => {
                let v = value("--chaos")?;
                chaos =
                    schedule::parse_chaos(&v).ok_or_else(|| format!("unknown chaos mode {v}"))?;
            }
            "--preemptions" => {
                let v = value("--preemptions")?;
                cfg.preemption_bound = if v == "full" {
                    None
                } else {
                    Some(
                        v.parse()
                            .map_err(|_| "--preemptions: not a number".to_string())?,
                    )
                };
            }
            "--budget" => {
                let v = value("--budget")?;
                cfg.max_transitions = if v == "smoke" {
                    120_000
                } else {
                    v.parse()
                        .map_err(|_| "--budget: not a number".to_string())?
                };
            }
            "--depth" => {
                cfg.max_depth = value("--depth")?
                    .parse()
                    .map_err(|_| "--depth: not a number".to_string())?;
            }
            "--timers" => {
                cfg.max_timer_steps = value("--timers")?
                    .parse()
                    .map_err(|_| "--timers: not a number".to_string())?;
            }
            "--distinct-keys" => distinct_keys = true,
            "--mail-loss" => {
                let v = value("--mail-loss")?;
                mail_loss = marp_mcheck::MailLoss::parse(&v)
                    .ok_or_else(|| format!("unknown mail loss {v}"))?;
            }
            "--early-claims" => early_claims = true,
            "--out" => out = Some(value("--out")?),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_string()),
        }
    }
    let mut spec = ModelSpec::new(family, replicas, agents);
    spec.chaos = chaos;
    spec.distinct_keys = distinct_keys;
    spec.mail_loss = mail_loss;
    spec.early_claims = early_claims;
    Ok(Opts {
        spec,
        cfg,
        out,
        positional,
    })
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

fn write_counterexample(
    spec: &ModelSpec,
    shrunk: &[marp_mcheck::Choice],
    rules: &[&str],
    path: &str,
) -> ExitCode {
    let note = format!(
        "counterexample: violates {}\nreplay with: cargo run -p marp-mcheck -- replay {path}",
        rules.join(", ")
    );
    let text = to_text(spec, shrunk, &note);
    if let Err(e) = std::fs::write(path, &text) {
        eprintln!("error: cannot write {path}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "counterexample       : {} steps (shrunk), written to {path}",
        shrunk.len()
    );
    ExitCode::FAILURE
}

fn cmd_check(opts: &Opts) -> ExitCode {
    println!(
        "checking {} replicas={} agents={} keys={} chaos={} mail-loss={} early-claims={} crashes<={} preemptions={}",
        opts.spec.family.name(),
        opts.spec.replicas,
        opts.spec.agents,
        if opts.spec.distinct_keys {
            "distinct"
        } else {
            "shared"
        },
        schedule::chaos_name(opts.spec.chaos),
        opts.spec.mail_loss.name(),
        if opts.spec.early_claims { "on" } else { "off" },
        opts.cfg.max_crashes,
        opts.cfg
            .preemption_bound
            .map_or("full".to_string(), |b| b.to_string()),
    );
    let report = Explorer::new(opts.spec, opts.cfg).run();
    print_report(&report);
    match &report.violation {
        None => {
            println!("verdict              : no invariant violations");
            ExitCode::SUCCESS
        }
        Some(cx) => {
            let rules: Vec<&str> = cx.violations.iter().map(|v| v.rule).collect();
            println!("verdict              : VIOLATION ({})", rules.join(", "));
            for v in &cx.violations {
                println!("  {}: {}", v.rule, v.detail);
            }
            let shrunk = shrink(&opts.spec, cx);
            println!(
                "schedule             : {} steps, {} after shrinking",
                cx.schedule.len(),
                shrunk.len()
            );
            let out = opts.out.as_deref().unwrap_or("mcheck-counterexample.txt");
            write_counterexample(&opts.spec, &shrunk, &rules, out)
        }
    }
}

fn cmd_replay(file: &str) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let (spec, steps) = match from_text(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {file}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {} steps against {} replicas={} agents={} chaos={}",
        steps.len(),
        spec.family.name(),
        spec.replicas,
        spec.agents,
        schedule::chaos_name(spec.chaos),
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

/// Prove the checker catches a real bug: seed the `lifo-blind`
/// mutation (LIFO lock-queue insertion + unconditionally positive
/// update acks) and require the explorer to find, shrink, and replay a
/// violation.
fn cmd_selftest(opts: &Opts) -> ExitCode {
    let mut spec = ModelSpec::new(Family::Marp, 3, 2);
    spec.chaos = marp_core::ChaosMode::LlLifoBlindAcks;
    let cfg = CheckConfig::default();
    println!("selftest: exploring marp 3x2 with the lifo-blind mutation seeded");
    let report = Explorer::new(spec, cfg).run();
    let Some(cx) = &report.violation else {
        print_report(&report);
        eprintln!("selftest FAILED: seeded mutation was not caught");
        return ExitCode::FAILURE;
    };
    let rules: Vec<&str> = cx.violations.iter().map(|v| v.rule).collect();
    println!(
        "violation found after {} transitions ({}), schedule {} steps",
        report.transitions,
        rules.join(", "),
        cx.schedule.len()
    );
    let shrunk = shrink(&spec, cx);
    println!("shrunk to {} steps", shrunk.len());
    let out = opts.out.as_deref().unwrap_or("target/mcheck-selftest.txt");
    let text = to_text(
        &spec,
        &shrunk,
        &format!("selftest: violates {}", rules.join(", ")),
    );
    if let Some(dir) = std::path::Path::new(out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(out, &text) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    // Round-trip: the written file must still reproduce the violation.
    let (spec2, steps) = match from_text(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("selftest FAILED: wrote an unparseable schedule: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = replay(&spec2, &steps);
    if !outcome.violates(&rules) {
        eprintln!("selftest FAILED: shrunk schedule no longer reproduces {rules:?}");
        return ExitCode::FAILURE;
    }
    println!("selftest OK: caught, shrunk, written to {out}, and re-replayed");
    ExitCode::SUCCESS
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
