//! E15 — randomized chaos sweep: exactly-once writes under crashes.
//!
//! Generates hundreds of seeded random fault plans (crash-heavy,
//! network-heavy and mixed profiles from [`ChaosProfile`]) and runs the
//! full MARP stack through each with client retry and agent
//! regeneration enabled. After every run it asserts the robustness
//! contract:
//!
//! 1. the consistency audit is clean (order preservation, in-order
//!    application, duplicate-apply, Theorem 3 bounds);
//! 2. no acknowledged write was lost — every write acked to a client
//!    was applied by at least one replica;
//! 3. losses are never silent — a request the cluster could not finish
//!    shows up in the `abandoned` counter, not as a quiet shortfall.
//!
//! A violating run dumps a replayable artifact (plan parameters plus
//! the exact repro command) before the process aborts.
//!
//! Flags:
//!
//! * `--plans N` — number of random plans to sweep (default 600).
//! * `--ablate` — disable agent regeneration. The same sweep then
//!   demonstrably loses writes (abandoned > 0), proving the harness
//!   detects real losses; consistency must still hold and no lost
//!   write may have been acked.
//! * `--seed S --profile P` — replay one plan from a failure artifact.
//! * `--artifact-dir DIR` — where violation artifacts go
//!   (default `target/chaos`).

use crate::{run_sweep, RunOutcome, Scenario, PAPER_SEEDS};
use marp_metrics::Table;
use marp_net::{ChaosProfile, FaultPlan};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

const N_SERVERS: usize = 5;

/// The report's count columns, summed per profile and over the sweep.
const COUNTS: [&str; 7] = [
    "runs",
    "issued",
    "completed",
    "acked",
    "retries",
    "abandoned",
    "violations",
];

/// One planned chaos run.
struct PlanSpec {
    seed: u64,
    profile_name: &'static str,
    profile: ChaosProfile,
}

fn chaos_scenario(spec: &PlanSpec, regeneration: bool) -> Scenario {
    // Arrivals stretched across the whole ~20 s chaos window (profiles
    // schedule faults inside it), so crashes land on in-flight writes
    // rather than an idle cluster.
    let mut s = Scenario::paper(N_SERVERS, 1500.0, spec.seed);
    s.requests_per_client = 10;
    s.horizon = Some(Duration::from_secs(300));
    s.faults = Some(FaultPlan::random(N_SERVERS, spec.seed, &spec.profile));
    // Patience spanning a full crash + regeneration cycle: backoff
    // doubles from 2 s and caps at 16 s, so 8 attempts cover ~80 s.
    s.client_retry = Some((Duration::from_secs(2), 8));
    s.regeneration = regeneration;
    s
}

/// The deterministic plan list: profiles round-robin, seeds derived
/// from [`PAPER_SEEDS`] so the sweep is reproducible run to run.
fn plan_list(total: usize, only_profile: Option<&str>) -> Vec<PlanSpec> {
    let profiles = ChaosProfile::all();
    let mut plans = Vec::with_capacity(total);
    let mut k = 0u64;
    while plans.len() < total {
        let (profile_name, profile) = profiles[(k as usize) % profiles.len()].clone();
        let base = PAPER_SEEDS[(k as usize / profiles.len()) % PAPER_SEEDS.len()];
        let seed = marp_sim::splitmix64(base ^ (0x9e3779b97f4a7c15 ^ k));
        k += 1;
        if only_profile.is_some_and(|p| p != profile_name) {
            continue;
        }
        plans.push(PlanSpec {
            seed,
            profile_name,
            profile,
        });
    }
    plans
}

/// Check one run against the robustness contract. Returns the list of
/// failures (empty = clean).
fn check(outcome: &RunOutcome, ablate: bool) -> Vec<String> {
    let mut failures = Vec::new();
    if !outcome.audit.ok() {
        for v in &outcome.audit.violations {
            failures.push(format!("audit violation [{}]: {}", v.rule, v.detail));
        }
    }
    if !outcome.lost_acked_writes.is_empty() {
        failures.push(format!(
            "{} acknowledged writes never applied by any replica: {:x?}",
            outcome.lost_acked_writes.len(),
            outcome.lost_acked_writes
        ));
    }
    if !ablate {
        // With regeneration on, every issued write must end exactly one
        // way at its client: acknowledged, or loudly abandoned. Counted
        // there and not in `metrics.completed`, which counts
        // `UpdateCompleted` events — a regenerated agent and its
        // original can both emit one, and a write its client abandoned
        // can still commit later — so a vanished write could hide behind
        // any duplicate.
        let accounted = outcome.acked_writes + outcome.abandoned;
        if accounted != outcome.issued {
            failures.push(format!(
                "{} of {} issued writes vanished silently \
                 (acked {} + abandoned {})",
                outcome.issued.abs_diff(accounted),
                outcome.issued,
                outcome.acked_writes,
                outcome.abandoned
            ));
        }
    }
    failures
}

fn write_artifact(dir: &PathBuf, spec: &PlanSpec, ablate: bool, failures: &[String]) {
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!(
        "violation-{}-{:x}.txt",
        spec.profile_name, spec.seed
    ));
    let plan = FaultPlan::random(N_SERVERS, spec.seed, &spec.profile);
    let body = format!(
        "e15_chaos violation artifact\n\
         ============================\n\
         seed:     {:#x}\n\
         profile:  {}\n\
         servers:  {N_SERVERS}\n\
         ablate:   {ablate}\n\
         plan:     {:?}\n\n\
         failures:\n{}\n\n\
         reproduce with:\n\
         cargo run -p marp-lab --release -- e15_chaos \
         --seed {:#x} --profile {}{}\n",
        spec.seed,
        spec.profile_name,
        plan,
        failures
            .iter()
            .map(|f| format!("  - {f}"))
            .collect::<Vec<_>>()
            .join("\n"),
        spec.seed,
        spec.profile_name,
        if ablate { " --ablate" } else { "" },
    );
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("violation artifact written to {}", path.display()),
        Err(err) => eprintln!("failed to write artifact {}: {err}", path.display()),
    }
}

pub(super) fn run(args: &[String]) -> Result<String, String> {
    let mut plans = 600usize;
    let mut ablate = false;
    let mut seed: Option<u64> = None;
    let mut profile: Option<String> = None;
    let mut artifact_dir = PathBuf::from("target/chaos");
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} expects a value"));
        let number = |raw: &str| format!("{arg} expects a number, not {raw}");
        match arg.as_str() {
            "--plans" => {
                let raw = value()?;
                plans = raw.parse().map_err(|_| number(raw))?;
            }
            "--ablate" => ablate = true,
            "--seed" => {
                let raw = value()?;
                let parsed = raw
                    .strip_prefix("0x")
                    .map(|hex| u64::from_str_radix(hex, 16))
                    .unwrap_or_else(|| raw.parse());
                seed = Some(parsed.map_err(|_| number(raw))?);
            }
            "--profile" => profile = Some(value()?.to_string()),
            "--artifact-dir" => artifact_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }

    let specs: Vec<PlanSpec> = match seed {
        Some(seed) => {
            // Replay a single plan from a failure artifact.
            let name = profile.as_deref().unwrap_or("mixed");
            let (profile_name, profile) = ChaosProfile::all()
                .into_iter()
                .find(|(n, _)| *n == name)
                .ok_or(format!("unknown profile {name}"))?;
            vec![PlanSpec {
                seed,
                profile_name,
                profile,
            }]
        }
        None => plan_list(plans, profile.as_deref()),
    };

    let scenarios: Vec<Scenario> = specs
        .iter()
        .map(|spec| chaos_scenario(spec, !ablate))
        .collect();
    let outcomes = run_sweep(&scenarios, None);

    let mut by_profile: BTreeMap<&'static str, [u64; COUNTS.len()]> = BTreeMap::new();
    for (spec, outcome) in specs.iter().zip(&outcomes) {
        let failures = check(outcome, ablate);
        let counts = [
            1,
            outcome.issued,
            outcome.metrics.completed,
            outcome.acked_writes,
            outcome.retries,
            outcome.abandoned,
            !failures.is_empty() as u64,
        ];
        let sums = by_profile.entry(spec.profile_name).or_default();
        for (sum, count) in sums.iter_mut().zip(counts) {
            *sum += count;
        }
        if !failures.is_empty() {
            eprintln!(
                "VIOLATION in plan seed={:#x} profile={}:",
                spec.seed, spec.profile_name
            );
            for failure in &failures {
                eprintln!("  - {failure}");
            }
            write_artifact(&artifact_dir, spec, ablate, &failures);
        }
    }
    let total = |column: &str| -> u64 {
        let index = COUNTS.iter().position(|c| *c == column);
        let index = index.expect("a count column");
        by_profile.values().map(|sums| sums[index]).sum()
    };

    let mode = if ablate {
        "ablation: regeneration OFF"
    } else {
        "regeneration + client retry ON"
    };
    let mut table = Table::new(
        format!(
            "E15 — randomized chaos sweep, {} plans, N = {N_SERVERS} ({mode})",
            specs.len()
        ),
        &[&["profile"], &COUNTS[..]].concat(),
    );
    for (name, sums) in &by_profile {
        let mut row = vec![name.to_string()];
        row.extend(sums.iter().map(u64::to_string));
        table.row(row);
    }
    let mut out = format!("{}\n", table.render());

    let (violating_runs, issued) = (total("violations"), total("issued"));
    if ablate {
        // The ablation proves the harness has teeth: without
        // regeneration the cluster loses work — but it must still never
        // lie (audit clean, no acked write lost, losses all loud).
        assert_eq!(
            violating_runs, 0,
            "ablation may lose writes but must stay consistent"
        );
        assert!(
            total("abandoned") > 0 || total("completed") < issued,
            "ablation sweep lost nothing — the harness would be \
             insensitive to regeneration bugs"
        );
        let _ = writeln!(
            out,
            "(ablation lost {} of {} issued writes across the sweep — \
             the losses the regeneration path exists to prevent)",
            issued - total("completed"),
            issued
        );
    } else {
        assert_eq!(
            violating_runs,
            0,
            "{violating_runs} chaos plans violated the exactly-once \
             contract; see artifacts in {}",
            artifact_dir.display()
        );
        let _ = writeln!(
            out,
            "(all {} plans clean: no acked write lost, no duplicate \
             apply, no invariant violation; {} retries, {} abandoned \
             of {} issued)",
            specs.len(),
            total("retries"),
            total("abandoned"),
            issued
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_duplicate_completion_cannot_hide_an_unanswered_write() {
        let mut scenario = Scenario::paper(3, 40.0, 7);
        scenario.requests_per_client = 3;
        let mut outcome = crate::run_scenario(&scenario);
        assert!(check(&outcome, false).is_empty());
        // One write is reported complete twice (a regenerated agent and
        // its original)...
        outcome.metrics.completed += 1;
        // ...and another is neither answered nor abandoned.
        outcome.acked_writes -= 1;
        assert!(outcome.metrics.completed + outcome.abandoned >= outcome.issued);
        let failures = check(&outcome, false);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("1 of 9 issued writes vanished silently"));
        // The ablation arm is allowed to lose work.
        assert!(check(&outcome, true).is_empty());
    }

    /// What one plan of the sweep fails on, as `e15_chaos --seed
    /// <seed> --profile <profile>` runs it.
    fn plan_failures(seed: u64, profile_name: &'static str) -> Vec<String> {
        let profile = ChaosProfile::by_name(profile_name).expect("a profile");
        let spec = PlanSpec {
            seed,
            profile_name,
            profile,
        };
        check(&crate::run_scenario(&chaos_scenario(&spec, true)), false)
    }

    /// Network plans in which a lost COMMIT left servers that had
    /// acked it with a stale Locking-List top: they used to hand its
    /// version out twice (`order-preservation`, `version-conflict`).
    /// They now ask a peer and learn the commit; `0x5bbd…` also needs an
    /// ack to report a version its server holds only buffered.
    #[test]
    fn network_plans_that_lost_a_commit_stay_consistent() {
        for seed in [0xabd7_e5df_74a2_a202, 0x5bbd_fbc4_ecfc_dee8] {
            let failures = plan_failures(seed, "network");
            assert!(failures.is_empty(), "{seed:#x}: {failures:?}");
        }
    }

    /// Node 2 crashes and recovers, then a partition {0, 2} | {1, 3, 4}
    /// and 2 % loss. Agent `0x9` wins version 45. Node 2 has applied
    /// only up to 41 and can only buffer that COMMIT, yet retires the
    /// winner and ends its reservation all the same. A claimant parked
    /// behind `0x9` claims on its host's notice; node 2 acked it with
    /// its applied version 41, nodes 1 and 3 before the COMMIT reached
    /// them, and it committed its own write as version 45 too. An ack
    /// reports the highest version seen on the key's chain, buffered
    /// ones included, so the claimant numbers its write 46.
    #[test]
    fn a_mixed_plan_does_not_reuse_a_version_buffered_behind_a_gap() {
        let failures = plan_failures(0x3336_dfc8_af63_f0d1, "mixed");
        assert!(failures.is_empty(), "{failures:?}");
    }
}
