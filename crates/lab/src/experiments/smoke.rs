//! Smoke runner: one small audited scenario per protocol plus the key
//! MARP configurations. Finishes in seconds; exits non-zero on any
//! violation or lost update. Intended as the CI entry point.

use super::marp;
use crate::{run_scenario, ProtocolKind, RunOutcome, Scenario};
use marp_agent::ItineraryPolicy::CostSorted;
use std::fmt::Write as _;

/// Append one result line; `ok` is the row's own pass condition on top
/// of a clean audit.
fn report(out: &mut String, name: &str, outcome: &RunOutcome, ok: bool) -> bool {
    let ok = ok && outcome.audit.ok();
    let _ = writeln!(
        out,
        "{:<28} {:>4} updates  {:>9} msgs  audit {}  {}",
        name,
        outcome.metrics.completed,
        outcome.stats.messages_sent,
        if outcome.audit.ok() {
            "clean"
        } else {
            "VIOLATED"
        },
        if ok { "ok" } else { "FAIL" },
    );
    ok
}

fn small(protocol: ProtocolKind) -> Scenario {
    let mut s = Scenario::paper(5, 20.0, 4242).with_protocol(protocol);
    s.requests_per_client = 6;
    s
}

/// The run `--trace-out` records: the first row.
pub(super) fn representative() -> Scenario {
    small(ProtocolKind::marp())
}

pub(super) fn run(_args: &[String]) -> String {
    let mut out = String::new();
    let mut all_ok = true;
    for (name, scenario) in [
        ("MARP", small(ProtocolKind::marp())),
        ("MARP gossip-off", small(marp(false, CostSorted, 1))),
        ("MARP batch-4", small(marp(true, CostSorted, 4))),
        ("MCV", small(ProtocolKind::Mcv)),
        ("Available Copy", small(ProtocolKind::AvailableCopy)),
        (
            "Weighted Voting",
            small(ProtocolKind::WeightedVoting {
                read_one_write_all: false,
            }),
        ),
        ("Primary Copy", small(ProtocolKind::PrimaryCopy)),
    ] {
        let outcome = run_scenario(&scenario);
        all_ok &= report(&mut out, name, &outcome, outcome.metrics.completed == 30);
    }
    // Fresh-read path.
    let mut fresh = small(ProtocolKind::marp());
    fresh.write_fraction = 0.5;
    fresh.fresh_reads = true;
    let outcome = run_scenario(&fresh);
    let complete = outcome.metrics.incomplete() == 0;
    all_ok &= report(&mut out, "MARP fresh reads", &outcome, complete);

    assert!(all_ok, "smoke scenarios failed:\n{out}");
    out.push_str("\nall smoke scenarios clean\n");
    out
}
