//! Smoke runner: one small audited scenario per protocol plus the key
//! MARP configurations. Finishes in seconds; exits non-zero on any
//! violation, lost update, or committed write whose request span is
//! missing from the trace. Intended as the CI entry point.

use super::marp;
use crate::{run_scenario_traced, ProtocolKind, RunOutcome, Scenario};
use marp_agent::ItineraryPolicy::CostSorted;
use marp_obs::SpanSet;
use std::fmt::Write as _;

/// Run one row and append its result line; `ok` is the row's own pass
/// condition on top of a clean audit and a request span for every
/// committed write.
fn report(
    out: &mut String,
    name: &str,
    scenario: &Scenario,
    ok: impl FnOnce(&RunOutcome) -> bool,
) -> bool {
    let (outcome, trace) = run_scenario_traced(scenario);
    let uncovered = SpanSet::from_trace(&trace).uncovered_writes(&trace);
    let ok = ok(&outcome) && outcome.audit.ok() && uncovered.is_empty();
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
    for (request, home) in uncovered {
        let _ = writeln!(out, "  missing-span: request={request} node={home}");
    }
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

pub(super) fn run() -> String {
    let mut out = String::new();
    let mut all_ok = true;
    for (name, scenario) in [
        ("MARP", small(ProtocolKind::marp())),
        ("MARP gossip-off", small(marp(false, CostSorted, 1))),
        ("MARP batch-4", small(marp(true, CostSorted, 4))),
        ("MCV", small(ProtocolKind::Mcv)),
        ("Available Copy", small(ProtocolKind::AvailableCopy)),
        ("Weighted Voting", small(ProtocolKind::WeightedVoting)),
        ("Primary Copy", small(ProtocolKind::PrimaryCopy)),
    ] {
        all_ok &= report(&mut out, name, &scenario, |o| o.metrics.completed == 30);
    }
    // Fresh-read path.
    let mut fresh = small(ProtocolKind::marp());
    fresh.write_fraction = 0.5;
    fresh.fresh_reads = true;
    all_ok &= report(&mut out, "MARP fresh reads", &fresh, |o| {
        o.metrics.incomplete() == 0
    });

    assert!(all_ok, "smoke scenarios failed:\n{out}");
    out.push_str("\nall smoke scenarios clean\n");
    out
}
