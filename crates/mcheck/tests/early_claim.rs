//! The early-claim schedule family: COMMITs travel slowly, so the next
//! winner — told by its own host — claims while the previous COMMIT is
//! still on its way to the other servers. Those servers must *hold* the
//! early UPDATE and answer it when the COMMIT lands; Theorems 1–3 and
//! exactly-once must hold on every interleaving around that path, with
//! and without a crash in the middle of it. (A held claim lives inside
//! the reservation it waits behind, so none can outlive it; that no
//! claimant waits behind its *own* reservation is the state invariant
//! `held-behind-itself`, checked after every step.)

use marp_mcheck::{early_claim_crash_schedule, replay, CheckConfig, Explorer, Family, ModelSpec};

/// 5 replicas × 2 writers: the winner claims from the host its
/// successor parks on behind it, so the successor's UPDATE races the
/// winner's COMMIT on the same links — which a slow COMMIT does not
/// hold in order.
fn early() -> ModelSpec {
    let mut spec = ModelSpec::new(Family::Marp, 5, 2);
    spec.early_claims = true;
    spec
}

#[test]
fn the_canonical_schedule_hands_the_lock_over_through_held_claims() {
    let spec = early();
    let schedule = Explorer::new(spec, CheckConfig::default()).canonical_schedule();
    let outcome = replay(&spec, &schedule);
    assert_eq!(outcome.completed, 2);
    assert!(outcome.all_violations().is_empty());
    assert_eq!(outcome.drained_steps, 0, "the schedule itself completes");
    // The winner claimed from the host the successor parked on behind
    // it, and its reservation stands at a majority. The successor's
    // claim is held wherever that reservation still stands — everywhere
    // but the shared host, which applied the COMMIT first — and never
    // aborts.
    assert_eq!(outcome.held_claims, 2);
    assert_eq!(outcome.aborted_claims, 0);
    // Without the family's slow COMMITs the same model never races.
    let mut faithful = spec;
    faithful.early_claims = false;
    let schedule = Explorer::new(faithful, CheckConfig::default()).canonical_schedule();
    assert_eq!(replay(&faithful, &schedule).held_claims, 0);
}

#[test]
fn invariants_hold_on_every_interleaving_around_the_early_claim() {
    let report = Explorer::new(early(), CheckConfig::default()).run();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete, "budget ran out");
    assert!(report.terminal_paths > 0);
    assert_eq!(report.stuck_paths, 0);
}

#[test]
fn invariants_hold_with_a_crash_anywhere_along_the_way() {
    let cfg = CheckConfig {
        max_crashes: 1,
        max_transitions: 30_000,
        ..CheckConfig::default()
    };
    let report = Explorer::new(early(), cfg).run();
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.terminal_paths > 0);
}

/// Crash each replica in turn at the moment the early claim is first
/// held — the committed winner's host mid-COMMIT, the servers holding
/// the claim, the claimant's own host — and require the drain to finish
/// both writes exactly once.
#[test]
fn a_crash_while_a_claim_is_held_loses_nothing() {
    let spec = early();
    for victim in 0..5 {
        let schedule = early_claim_crash_schedule(&spec, victim);
        let outcome = replay(&spec, &schedule);
        assert!(
            outcome.all_violations().is_empty(),
            "victim {victim}: {:?}",
            outcome.all_violations()
        );
        assert_eq!(outcome.completed, 2, "victim {victim}");
        // The drain after the crash stays on the family's order, so the
        // successor's claim is held at both servers whose reservation
        // for the winner stands — node 0 first, then node 2 — unless
        // the crash wiped node 2's before the claim reached it.
        let held = if victim == 2 { 1 } else { 2 };
        assert_eq!(outcome.held_claims, held, "victim {victim}");
    }
}

#[test]
fn early_claims_header_roundtrips() {
    let text = marp_mcheck::to_text(&early(), &[], "header only");
    assert!(text.contains("early-claims 1"));
    let (parsed, _) = marp_mcheck::from_text(&text).expect("parses");
    assert!(parsed.early_claims);
    // Faithful models omit the line, so older schedule files are
    // unchanged.
    let text = marp_mcheck::to_text(&ModelSpec::new(Family::Marp, 5, 2), &[], "");
    assert!(!text.contains("early-claims"));
}
