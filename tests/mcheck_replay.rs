//! Regression corpus for the model checker's schedule replayer.
//!
//! The files under `tests/schedules/` are recorded by `marp-mcheck
//! sample` (canonical schedules, one per protocol family) and
//! `marp-mcheck selftest` (a shrunk counterexample for the seeded
//! `stale-acks` network bug); the `missed_notice` pair is the
//! canonical schedule of a model whose network loses every COMMIT
//! change notice (`sample --mail-loss notices|notices+reply`),
//! `early_claim` that of the early-claim family, whose slow COMMITs let
//! the next winner's UPDATE overtake them (`sample --replicas 5
//! --agents 2 --early-claims`), and `commit_lost` that of a model
//! whose network loses every COMMIT but the winner's own copy
//! (`--mail-loss commits`). Replaying them pins down three things at
//! once: the schedule text format stays parseable, the
//! replayer's event resolution keeps finding the recorded steps as the
//! protocols evolve, and each file's verdict — clean or violating —
//! stays what it was when recorded.

use marp_mcheck::{from_text, replay};
use std::path::Path;

fn load(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/schedules")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Replay `name` and require a clean run with every write completed.
fn assert_clean(name: &str) {
    let (spec, steps) = from_text(&load(name)).expect("schedule parses");
    let outcome = replay(&spec, &steps);
    assert!(
        outcome.all_violations().is_empty(),
        "{name}: unexpected violations: {:?}",
        outcome.all_violations()
    );
    assert_eq!(
        outcome.completed, spec.agents,
        "{name}: only {}/{} writes completed",
        outcome.completed, spec.agents
    );
    // Canonical schedules should still resolve step for step; a large
    // skip count means recorded events no longer match the protocol.
    assert!(
        outcome.steps_skipped <= steps.len() / 4,
        "{name}: {} of {} recorded steps no longer resolve",
        outcome.steps_skipped,
        steps.len()
    );
}

#[test]
fn canonical_marp_schedule_replays_clean() {
    assert_clean("marp_3x2_canonical.txt");
}

/// With every change notice lost, the second writer can only commit
/// through the parked agent's re-poll; the recorded schedules must
/// still complete.
#[test]
fn missed_notice_schedules_recover_through_the_repoll() {
    for name in [
        "marp_3x2_missed_notice.txt",
        "marp_3x2_missed_notice_and_reply.txt",
    ] {
        assert_clean(name);
        let (spec, _) = from_text(&load(name)).expect("schedule parses");
        assert_ne!(spec.mail_loss, marp_mcheck::MailLoss::None, "{name}");
    }
}

/// The successor's UPDATE reaches a majority ahead of the previous
/// winner's COMMIT: the servers hold it, and the lock hands over
/// without a refusal or an abort.
#[test]
fn early_claim_schedule_hands_over_through_held_claims() {
    let name = "marp_5x2_early_claim.txt";
    assert_clean(name);
    let (spec, steps) = from_text(&load(name)).expect("schedule parses");
    assert!(spec.early_claims, "{name}");
    let outcome = replay(&spec, &steps);
    assert_eq!(outcome.held_claims, 2, "{name}");
    assert_eq!(outcome.aborted_claims, 0, "{name}");
}

#[test]
fn canonical_mcv_schedule_replays_clean() {
    assert_clean("mcv_3x2_canonical.txt");
}

#[test]
fn canonical_primary_copy_schedule_replays_clean() {
    assert_clean("pc_3x2_canonical.txt");
}

/// With every UPDATE acknowledgement reporting store version 0, the
/// second winner numbers its write version 1 again.
#[test]
fn stale_acks_counterexample_violates_version_conflict() {
    let (spec, steps) =
        from_text(&load("marp_3x2_stale_acks_version_conflict.txt")).expect("schedule parses");
    let outcome = replay(&spec, &steps);
    assert!(
        outcome.violates(&[marp_sim::trace::VERSION_CONFLICT]),
        "counterexample no longer reproduces: {:?}",
        outcome.all_violations()
    );
}

/// A lost COMMIT at its smallest: every COMMIT is lost at every
/// server but the winner's own host, and the schedule is empty — the
/// canonical drain alone. Home 0 never hears that its write committed
/// at node 2 as version 1; it used to regenerate the write at 400 ms
/// and let a majority {0, 1} that lacked version 1 commit it as
/// version 1 again (`order-preservation`). Now a server whose
/// Locking-List top or reservation holder outlives two ack timeouts
/// pulls from a peer and learns the commit first.
#[test]
fn commit_lost_schedule_learns_the_commit_from_a_peer() {
    let name = "marp_3x2_commit_lost.txt";
    assert_clean(name);
    let (spec, steps) = from_text(&load(name)).expect("schedule parses");
    assert_eq!(spec.mail_loss, marp_mcheck::MailLoss::Commits, "{name}");
    assert!(steps.is_empty(), "{name}");
}
