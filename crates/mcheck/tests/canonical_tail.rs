//! The replayed tail is the canonical run.
//!
//! `replay` runs a schedule and then drains what is left in the
//! explorer's canonical order, so a prefix of a canonical schedule must
//! end exactly where the whole schedule does: the drain takes the steps
//! the prefix left out, in the order the explorer took them. This is
//! what makes an empty schedule (`tests/schedules/marp_3x2_commit_lost.txt`)
//! mean "the canonical run", and what keeps a shrunk early-claim
//! counterexample on the family's order after its last recorded step.

use marp_mcheck::{replay, CheckConfig, Explorer, Family, MailLoss, ModelSpec, ReplayOutcome};

/// The seven shapes the corpus records with `marp-mcheck sample`.
fn shapes() -> Vec<(&'static str, ModelSpec)> {
    let base = |family, replicas| ModelSpec::new(family, replicas, 2);
    let mut distinct = base(Family::Marp, 3);
    distinct.distinct_keys = true;
    let mut notices = base(Family::Marp, 3);
    notices.mail_loss = MailLoss::Notices;
    let mut notices_reply = base(Family::Marp, 3);
    notices_reply.mail_loss = MailLoss::NoticesAndFirstReply;
    let mut early = base(Family::Marp, 5);
    early.early_claims = true;
    vec![
        ("marp 3x2", base(Family::Marp, 3)),
        ("marp 3x2 distinct-keys", distinct),
        ("mcv 3x2", base(Family::Mcv, 3)),
        ("pc 3x2", base(Family::PrimaryCopy, 3)),
        ("marp 3x2 notices", notices),
        ("marp 3x2 notices+reply", notices_reply),
        ("marp 5x2 early-claims", early),
    ]
}

/// What a replay ends with, whichever steps it took to get there.
fn verdict(outcome: &ReplayOutcome) -> (usize, u64, usize, Vec<String>) {
    let violations = outcome.all_violations();
    (
        outcome.completed,
        outcome.held_claims,
        outcome.aborted_claims,
        violations.iter().map(|v| format!("{v:?}")).collect(),
    )
}

#[test]
fn every_prefix_of_a_canonical_schedule_replays_to_the_same_end() {
    for (name, spec) in shapes() {
        let canonical = Explorer::new(spec, CheckConfig::default()).canonical_schedule();
        let whole = verdict(&replay(&spec, &canonical));
        assert_eq!(whole.0, spec.agents, "{name}: the canonical run completes");
        for k in 0..canonical.len() {
            assert_eq!(
                verdict(&replay(&spec, &canonical[..k])),
                whole,
                "{name}: the first {k} of {} steps, then the drain",
                canonical.len()
            );
        }
    }
}
