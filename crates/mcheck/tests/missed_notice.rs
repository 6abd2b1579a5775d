//! The missed-notice schedule family: the network loses every COMMIT
//! change notice (and, in the harsher variant, the first `LlInfo`
//! reply each host would receive). The notices are an optimisation —
//! Theorems 1–3 and exactly-once must hold on every interleaving
//! without them, and a parked agent must still reach its commit
//! through its re-poll timer (`AgentTimer::Repoll`).
//!
//! The lost-commit family (`MailLoss::Commits`) loses the COMMIT
//! itself at every server but the winner's own host. What this file
//! pins is the family — which copies are lost; its canonical run, where
//! the servers that missed a commit learn it by asking a peer, is
//! `tests/schedules/marp_3x2_commit_lost.txt`.

use marp_mcheck::{CheckConfig, Choice, Explorer, Family, MailLoss, ModelSpec};
use marp_sim::{PendingKind, SimTime, TraceEvent};

fn lossy(loss: MailLoss) -> ModelSpec {
    let mut spec = ModelSpec::new(Family::Marp, 3, 2);
    spec.mail_loss = loss;
    spec
}

/// Timer steps of a schedule that are an agent's `AgentTimer::Repoll`
/// (kind 1 in the tag's low byte; the node's own `NodeTimer` kinds are
/// 7, 100 and 101).
fn repolls(schedule: &[Choice]) -> usize {
    schedule
        .iter()
        .filter(|c| {
            matches!(
                c,
                Choice::Deliver {
                    kind: PendingKind::Timer { tag, .. },
                    ..
                } if tag & 0xff == 1
            )
        })
        .count()
}

#[test]
fn invariants_hold_on_every_interleaving_without_notices() {
    for loss in [MailLoss::Notices, MailLoss::NoticesAndFirstReply] {
        let report = Explorer::new(lossy(loss), CheckConfig::default()).run();
        assert!(
            report.violation.is_none(),
            "{}: {:?}",
            loss.name(),
            report.violation
        );
        assert!(report.complete, "{}: budget ran out", loss.name());
        // Paths whose schedule lets the parked agent's host run its
        // timers all complete; the remainder starve that host's timers
        // for the whole per-path budget, which bounded search reports
        // as stuck rather than slow.
        assert!(report.terminal_paths > report.stuck_paths);
    }
}

#[test]
fn a_missed_notice_costs_exactly_one_repoll() {
    let faithful = Explorer::new(lossy(MailLoss::None), CheckConfig::default());
    assert_eq!(repolls(&faithful.canonical_schedule()), 0);
    for loss in [MailLoss::Notices, MailLoss::NoticesAndFirstReply] {
        let spec = lossy(loss);
        let schedule = Explorer::new(spec, CheckConfig::default()).canonical_schedule();
        assert_eq!(repolls(&schedule), 1, "{}", loss.name());
        let outcome = marp_mcheck::replay(&spec, &schedule);
        assert_eq!(outcome.completed, 2, "{}", loss.name());
        assert!(outcome.all_violations().is_empty(), "{}", loss.name());
        assert_eq!(outcome.drained_steps, 0, "the schedule itself completes");
    }
}

/// Each of the two COMMITs is broadcast to all three servers: the
/// winner's own host applies its loopback copy, the other two copies
/// are lost. (50 ms: both writers have committed, no lease has lapsed.)
#[test]
fn a_lost_commit_is_applied_at_the_winners_own_host_only() {
    let mut sim = lossy(MailLoss::Commits).build();
    sim.run_until(SimTime::from_millis(50));
    let nodes_of = |pick: fn(&TraceEvent) -> bool| -> Vec<u16> {
        let records = sim.trace().records().iter();
        records.filter(|r| pick(&r.event)).map(|r| r.node).collect()
    };
    let winners = nodes_of(|e| matches!(e, TraceEvent::AgentDisposed { .. }));
    let applied = nodes_of(|e| matches!(e, TraceEvent::CommitApplied { .. }));
    let lost = nodes_of(|e| matches!(e, TraceEvent::Custom { kind, .. } if *kind == "mail-lost"));
    assert_eq!(winners.len(), 2);
    assert!(!applied.is_empty() && applied.iter().all(|node| winners.contains(node)));
    assert_eq!(lost.len(), 4);
}

#[test]
fn mail_loss_header_roundtrips() {
    for loss in [
        MailLoss::Notices,
        MailLoss::NoticesAndFirstReply,
        MailLoss::Commits,
    ] {
        let text = marp_mcheck::to_text(&lossy(loss), &[], "header only");
        assert!(text.contains(&format!("mail-loss {}\n", loss.name())));
        let (parsed, _) = marp_mcheck::from_text(&text).expect("parses");
        assert_eq!(parsed.mail_loss, loss);
        assert_eq!(MailLoss::parse(loss.name()), Some(loss));
    }
    // Faithful models omit the line, so older schedule files are
    // unchanged.
    let text = marp_mcheck::to_text(&lossy(MailLoss::None), &[], "");
    assert!(!text.contains("mail-loss"));
}
