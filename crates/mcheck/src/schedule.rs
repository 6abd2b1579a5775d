//! Replayable schedule files and counterexample shrinking.
//!
//! A schedule is a text file: a header naming the model (family,
//! sizes, chaos mode) and one `deliver`/`crash`/`recover` line per
//! scheduling choice. Replay resolves each recorded step against the
//! *current* queue — by exact sequence number when possible, falling
//! back to the oldest event of the same shape — so a schedule stays
//! meaningful after shrinking passes delete steps and renumber
//! everything downstream.

use crate::explore::{CheckConfig, Choice, Counterexample, Explorer};
use crate::model::{Family, MailLoss, ModelSpec};
use marp_core::ChaosMode;
use marp_metrics::Violation;
use marp_sim::{Control, NodeId, PendingKind, TraceEvent};

/// Name of a chaos mode in schedule files and on the CLI.
pub fn chaos_name(chaos: ChaosMode) -> &'static str {
    match chaos {
        ChaosMode::None => "none",
        ChaosMode::LlLifoInsert => "lifo",
        ChaosMode::BlindAcks => "blind-acks",
        ChaosMode::LlLifoBlindAcks => "lifo-blind",
    }
}

/// Parse a chaos mode name.
pub fn parse_chaos(name: &str) -> Option<ChaosMode> {
    match name {
        "none" => Some(ChaosMode::None),
        "lifo" => Some(ChaosMode::LlLifoInsert),
        "blind-acks" => Some(ChaosMode::BlindAcks),
        "lifo-blind" => Some(ChaosMode::LlLifoBlindAcks),
        _ => None,
    }
}

fn fmt_choice(choice: &Choice) -> String {
    match choice {
        Choice::Deliver { seq, kind } => match kind {
            PendingKind::Start { node } => format!("deliver {seq} start {node}"),
            PendingKind::Message { from, to, .. } => format!("deliver {seq} msg {from} {to}"),
            PendingKind::Timer { node, tag } => format!("deliver {seq} timer {node} {tag}"),
            PendingKind::Control(Control::SetNodeUp { node, up }) => {
                format!("deliver {seq} ctl-up {node} {}", u8::from(*up))
            }
            PendingKind::Control(Control::Notify { to, about, up }) => {
                format!("deliver {seq} ctl-notify {to} {about} {}", u8::from(*up))
            }
            PendingKind::Control(Control::Halt) => format!("deliver {seq} ctl-halt"),
        },
        Choice::Crash { node } => format!("crash {node}"),
        Choice::Recover { node } => format!("recover {node}"),
    }
}

/// Render a schedule file.
pub fn to_text(spec: &ModelSpec, schedule: &[Choice], note: &str) -> String {
    let mut out = String::from("# marp-mcheck schedule v1\n");
    if !note.is_empty() {
        for line in note.lines() {
            out.push_str(&format!("# {line}\n"));
        }
    }
    out.push_str(&format!("family {}\n", spec.family.name()));
    out.push_str(&format!("replicas {}\n", spec.replicas));
    out.push_str(&format!("agents {}\n", spec.agents));
    out.push_str(&format!("chaos {}\n", chaos_name(spec.chaos)));
    if !spec.regeneration {
        // Omitted when on: older schedule files stay byte-identical.
        out.push_str("regeneration 0\n");
    }
    if spec.distinct_keys {
        // Omitted when off (the conflicting default), same reason.
        out.push_str("distinct-keys 1\n");
    }
    if spec.mail_loss != MailLoss::None {
        out.push_str(&format!("mail-loss {}\n", spec.mail_loss.name()));
    }
    if spec.early_claims {
        out.push_str("early-claims 1\n");
    }
    for choice in schedule {
        out.push_str(&fmt_choice(choice));
        out.push('\n');
    }
    out
}

/// Parse a schedule file.
pub fn from_text(text: &str) -> Result<(ModelSpec, Vec<Choice>), String> {
    let mut family = None;
    let mut replicas = None;
    let mut agents = None;
    let mut chaos = ChaosMode::None;
    let mut regeneration = true;
    let mut distinct_keys = false;
    let mut mail_loss = MailLoss::None;
    let mut early_claims = false;
    let mut schedule = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        let num = |s: &str| s.parse::<u64>().map_err(|_| err("bad number"));
        match fields[0] {
            "family" if fields.len() == 2 => {
                family = Some(Family::parse(fields[1]).ok_or_else(|| err("unknown family"))?);
            }
            "replicas" if fields.len() == 2 => replicas = Some(num(fields[1])? as usize),
            "agents" if fields.len() == 2 => agents = Some(num(fields[1])? as usize),
            "chaos" if fields.len() == 2 => {
                chaos = parse_chaos(fields[1]).ok_or_else(|| err("unknown chaos mode"))?;
            }
            "regeneration" if fields.len() == 2 => regeneration = num(fields[1])? != 0,
            "distinct-keys" if fields.len() == 2 => distinct_keys = num(fields[1])? != 0,
            "mail-loss" if fields.len() == 2 => {
                mail_loss = MailLoss::parse(fields[1]).ok_or_else(|| err("unknown mail loss"))?;
            }
            "early-claims" if fields.len() == 2 => early_claims = num(fields[1])? != 0,
            "crash" if fields.len() == 2 => {
                schedule.push(Choice::Crash {
                    node: num(fields[1])? as u16,
                });
            }
            "recover" if fields.len() == 2 => {
                schedule.push(Choice::Recover {
                    node: num(fields[1])? as u16,
                });
            }
            "deliver" if fields.len() >= 3 => {
                let seq = num(fields[1])?;
                let kind = match (fields[2], fields.len()) {
                    ("start", 4) => PendingKind::Start {
                        node: num(fields[3])? as u16,
                    },
                    ("msg", 5) => PendingKind::Message {
                        from: num(fields[3])? as u16,
                        to: num(fields[4])? as u16,
                        bytes: 0,
                    },
                    ("timer", 5) => PendingKind::Timer {
                        node: num(fields[3])? as u16,
                        tag: num(fields[4])?,
                    },
                    ("ctl-up", 5) => PendingKind::Control(Control::SetNodeUp {
                        node: num(fields[3])? as u16,
                        up: num(fields[4])? != 0,
                    }),
                    ("ctl-notify", 6) => PendingKind::Control(Control::Notify {
                        to: num(fields[3])? as u16,
                        about: num(fields[4])? as u16,
                        up: num(fields[5])? != 0,
                    }),
                    ("ctl-halt", 3) => PendingKind::Control(Control::Halt),
                    _ => return Err(err("bad deliver step")),
                };
                schedule.push(Choice::Deliver { seq, kind });
            }
            _ => return Err(err("unrecognized line")),
        }
    }
    let family = family.ok_or("missing 'family' header")?;
    let replicas = replicas.ok_or("missing 'replicas' header")?;
    let agents = agents.ok_or("missing 'agents' header")?;
    let mut spec = ModelSpec::new(family, replicas, agents);
    spec.chaos = chaos;
    spec.regeneration = regeneration;
    spec.distinct_keys = distinct_keys;
    spec.mail_loss = mail_loss;
    spec.early_claims = early_claims;
    Ok((spec, schedule))
}

/// Build the **agent-loss schedule family**: run the canonical
/// schedule until an update agent is observed resident at `victim` (a
/// replica other than its home), then fail-stop the victim and recover
/// it immediately. The resident agent dies with the host, so the
/// schedule puts the home's dispatch registry on the critical path:
/// with regeneration on, [`replay`]'s canonical drain must still
/// complete every write exactly once; with
/// [`ModelSpec::regeneration`] off, the write is provably stranded.
/// The explorer's random interleavings only hit this situation by
/// luck, which is why it gets a targeted family.
///
/// Panics if the agent never migrates to `victim` within a generous
/// step budget (pick a victim on the majority itinerary).
pub fn agent_loss_schedule(spec: &ModelSpec, victim: NodeId) -> Vec<Choice> {
    assert_eq!(
        spec.family,
        Family::Marp,
        "agent loss targets MARP's mobile agents"
    );
    let mut sim = spec.build();
    let starts: Vec<u64> = sim
        .pending_events()
        .iter()
        .filter(|e| matches!(e.kind, PendingKind::Start { .. }))
        .map(|e| e.seq)
        .collect();
    for seq in starts {
        sim.step_event(seq);
    }
    let mut schedule = Vec::new();
    let mut pos = sim.trace().records().len();
    let mut timer_fires = 0u32;
    for _ in 0..DRAIN_CAP {
        let pending = sim.pending_events();
        let next = pending
            .iter()
            .find(|e| !matches!(e.kind, PendingKind::Timer { .. }))
            .or_else(|| {
                if timer_fires >= 8 {
                    None
                } else {
                    timer_fires += 1;
                    pending
                        .iter()
                        .find(|e| matches!(e.kind, PendingKind::Timer { .. }))
                }
            })
            .map(|e| (e.seq, e.kind.clone()));
        let Some((seq, kind)) = next else { break };
        sim.step_event(seq);
        schedule.push(Choice::Deliver { seq, kind });
        let records = sim.trace().records();
        let arrived = records[pos..]
            .iter()
            .any(|r| matches!(r.event, TraceEvent::AgentMigrated { to, .. } if to == victim));
        pos = records.len();
        if arrived {
            schedule.push(Choice::Crash { node: victim });
            schedule.push(Choice::Recover { node: victim });
            return schedule;
        }
    }
    panic!("no agent migrated to node {victim}; pick a victim on the majority itinerary");
}

/// Build an **early-claim crash schedule**: follow the early-claim
/// family's canonical schedule until some server first holds a claim —
/// the previous winner's COMMITs are still in flight to the servers
/// holding it — then fail-stop `victim` and recover it immediately.
/// Depending on the victim that kills the committed winner's host
/// mid-COMMIT, a server with the held claim and the reservation it
/// waits behind, or the early claimant itself; [`replay`]'s drain must
/// complete every write exactly once all the same.
///
/// Panics if the schedule never holds a claim (pick a shape whose
/// winner and successor sit on different hosts, e.g. 5 replicas × 2).
pub fn early_claim_crash_schedule(spec: &ModelSpec, victim: NodeId) -> Vec<Choice> {
    assert!(spec.early_claims, "not an early-claim model");
    // Claims are only ever held on a contended key: the shared key 1.
    let holds_a_claim = |sim: &marp_sim::Simulation| {
        (0..spec.replicas as NodeId)
            .filter_map(|s| sim.process::<marp_core::MarpNode>(s))
            .any(|node| node.state().held_claimants(1).next().is_some())
    };
    let (mut schedule, held) =
        Explorer::new(*spec, CheckConfig::default()).canonical_schedule_until(holds_a_claim);
    assert!(held, "the canonical schedule never holds a claim");
    schedule.push(Choice::Crash { node: victim });
    schedule.push(Choice::Recover { node: victim });
    schedule
}

/// What replaying a schedule produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Incremental-rule violations, in observation order.
    pub violations: Vec<Violation>,
    /// Quiescent-only violations (checked after the last step when no
    /// message remained deliverable).
    pub quiescent_violations: Vec<Violation>,
    /// Steps that resolved and executed.
    pub steps_applied: usize,
    /// Steps that no longer resolved (normal during shrinking).
    pub steps_skipped: usize,
    /// Events delivered by the canonical drain after the schedule.
    pub drained_steps: usize,
    /// Writes that completed.
    pub completed: usize,
    /// UPDATE claims servers held behind a committing winner (MARP).
    pub held_claims: u64,
    /// Claims that aborted (`WinAborted`).
    pub aborted_claims: usize,
}

/// Upper bound on post-schedule drain steps (a wedged model must not
/// hang the replayer).
const DRAIN_CAP: usize = 2000;

/// Timer fires allowed during the canonical drain. Sized to cross the
/// 400 ms regeneration deadline: four 100 ms maintenance rounds across
/// three replicas, with lease/repoll ticks interleaved, land ~35 fires
/// before the home's regeneration timer becomes runnable.
const DRAIN_TIMER_CAP: u32 = 64;

impl ReplayOutcome {
    /// All violations, incremental then quiescent.
    pub fn all_violations(&self) -> Vec<Violation> {
        let mut all = self.violations.clone();
        all.extend(self.quiescent_violations.iter().cloned());
        all
    }

    /// Whether any violation matches one of `rules` (empty = any).
    pub fn violates(&self, rules: &[&str]) -> bool {
        self.all_violations()
            .iter()
            .any(|v| rules.is_empty() || rules.contains(&v.rule))
    }
}

/// Does `recorded` (shape recorded in a schedule) match a currently
/// pending event of shape `live`? Message payload sizes are ignored.
fn shape_matches(recorded: &PendingKind, live: &PendingKind) -> bool {
    match (recorded, live) {
        (PendingKind::Start { node: a }, PendingKind::Start { node: b }) => a == b,
        (
            PendingKind::Message {
                from: f1, to: t1, ..
            },
            PendingKind::Message {
                from: f2, to: t2, ..
            },
        ) => f1 == f2 && t1 == t2,
        (PendingKind::Timer { node: n1, tag: g1 }, PendingKind::Timer { node: n2, tag: g2 }) => {
            n1 == n2 && g1 == g2
        }
        (PendingKind::Control(a), PendingKind::Control(b)) => a == b,
        _ => false,
    }
}

/// Replay a schedule against a fresh build of `spec`, feeding the
/// monitor after every step. Runs the whole schedule (it does not stop
/// at the first violation) so shrinking can compare rule sets.
///
/// After the scheduled steps, the run is **drained to quiescence
/// canonically**: remaining messages are delivered lowest-sequence
/// first (and timers fired at message quiescence, within the usual
/// budget) until the model reaches a terminal state. This gives every
/// replay a definitive verdict — the quiescent-only rules (lost
/// update) are checkable — and makes event-deletion shrinking
/// meaningful: a deleted step simply happens later, in the canonical
/// tail, so only the steps whose *order* matters survive.
pub fn replay(spec: &ModelSpec, schedule: &[Choice]) -> ReplayOutcome {
    let mut sim = spec.build();
    // Auto-run Start events exactly like the explorer does, so recorded
    // deliver steps line up. Older schedules that *do* record start
    // steps still resolve (they will simply not match anything here).
    let starts: Vec<u64> = sim
        .pending_events()
        .iter()
        .filter(|e| matches!(e.kind, PendingKind::Start { .. }))
        .map(|e| e.seq)
        .collect();
    for seq in starts {
        sim.step_event(seq);
    }
    let mut monitor = spec.monitor();
    let mut pos = 0usize;
    let mut outcome = ReplayOutcome {
        violations: Vec::new(),
        quiescent_violations: Vec::new(),
        steps_applied: 0,
        steps_skipped: 0,
        drained_steps: 0,
        completed: 0,
        held_claims: 0,
        aborted_claims: 0,
    };
    // State-invariant violations (deduplicated: a broken state usually
    // persists over many steps).
    let mut state_violations: Vec<Violation> = Vec::new();
    let mut check_state = |sim: &marp_sim::Simulation| {
        for v in spec.state_violations(sim) {
            if !state_violations.contains(&v) {
                state_violations.push(v);
            }
        }
    };
    for choice in schedule {
        let applied = match choice {
            Choice::Deliver { seq, kind } => {
                let pending = sim.pending_events();
                let resolved = pending
                    .iter()
                    .find(|e| e.seq == *seq && shape_matches(kind, &e.kind))
                    .or_else(|| pending.iter().find(|e| shape_matches(kind, &e.kind)))
                    .map(|e| e.seq);
                match resolved {
                    Some(seq) => sim.step_event(seq),
                    None => false,
                }
            }
            Choice::Crash { node } if sim.is_up(*node) => {
                sim.apply_control_now(Control::SetNodeUp {
                    node: *node,
                    up: false,
                });
                for to in 0..spec.replicas as u16 {
                    if to != *node {
                        let now = sim.now();
                        sim.schedule_control(
                            now,
                            Control::Notify {
                                to,
                                about: *node,
                                up: false,
                            },
                        );
                    }
                }
                true
            }
            Choice::Recover { node } if !sim.is_up(*node) => {
                sim.apply_control_now(Control::SetNodeUp {
                    node: *node,
                    up: true,
                });
                for to in 0..spec.replicas as u16 {
                    if to != *node {
                        let now = sim.now();
                        sim.schedule_control(
                            now,
                            Control::Notify {
                                to,
                                about: *node,
                                up: true,
                            },
                        );
                    }
                }
                true
            }
            _ => false,
        };
        if applied {
            outcome.steps_applied += 1;
        } else {
            outcome.steps_skipped += 1;
        }
        let records = sim.trace().records();
        monitor.observe_all(&records[pos..]);
        pos = records.len();
        check_state(&sim);
    }
    // Canonical drain: deliver what's still in flight, oldest first,
    // letting time pass (bounded) only at message quiescence.
    let mut timer_fires = 0u32;
    while outcome.drained_steps < DRAIN_CAP {
        let pending = sim.pending_events();
        let done = spec.finished(monitor.completed_requests());
        let next = pending
            .iter()
            .find(|e| !matches!(e.kind, PendingKind::Timer { .. }))
            .or_else(|| {
                if done || timer_fires >= DRAIN_TIMER_CAP {
                    None
                } else {
                    timer_fires += 1;
                    pending
                        .iter()
                        .find(|e| matches!(e.kind, PendingKind::Timer { .. }))
                }
            })
            .map(|e| e.seq);
        let Some(seq) = next else { break };
        sim.step_event(seq);
        outcome.drained_steps += 1;
        let records = sim.trace().records();
        monitor.observe_all(&records[pos..]);
        pos = records.len();
        check_state(&sim);
    }
    outcome.violations = monitor.violations().to_vec();
    outcome.violations.extend(state_violations);
    outcome.completed = monitor.completed_requests();
    outcome.aborted_claims = sim
        .trace()
        .count(|e| matches!(e, TraceEvent::WinAborted { .. }));
    if spec.family == Family::Marp {
        outcome.held_claims = (0..spec.replicas as NodeId)
            .filter_map(|s| sim.process::<marp_core::MarpNode>(s))
            .map(|node| node.mail().claims_held)
            .sum();
    }
    let quiescent = !sim
        .pending_events()
        .iter()
        .any(|e| matches!(e.kind, PendingKind::Message { .. }));
    if quiescent {
        outcome.quiescent_violations = monitor.quiescent_violations();
    }
    outcome
}

/// Minimize a counterexample by greedy event deletion: repeatedly drop
/// any single step whose removal still reproduces (a subset of) the
/// originally violated rules, until no single deletion survives.
pub fn shrink(spec: &ModelSpec, counterexample: &Counterexample) -> Vec<Choice> {
    let rules: Vec<&str> = counterexample.violations.iter().map(|v| v.rule).collect();
    let mut current = counterexample.schedule.clone();
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if replay(spec, &candidate).violates(&rules) {
                current = candidate;
                improved = true;
                // Re-test the same index (a new step shifted into it).
            } else {
                i += 1;
            }
        }
        if !improved {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_text_roundtrips() {
        let mut spec = ModelSpec::new(Family::Marp, 3, 2);
        spec.chaos = ChaosMode::LlLifoBlindAcks;
        let schedule = vec![
            Choice::Deliver {
                seq: 7,
                kind: PendingKind::Message {
                    from: 3,
                    to: 0,
                    bytes: 0,
                },
            },
            Choice::Crash { node: 1 },
            Choice::Deliver {
                seq: 12,
                kind: PendingKind::Control(Control::Notify {
                    to: 0,
                    about: 1,
                    up: false,
                }),
            },
            Choice::Deliver {
                seq: 20,
                kind: PendingKind::Timer { node: 2, tag: 100 },
            },
            Choice::Recover { node: 1 },
        ];
        let text = to_text(&spec, &schedule, "roundtrip test");
        let (spec2, schedule2) = from_text(&text).unwrap();
        assert_eq!(spec2.replicas, 3);
        assert_eq!(spec2.agents, 2);
        assert_eq!(spec2.family, Family::Marp);
        assert_eq!(spec2.chaos, ChaosMode::LlLifoBlindAcks);
        assert_eq!(schedule2, schedule);
    }

    #[test]
    fn bad_schedules_are_rejected() {
        assert!(from_text("family marp\n").is_err()); // missing sizes
        assert!(from_text("family nope\nreplicas 3\nagents 1\n").is_err());
        assert!(from_text("family marp\nreplicas 3\nagents 1\nwat 7\n").is_err());
        assert!(from_text("family marp\nreplicas 3\nagents 1\ndeliver x msg 0 1\n").is_err());
    }

    #[test]
    fn empty_replay_drains_canonically_to_completion() {
        let spec = ModelSpec::new(Family::Marp, 3, 1);
        let outcome = replay(&spec, &[]);
        assert_eq!(outcome.steps_applied, 0);
        assert!(outcome.drained_steps > 0);
        assert_eq!(outcome.completed, 1);
        assert!(outcome.all_violations().is_empty());
    }
}
