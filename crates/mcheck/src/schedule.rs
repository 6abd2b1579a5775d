//! Replayable schedule files, the targeted schedule families, and
//! counterexample shrinking.
//!
//! A schedule is a text file: a header naming the model (one
//! `name value` line per [`ModelSpec::options`] entry) and one
//! `deliver`/`crash`/`recover` line per scheduling choice. Replay
//! resolves each recorded step against the *current* queue — by exact
//! sequence number when possible, falling back to the oldest event of
//! the same shape — so a schedule stays meaningful after shrinking
//! passes delete steps and renumber everything downstream. After the
//! last recorded step the run goes on in the explorer's canonical order
//! (see [`crate::explore`]): an empty schedule replays the canonical
//! run itself.

use crate::explore::{CheckConfig, Choice, Counterexample, Explorer, Run};
use crate::model::{Family, ModelSpec};
use marp_metrics::Violation;
use marp_sim::{Control, NodeId, PendingKind, TraceEvent};

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
    for line in note.lines() {
        out.push_str(&format!("# {line}\n"));
    }
    for (name, value) in spec.options() {
        out.push_str(&format!("{name} {value}\n"));
    }
    for choice in schedule {
        out.push_str(&fmt_choice(choice));
        out.push('\n');
    }
    out
}

/// Parse a schedule file.
pub fn from_text(text: &str) -> Result<(ModelSpec, Vec<Choice>), String> {
    // Zero sizes stand for "no header yet": `set` rejects a zero.
    let mut spec = ModelSpec {
        replicas: 0,
        agents: 0,
        ..ModelSpec::new(Family::Marp, 1, 1)
    };
    let mut family = false;
    let mut schedule = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        let num = |s: &str| s.parse::<u64>().map_err(|_| err("bad number"));
        let replica = |s: &str| match num(s)? {
            n if n < spec.replicas as u64 => Ok(n as NodeId),
            _ => Err(err("not a replica (0..replicas)")),
        };
        match fields[..] {
            ["crash", node] => schedule.push(Choice::Crash {
                node: replica(node)?,
            }),
            ["recover", node] => schedule.push(Choice::Recover {
                node: replica(node)?,
            }),
            ["deliver", seq, ref what @ ..] => {
                let seq = num(seq)?;
                let kind = match *what {
                    ["start", node] => PendingKind::Start {
                        node: num(node)? as u16,
                    },
                    ["msg", from, to] => PendingKind::Message {
                        from: num(from)? as u16,
                        to: num(to)? as u16,
                        bytes: 0,
                    },
                    ["timer", node, tag] => PendingKind::Timer {
                        node: num(node)? as u16,
                        tag: num(tag)?,
                    },
                    ["ctl-up", node, up] => PendingKind::Control(Control::SetNodeUp {
                        node: num(node)? as u16,
                        up: num(up)? != 0,
                    }),
                    ["ctl-notify", to, about, up] => PendingKind::Control(Control::Notify {
                        to: num(to)? as u16,
                        about: num(about)? as u16,
                        up: num(up)? != 0,
                    }),
                    ["ctl-halt"] => PendingKind::Control(Control::Halt),
                    _ => return Err(err("bad deliver step")),
                };
                schedule.push(Choice::Deliver { seq, kind });
            }
            [name, value] => {
                spec.set(name, value)
                    .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                family |= name == "family";
            }
            _ => return Err(err("unrecognized line")),
        }
    }
    if !family {
        return Err("missing 'family' header".into());
    }
    if spec.replicas == 0 {
        return Err("missing 'replicas' header".into());
    }
    if spec.agents == 0 {
        return Err("missing 'agents' header".into());
    }
    Ok((spec, schedule))
}

/// The canonical schedule up to the first step after which `stop`
/// accepts the run, then a fail-stop of `victim` and its immediate
/// recovery (`None` if no step is accepted).
fn crash_when(
    spec: &ModelSpec,
    victim: NodeId,
    stop: impl FnMut(&Run) -> bool,
) -> Option<Vec<Choice>> {
    let explorer = Explorer::new(*spec, CheckConfig::default());
    let (mut schedule, stopped) = explorer.canonical_run(&mut Run::new(*spec), stop);
    schedule.extend([
        Choice::Crash { node: victim },
        Choice::Recover { node: victim },
    ]);
    stopped.then_some(schedule)
}

/// Build the **agent-loss schedule family**: run the canonical
/// schedule until an update agent migrates to `victim` (a replica other
/// than its home), then fail-stop the victim and recover it
/// immediately. The resident agent dies with the host, so the schedule
/// puts the home's dispatch registry on the critical path: with
/// regeneration on, [`replay`]'s canonical drain must still complete
/// every write exactly once; with [`ModelSpec::regeneration`] off, the
/// write is provably stranded. The explorer's random interleavings only
/// hit this situation by luck, which is why it gets a targeted family.
///
/// Panics if no agent migrates to `victim` on the canonical schedule
/// (pick a victim on the majority itinerary).
pub fn agent_loss_schedule(spec: &ModelSpec, victim: NodeId) -> Vec<Choice> {
    assert_eq!(
        spec.family,
        Family::Marp,
        "agent loss targets MARP's mobile agents"
    );
    let arrived = |run: &Run| {
        run.last_step()
            .iter()
            .any(|r| matches!(r.event, TraceEvent::AgentMigrated { to, .. } if to == victim))
    };
    crash_when(spec, victim, arrived).unwrap_or_else(|| {
        panic!("no agent migrated to node {victim}; pick a victim on the majority itinerary")
    })
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
/// Panics if the schedule never holds a claim (pick a shape where the
/// successor's UPDATE reaches a server the winner's COMMIT has not,
/// e.g. 5 replicas × 2).
pub fn early_claim_crash_schedule(spec: &ModelSpec, victim: NodeId) -> Vec<Choice> {
    assert!(spec.early_claims, "not an early-claim model");
    // Claims are only ever held on a contended key: the shared key 1.
    let holds_a_claim = |run: &Run| {
        (0..spec.replicas as NodeId)
            .filter_map(|s| run.sim.process::<marp_core::MarpNode>(s))
            .any(|node| node.state().held_claimants(1).next().is_some())
    };
    crash_when(spec, victim, holds_a_claim).expect("the canonical schedule never holds a claim")
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
        (PendingKind::Message { from, to, .. }, PendingKind::Message { from: f, to: t, .. }) => {
            (from, to) == (f, t)
        }
        _ => recorded == live,
    }
}

/// Replay a schedule against a fresh build of `spec`, feeding the
/// monitor after every step. Runs the whole schedule (it does not stop
/// at the first violation) so shrinking can compare rule sets.
///
/// After the scheduled steps, the run is **drained to quiescence
/// canonically**: it takes the explorer's canonical step (with a timer
/// budget of its own) until the model reaches a terminal state. This
/// gives every replay a definitive verdict — the quiescent-only rules
/// (lost update) are checkable — and makes event-deletion shrinking
/// meaningful: a deleted step simply happens later, in the canonical
/// tail, so only the steps whose *order* matters survive.
pub fn replay(spec: &ModelSpec, schedule: &[Choice]) -> ReplayOutcome {
    let mut run = Run::new(*spec);
    let mut steps_applied = 0;
    for choice in schedule {
        // Resolve a recorded delivery by exact seq, else by shape.
        let resolved = match choice {
            Choice::Deliver { seq, kind } => {
                let pending = run.sim.pending_events();
                pending
                    .iter()
                    .find(|e| e.seq == *seq && shape_matches(kind, &e.kind))
                    .or_else(|| pending.iter().find(|e| shape_matches(kind, &e.kind)))
                    .map(|e| Choice::Deliver {
                        seq: e.seq,
                        kind: e.kind.clone(),
                    })
            }
            fault => Some(fault.clone()),
        };
        steps_applied += usize::from(resolved.is_some_and(|choice| run.step(&choice)));
    }
    let drain = CheckConfig {
        max_depth: DRAIN_CAP,
        max_timer_steps: DRAIN_TIMER_CAP,
        ..CheckConfig::default()
    };
    let (drained, _) = Explorer::new(*spec, drain).canonical_run(&mut run, |_| false);
    let quiescent = !run
        .sim
        .pending_events()
        .iter()
        .any(|e| matches!(e.kind, PendingKind::Message { .. }));
    let sim = &run.sim;
    // Zero unless MARP: no other family's server is a `MarpNode`.
    let held_claims = (0..spec.replicas as NodeId)
        .filter_map(|s| sim.process::<marp_core::MarpNode>(s))
        .map(|node| node.mail().claims_held)
        .sum();
    ReplayOutcome {
        violations: run.violations(),
        quiescent_violations: if quiescent {
            run.monitor.quiescent_violations()
        } else {
            Vec::new()
        },
        steps_applied,
        steps_skipped: schedule.len() - steps_applied,
        drained_steps: drained.len(),
        completed: run.monitor.completed_requests(),
        held_claims,
        aborted_claims: sim
            .trace()
            .count(|e| matches!(e, TraceEvent::WinAborted { .. })),
    }
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
    use crate::model::Chaos;
    use std::path::Path;

    #[test]
    fn schedule_text_roundtrips() {
        let mut spec = ModelSpec::new(Family::Marp, 3, 2);
        spec.chaos = Chaos::StaleAcks;
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
        assert_eq!(spec2.chaos, Chaos::StaleAcks);
        assert_eq!(schedule2, schedule);
    }

    #[test]
    fn bad_schedules_are_rejected() {
        assert!(from_text("family marp\n").is_err()); // missing sizes
        assert!(from_text("family nope\nreplicas 3\nagents 1\n").is_err());
        assert!(from_text("family marp\nreplicas 3\nagents 1\nwat 7\n").is_err());
        // `stale-acks` is the only seeded bug.
        assert!(from_text("family marp\nreplicas 3\nagents 2\nchaos lifo-blind\n").is_err());
        assert!(from_text("family marp\nreplicas 3\nagents 1\ndeliver x msg 0 1\n").is_err());
        // Inputs that used to panic: a fault on a node that is no
        // replica, and a model with no replicas or no writers.
        let crash = from_text("family marp\nreplicas 3\nagents 1\ncrash 7\n").unwrap_err();
        assert_eq!(crash, "line 4: not a replica (0..replicas): crash 7");
        assert!(from_text("family marp\nreplicas 3\nagents 1\nrecover 3\n").is_err());
        assert!(from_text("family marp\nreplicas 0\nagents 1\n").is_err());
        assert!(from_text("family marp\nreplicas 3\nagents 0\n").is_err());
    }

    /// The schedule files under `dir` and its subdirectories.
    fn corpus(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("corpus dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                corpus(&path, files);
            } else if path.extension().is_some_and(|e| e == "txt") {
                files.push(path);
            }
        }
    }

    #[test]
    fn every_committed_schedule_re_renders_byte_for_byte() {
        let mut files = Vec::new();
        corpus(
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/schedules"),
            &mut files,
        );
        assert!(files.len() >= 8, "corpus shrank: {files:?}");
        for path in files {
            let text = std::fs::read_to_string(&path).expect("read schedule");
            let (spec, steps) = from_text(&text).expect("parses");
            // The note is the comment block after the format line.
            let note: Vec<&str> = text
                .lines()
                .skip(1)
                .filter_map(|l| l.strip_prefix("# "))
                .collect();
            assert_eq!(
                to_text(&spec, &steps, &note.join("\n")),
                text,
                "{}",
                path.display()
            );
        }
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
