//! The bounded exhaustive explorer.
//!
//! Iterative depth-first search over scheduling choices of a
//! [`ModelSpec`]'s simulation, with three complementary reductions:
//!
//! * **Sleep sets** (partial-order reduction keyed on the receiver):
//!   two enabled events touching different nodes commute, so after
//!   exploring `a·b` the search suppresses re-exploring `b·a` from the
//!   same state. A crash or recovery of node X is dependent with every
//!   event received by X.
//! * **FIFO channels**: among in-flight messages on the same
//!   `(from, to)` channel only the oldest is enabled, matching the
//!   deterministic transport's per-link ordering.
//! * **Quiescent timers with a per-path budget**: timers fire only when
//!   no message is deliverable (the earliest per node), and a path may
//!   take at most [`CheckConfig::max_timer_steps`] of them. The MARP
//!   node re-arms its maintenance tick forever, so without this the
//!   state space has no finite frontier.
//!
//! The **early-claim family** ([`ModelSpec::early_claims`]) changes
//! only the canonical order — COMMITs travel last, and reach servers
//! hosting a waiting agent first — so the handoff race sits on the
//! zero-preemption path instead of two preemptions away from it.
//!
//! On top of those, an optional **preemption bound** (CHESS-style)
//! caps how many times a path may deviate from the canonical
//! lowest-sequence-first order. Small bounds find realistic bugs at a
//! tiny fraction of the unbounded cost; `--preemptions full` removes
//! the cap.
//!
//! The explorer is *stateless* in the model-checking sense: it keeps
//! one live simulation and, on backtrack, rebuilds it by replaying the
//! choice prefix (cheap — a few hundred dispatches — and free of any
//! requirement that protocol state be cloneable or hashable).

use crate::model::ModelSpec;
use marp_core::MarpNode;
use marp_metrics::{InvariantMonitor, Violation};
use marp_sim::{Control, NodeId, PendingKind, Simulation};
use std::collections::HashSet;

/// One scheduling choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Choice {
    /// Execute the queued event with this identity. The kind is carried
    /// for replay-by-shape (shrinking renumbers the queue) and display.
    Deliver {
        /// Queue identity at recording time.
        seq: u64,
        /// Structural description of the event.
        kind: PendingKind,
    },
    /// Fail-stop crash of a replica (failure-detector notifications to
    /// the other replicas are enqueued, their delivery order explored).
    Crash {
        /// The replica to crash.
        node: NodeId,
    },
    /// Recovery of a crashed replica.
    Recover {
        /// The replica to recover.
        node: NodeId,
    },
}

impl Choice {
    /// The node whose state the choice touches (dependency key).
    fn receiver(&self) -> Option<NodeId> {
        match self {
            Choice::Deliver { kind, .. } => kind.receiver(),
            Choice::Crash { node } | Choice::Recover { node } => Some(*node),
        }
    }

    /// Whether two choices commute (touch different nodes). `None`
    /// receivers are conservatively dependent on everything.
    fn independent(&self, other: &Choice) -> bool {
        match (self.receiver(), other.receiver()) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }

    fn is_timer(&self) -> bool {
        matches!(
            self,
            Choice::Deliver {
                kind: PendingKind::Timer { .. },
                ..
            }
        )
    }
}

/// Exploration limits and options.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Crash/recover injections allowed per path.
    pub max_crashes: usize,
    /// Deviations from the canonical schedule allowed per path
    /// (`None` = unbounded — the full interleaving space).
    pub preemption_bound: Option<u32>,
    /// Total transitions before the search gives up (`complete` is
    /// reported false when this budget is exhausted).
    pub max_transitions: u64,
    /// Maximum path depth (paths are truncated beyond it).
    pub max_depth: usize,
    /// Timer fires allowed per path (see module docs).
    pub max_timer_steps: u32,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_crashes: 0,
            preemption_bound: Some(2),
            max_transitions: 3_000_000,
            max_depth: 400,
            max_timer_steps: 24,
        }
    }
}

/// A schedule that violates an invariant, with the violations it
/// produces.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The scheduling choices from the initial state.
    pub schedule: Vec<Choice>,
    /// The violations observed at (or at quiescence after) the final
    /// choice.
    pub violations: Vec<Violation>,
}

/// What an exploration did.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Scheduling transitions executed (distinct explored states).
    pub transitions: u64,
    /// Maximal paths examined.
    pub paths: u64,
    /// Paths that reached a clean terminal state (all writes completed,
    /// nothing deliverable).
    pub terminal_paths: u64,
    /// Paths that wedged (budgeted out of timers, or a crash orphaned a
    /// request) without completing every write. A liveness concern, not
    /// a safety violation — bounded search cannot tell slow from stuck.
    pub stuck_paths: u64,
    /// Paths cut at `max_depth`.
    pub truncated_paths: u64,
    /// Deepest path examined.
    pub max_depth_seen: usize,
    /// True when the bounded space was exhausted within the transition
    /// budget (false: budget ran out first).
    pub complete: bool,
    /// First invariant violation found, if any (search stops there).
    pub violation: Option<Counterexample>,
}

/// The explorer itself: a spec plus limits.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// The model under test.
    pub spec: ModelSpec,
    /// Search limits.
    pub cfg: CheckConfig,
}

/// A DFS frame: the state reached by `path[..depth]`, its remaining
/// choices, and the sleep set inherited on entry.
struct Frame {
    choices: Vec<Choice>,
    next: usize,
    /// Siblings actually explored from this state (preemption-skipped
    /// ones are excluded — their reorderings are NOT covered).
    explored: Vec<Choice>,
    sleep: Vec<Choice>,
    preemptions: u32,
    timer_steps: u32,
    crashes_used: usize,
}

impl Explorer {
    /// Build an explorer.
    pub fn new(spec: ModelSpec, cfg: CheckConfig) -> Self {
        Explorer { spec, cfg }
    }

    /// Run the search. Stops at the first invariant violation.
    pub fn run(&self) -> Report {
        let mut report = Report {
            complete: true,
            ..Report::default()
        };
        let (mut sim, mut monitor, mut trace_pos) = self.initial();
        let mut path: Vec<Choice> = Vec::new();
        let mut stack = vec![Frame {
            choices: self.enabled(&mut sim, &monitor, 0, 0),
            next: 0,
            explored: Vec::new(),
            sleep: Vec::new(),
            preemptions: 0,
            timer_steps: 0,
            crashes_used: 0,
        }];

        loop {
            let top = stack.len() - 1;
            if stack[top].next >= stack[top].choices.len() {
                // Frame exhausted: pop (with any other exhausted
                // ancestors), then rebuild the live sim once.
                while stack.last().is_some_and(|f| f.next >= f.choices.len()) {
                    stack.pop();
                    path.pop();
                }
                if stack.is_empty() {
                    break;
                }
                (sim, monitor, trace_pos) = self.replay(&path);
                continue;
            }
            if report.transitions >= self.cfg.max_transitions {
                report.complete = false;
                break;
            }

            let idx = stack[top].next;
            stack[top].next += 1;
            let choice = stack[top].choices[idx].clone();

            // Preemption accounting: taking anything but the canonical
            // first choice is a deviation.
            let preemptions = stack[top].preemptions + u32::from(idx > 0);
            if let Some(bound) = self.cfg.preemption_bound {
                if preemptions > bound {
                    continue;
                }
            }

            // Child sleep set: everything slept or already explored
            // here stays asleep downstream if it commutes with the
            // chosen step (its reorderings are covered elsewhere).
            let sleep: Vec<Choice> = stack[top]
                .sleep
                .iter()
                .chain(stack[top].explored.iter())
                .filter(|z| z.independent(&choice))
                .cloned()
                .collect();
            stack[top].explored.push(choice.clone());

            let timer_steps = stack[top].timer_steps + u32::from(choice.is_timer());
            let crashes_used =
                stack[top].crashes_used + usize::from(matches!(choice, Choice::Crash { .. }));

            self.apply(&mut sim, &choice);
            report.transitions += 1;
            path.push(choice);
            report.max_depth_seen = report.max_depth_seen.max(path.len());

            let records = sim.trace().records();
            monitor.observe_all(&records[trace_pos..]);
            trace_pos = records.len();
            let mut violations = monitor.violations().to_vec();
            violations.extend(self.spec.state_violations(&sim));
            if !violations.is_empty() {
                report.violation = Some(Counterexample {
                    schedule: path.clone(),
                    violations,
                });
                break;
            }

            // Where can we go from here?
            let all = if path.len() >= self.cfg.max_depth {
                report.truncated_paths += 1;
                report.complete = false;
                Vec::new()
            } else {
                self.enabled(&mut sim, &monitor, crashes_used, timer_steps)
            };
            let terminal = all.is_empty();
            let choices: Vec<Choice> = all.into_iter().filter(|c| !sleep.contains(c)).collect();

            if terminal {
                // A genuine frontier state: nothing is deliverable.
                report.paths += 1;
                let lost = monitor.quiescent_violations();
                if !lost.is_empty() {
                    report.violation = Some(Counterexample {
                        schedule: path.clone(),
                        violations: lost,
                    });
                    break;
                }
                if monitor.completed_requests() >= self.spec.agents {
                    report.terminal_paths += 1;
                } else {
                    report.stuck_paths += 1;
                }
            }
            if terminal || choices.is_empty() {
                // All continuations slept (covered elsewhere) or none
                // exist: retreat to the parent state for its next
                // sibling.
                if !terminal {
                    report.paths += 1;
                }
                path.pop();
                while stack.last().is_some_and(|f| f.next >= f.choices.len()) {
                    stack.pop();
                    path.pop();
                }
                if stack.is_empty() {
                    break;
                }
                (sim, monitor, trace_pos) = self.replay(&path);
                continue;
            }

            stack.push(Frame {
                choices,
                next: 0,
                explored: Vec::new(),
                sleep,
                preemptions,
                timer_steps,
                crashes_used,
            });
        }
        report
    }

    /// Record the canonical schedule: from the initial state, always
    /// take the first enabled choice until a terminal state (or the
    /// depth limit). This is the zero-preemption path — the schedule a
    /// plain event-loop run would take — and is what `marp-mcheck
    /// sample` writes for the regression corpus.
    pub fn canonical_schedule(&self) -> Vec<Choice> {
        self.canonical_schedule_until(|_| false).0
    }

    /// The canonical schedule, cut short after the first step that
    /// leaves the simulation in a state `stop` accepts. Also returns
    /// whether that happened (false: the schedule ran to its end).
    pub fn canonical_schedule_until(
        &self,
        mut stop: impl FnMut(&Simulation) -> bool,
    ) -> (Vec<Choice>, bool) {
        let (mut sim, mut monitor, mut trace_pos) = self.initial();
        let mut path = Vec::new();
        let mut timer_steps = 0u32;
        while path.len() < self.cfg.max_depth {
            let choices = self.enabled(&mut sim, &monitor, 0, timer_steps);
            let Some(choice) = choices.into_iter().next() else {
                break;
            };
            timer_steps += u32::from(choice.is_timer());
            self.apply(&mut sim, &choice);
            path.push(choice);
            let records = sim.trace().records();
            monitor.observe_all(&records[trace_pos..]);
            trace_pos = records.len();
            if stop(&sim) {
                return (path, true);
            }
        }
        (path, false)
    }

    /// Build the initial state: construct the sim, execute every Start
    /// event in sequence order (process starts commute — each touches
    /// only its own node — so their order is not worth exploring), and
    /// prime the monitor.
    fn initial(&self) -> (Simulation, InvariantMonitor, usize) {
        let mut sim = self.spec.build();
        let starts: Vec<u64> = sim
            .pending_events()
            .iter()
            .filter(|e| matches!(e.kind, PendingKind::Start { .. }))
            .map(|e| e.seq)
            .collect();
        for seq in starts {
            sim.step_event(seq);
        }
        let mut monitor = self.spec.monitor();
        let records = sim.trace().records();
        monitor.observe_all(records);
        let pos = records.len();
        (sim, monitor, pos)
    }

    /// Rebuild the live state for a choice prefix (backtracking).
    /// Sequence numbers are a pure function of execution history, so
    /// recorded `Deliver` seqs resolve exactly.
    fn replay(&self, path: &[Choice]) -> (Simulation, InvariantMonitor, usize) {
        let (mut sim, mut monitor, mut pos) = self.initial();
        for choice in path {
            self.apply(&mut sim, choice);
        }
        let records = sim.trace().records();
        monitor.observe_all(&records[pos..]);
        pos = records.len();
        (sim, monitor, pos)
    }

    /// Execute one choice on the live sim.
    fn apply(&self, sim: &mut Simulation, choice: &Choice) {
        match choice {
            Choice::Deliver { seq, .. } => {
                let stepped = sim.step_event(*seq);
                debug_assert!(stepped, "replayed seq {seq} not in queue");
            }
            Choice::Crash { node } => self.toggle(sim, *node, false),
            Choice::Recover { node } => self.toggle(sim, *node, true),
        }
    }

    /// Crash or recover `node` now, and enqueue failure-detector
    /// notifications to every other replica. The notifications are
    /// ordinary queued events, so *when* each replica learns of the
    /// change is part of the explored schedule — the controlled-schedule
    /// equivalent of `FaultPlan`'s fixed detection delay.
    fn toggle(&self, sim: &mut Simulation, node: NodeId, up: bool) {
        sim.apply_control_now(Control::SetNodeUp { node, up });
        let now = sim.now();
        for to in 0..self.spec.replicas as NodeId {
            if to != node {
                sim.schedule_control(
                    now,
                    Control::Notify {
                        to,
                        about: node,
                        up,
                    },
                );
            }
        }
    }

    /// Enumerate the enabled choices at the current state, in canonical
    /// order: deliverable messages and controls (sequence order, oldest
    /// per FIFO channel), then — only at message quiescence — the
    /// earliest live timer per node, then crash/recover injections.
    fn enabled(
        &self,
        sim: &mut Simulation,
        monitor: &InvariantMonitor,
        crashes_used: usize,
        timer_steps: u32,
    ) -> Vec<Choice> {
        let pending = sim.pending_events();
        let done = self.spec.finished(monitor.completed_requests());
        let mut choices = Vec::new();
        let mut channels: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut inbound: HashSet<NodeId> = HashSet::new();
        let mut have_msgs = false;
        for e in &pending {
            match &e.kind {
                PendingKind::Message { from, to, .. } => {
                    have_msgs = true;
                    inbound.insert(*to);
                    if channels.insert((*from, *to)) {
                        choices.push(Choice::Deliver {
                            seq: e.seq,
                            kind: e.kind.clone(),
                        });
                    }
                }
                PendingKind::Start { .. } | PendingKind::Control(_) => {
                    have_msgs = true;
                    choices.push(Choice::Deliver {
                        seq: e.seq,
                        kind: e.kind.clone(),
                    });
                }
                PendingKind::Timer { .. } => {}
            }
        }
        if self.spec.early_claims {
            // Stable: within a class the sequence order stands.
            choices.sort_by_cached_key(|c| commit_lag(sim, c));
        }
        if done && !have_msgs {
            // Every write completed and every consequence has been
            // delivered: a terminal state. Remaining timers are the
            // protocol's steady-state ticks.
            return Vec::new();
        }
        if !have_msgs && timer_steps < self.cfg.max_timer_steps {
            // Message quiescence: time may pass. Earliest timer per
            // node (they are already sorted by (at, seq)).
            let mut nodes: HashSet<NodeId> = HashSet::new();
            for e in &pending {
                if let PendingKind::Timer { node, .. } = e.kind {
                    if nodes.insert(node) {
                        choices.push(Choice::Deliver {
                            seq: e.seq,
                            kind: e.kind.clone(),
                        });
                    }
                }
            }
        }
        if !done {
            if crashes_used < self.cfg.max_crashes {
                // A crash is explored at the points where it is
                // distinguishable: just before the node would receive
                // something.
                for node in 0..self.spec.replicas as NodeId {
                    if sim.is_up(node) && inbound.contains(&node) {
                        choices.push(Choice::Crash { node });
                    }
                }
            }
            for node in 0..self.spec.replicas as NodeId {
                if !sim.is_up(node) {
                    choices.push(Choice::Recover { node });
                }
            }
        }
        choices
    }
}

/// Early-claim delivery class of a choice: 0 for anything but a COMMIT,
/// 1 for a COMMIT to a server hosting an update agent (a waiter who will
/// hear of it and claim), 2 for a COMMIT to any other server.
fn commit_lag(sim: &Simulation, choice: &Choice) -> u8 {
    let Choice::Deliver {
        seq,
        kind: PendingKind::Message { to, .. },
    } = choice
    else {
        return 0;
    };
    let tag = sim.pending_payload(*seq).and_then(|p| p.first().copied());
    if tag.map(marp_core::wire_tag_name) != Some("commit") {
        return 0;
    }
    let hosts_waiter = sim
        .process::<MarpNode>(*to)
        .is_some_and(|node| node.resident_agents() > 0);
    if hosts_waiter {
        1
    } else {
        2
    }
}
