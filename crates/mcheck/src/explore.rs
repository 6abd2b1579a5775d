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
//! the canonical order — COMMITs travel last, and reach servers
//! hosting a waiting agent first — and lets a COMMIT be overtaken on
//! its own link (a jittered link keeps no per-link order either), so
//! the handoff race sits on the zero-preemption path even when the
//! winner and its successor share a host.
//!
//! On top of those, an optional **preemption bound** (CHESS-style)
//! caps how many times a path may deviate from the canonical
//! lowest-sequence-first order. Small bounds find realistic bugs at a
//! tiny fraction of the unbounded cost; `--preemptions full` removes
//! the cap.
//!
//! The explorer is *stateless* in the model-checking sense: it keeps
//! one live `Run` and, on backtrack, rebuilds it by replaying the
//! choice prefix (cheap — a few hundred dispatches — and free of any
//! requirement that protocol state be cloneable or hashable).
//!
//! There is one way to drive a model. `Run::step` takes every step —
//! the explorer's, its backtracking's, [`replay`](crate::replay)'s and
//! the targeted schedule families' — and `Explorer::enabled` is the
//! only code that picks which pending event runs next. The **canonical
//! step** is the first delivery it offers, never a fault: the canonical
//! schedule, `replay`'s drain and the targeted families all take it, so
//! a replayed tail is the canonical run (in the early-claim family's
//! order too). A new scheduling family is one [`Choice`] variant, one
//! `enabled` entry and one `Run::step` arm.

use crate::model::ModelSpec;
use marp_core::MarpNode;
use marp_metrics::{InvariantMonitor, Violation};
use marp_sim::{Control, NodeId, PendingKind, Simulation, TraceRecord};
use std::collections::HashSet;
use std::ops::Range;

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

/// One live execution of a model: its simulation, with the Start
/// events already run (process starts commute — each touches only its
/// own node — so their order is not worth exploring), and the invariant
/// monitor fed after every step.
pub(crate) struct Run {
    spec: ModelSpec,
    pub(crate) sim: Simulation,
    pub(crate) monitor: InvariantMonitor,
    /// The last step's trace records (the monitor has seen them all).
    last: Range<usize>,
    /// State-invariant violations so far, each once: a broken state
    /// usually persists over many steps.
    state_violations: Vec<Violation>,
}

impl Run {
    pub(crate) fn new(spec: ModelSpec) -> Run {
        let mut sim = spec.build();
        for e in sim.pending_events() {
            if matches!(e.kind, PendingKind::Start { .. }) {
                sim.step_event(e.seq);
            }
        }
        let mut monitor = spec.monitor();
        let records = sim.trace().records();
        monitor.observe_all(records);
        Run {
            last: records.len()..records.len(),
            spec,
            sim,
            monitor,
            state_violations: Vec::new(),
        }
    }

    /// Take one step, then feed the monitor and check the state
    /// invariants. Returns false, changing nothing, when the step does
    /// not apply: its event is not queued, or it crashes a replica that
    /// is down or recovers one that is up.
    pub(crate) fn step(&mut self, choice: &Choice) -> bool {
        let taken = self.retake(choice);
        if taken {
            for v in self.spec.state_violations(&self.sim) {
                if !self.state_violations.contains(&v) {
                    self.state_violations.push(v);
                }
            }
        }
        taken
    }

    /// [`Run::step`] without the state check, for re-taking a prefix
    /// whose states were checked when it was first taken.
    fn retake(&mut self, choice: &Choice) -> bool {
        let taken = match *choice {
            Choice::Deliver { seq, .. } => self.sim.step_event(seq),
            Choice::Crash { node } => self.set_up(node, false),
            Choice::Recover { node } => self.set_up(node, true),
        };
        if taken {
            self.last = self.last.end..self.sim.trace().records().len();
            let records = &self.sim.trace().records()[self.last.clone()];
            self.monitor.observe_all(records);
        }
        taken
    }

    /// [`Run::step`] for a choice that must apply: one `enabled`
    /// offered.
    fn take(&mut self, choice: &Choice) {
        let taken = self.step(choice);
        debug_assert!(taken, "{choice:?} was not enabled");
    }

    /// Crash or recover `node` now, and enqueue failure-detector
    /// notifications to every other replica. The notifications are
    /// ordinary queued events, so *when* each replica learns of the
    /// change is part of the explored schedule — the controlled-schedule
    /// equivalent of `FaultPlan`'s fixed detection delay.
    fn set_up(&mut self, node: NodeId, up: bool) -> bool {
        if self.sim.is_up(node) == up {
            return false;
        }
        self.sim.apply_control_now(Control::SetNodeUp { node, up });
        let now = self.sim.now();
        for to in (0..self.spec.replicas as NodeId).filter(|&to| to != node) {
            let notify = Control::Notify {
                to,
                about: node,
                up,
            };
            self.sim.schedule_control(now, notify);
        }
        true
    }

    /// The trace records the last step appended.
    pub(crate) fn last_step(&self) -> &[TraceRecord] {
        &self.sim.trace().records()[self.last.clone()]
    }

    /// Every violation so far: the monitor's, then the state invariants'.
    pub(crate) fn violations(&self) -> Vec<Violation> {
        let mut all = self.monitor.violations().to_vec();
        all.extend(self.state_violations.iter().cloned());
        all
    }
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
        let mut run = Run::new(self.spec);
        let mut path: Vec<Choice> = Vec::new();
        let mut stack = vec![Frame {
            choices: self.enabled(&mut run, 0, 0),
            next: 0,
            explored: Vec::new(),
            sleep: Vec::new(),
            preemptions: 0,
            timer_steps: 0,
            crashes_used: 0,
        }];
        // Whether `run` is past the state `path` reaches.
        let mut stale = false;

        loop {
            // Retreat from exhausted frames, then rebuild the live run
            // once for the state whose next sibling comes up.
            while stack.last().is_some_and(|f| f.next >= f.choices.len()) {
                stack.pop();
                path.pop();
                stale = true;
            }
            if stack.is_empty() {
                break;
            }
            if stale {
                run = self.rebuild(&path);
                stale = false;
            }
            if report.transitions >= self.cfg.max_transitions {
                report.complete = false;
                break;
            }

            let top = stack.len() - 1;
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

            run.take(&choice);
            report.transitions += 1;
            path.push(choice);
            report.max_depth_seen = report.max_depth_seen.max(path.len());

            let violations = run.violations();
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
                self.enabled(&mut run, crashes_used, timer_steps)
            };
            let terminal = all.is_empty();
            let choices: Vec<Choice> = all.into_iter().filter(|c| !sleep.contains(c)).collect();

            if terminal {
                // A genuine frontier state: nothing is deliverable.
                report.paths += 1;
                let lost = run.monitor.quiescent_violations();
                if !lost.is_empty() {
                    report.violation = Some(Counterexample {
                        schedule: path.clone(),
                        violations: lost,
                    });
                    break;
                }
                if run.monitor.completed_requests() >= self.spec.agents {
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
                stale = true;
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
    /// take the canonical step until a terminal state (or the depth
    /// limit). This is the zero-preemption path — the schedule a plain
    /// event-loop run would take — and is what `marp-mcheck sample`
    /// writes for the regression corpus.
    pub fn canonical_schedule(&self) -> Vec<Choice> {
        self.canonical_run(&mut Run::new(self.spec), |_| false).0
    }

    /// Take canonical steps on `run` until none is enabled,
    /// [`CheckConfig::max_depth`] of them are taken, or `stop` accepts
    /// the run after one. Timer fires count against
    /// [`CheckConfig::max_timer_steps`] from this call's first step.
    /// Returns the steps, and whether `stop` ended them.
    pub(crate) fn canonical_run(
        &self,
        run: &mut Run,
        mut stop: impl FnMut(&Run) -> bool,
    ) -> (Vec<Choice>, bool) {
        let mut path = Vec::new();
        let mut timer_steps = 0u32;
        while path.len() < self.cfg.max_depth {
            let Some(choice) = self.canonical_step(run, timer_steps) else {
                break;
            };
            timer_steps += u32::from(choice.is_timer());
            path.push(choice);
            if stop(run) {
                return (path, true);
            }
        }
        (path, false)
    }

    /// Take the canonical step: the first choice `enabled` offers, when
    /// it is a delivery (a fault is never canonical).
    fn canonical_step(&self, run: &mut Run, timer_steps: u32) -> Option<Choice> {
        let first = self.enabled(run, 0, timer_steps).into_iter().next();
        let choice = first.filter(|c| matches!(c, Choice::Deliver { .. }))?;
        run.take(&choice);
        Some(choice)
    }

    /// Rebuild the live run for a choice prefix (backtracking).
    /// Sequence numbers are a pure function of execution history, so
    /// recorded `Deliver` seqs resolve exactly; every state on the
    /// prefix passed the state check when the search first reached it.
    fn rebuild(&self, path: &[Choice]) -> Run {
        let mut run = Run::new(self.spec);
        for choice in path {
            let retaken = run.retake(choice);
            debug_assert!(retaken, "{choice:?} does not replay");
        }
        run
    }

    /// Enumerate the enabled choices at the current state, in canonical
    /// order: deliverable messages and controls (sequence order, oldest
    /// per FIFO channel, an early-claim COMMIT aside), then — only at
    /// message quiescence — the earliest live timer per node, then
    /// crash/recover injections.
    /// The only code that picks which pending event runs next.
    fn enabled(&self, run: &mut Run, crashes_used: usize, timer_steps: u32) -> Vec<Choice> {
        let sim = &mut run.sim;
        let pending = sim.pending_events();
        let done = self.spec.finished(run.monitor.completed_requests());
        let mut choices = Vec::new();
        let mut channels: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut inbound: HashSet<NodeId> = HashSet::new();
        let mut have_msgs = false;
        for e in &pending {
            match &e.kind {
                PendingKind::Message { from, to, .. } => {
                    have_msgs = true;
                    inbound.insert(*to);
                    // In the early-claim family a COMMIT is slow: it
                    // neither waits its turn on its link nor holds back
                    // what was sent after it.
                    let slow = self.spec.early_claims && is_commit(sim, e.seq);
                    if slow || channels.insert((*from, *to)) {
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
    if !is_commit(sim, *seq) {
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

/// Whether the pending event `seq` is a COMMIT message.
fn is_commit(sim: &Simulation, seq: u64) -> bool {
    let tag = sim.pending_payload(seq).and_then(|p| p.first().copied());
    tag.map(marp_core::wire_tag_name) == Some("commit")
}
