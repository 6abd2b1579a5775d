//! `marp-mcheck` — a bounded exhaustive model checker for the sans-io
//! protocol implementations in this workspace.
//!
//! The experiment harness (`marp-lab`) runs each protocol under *one*
//! randomized schedule per seed and audits the trace afterwards. This
//! crate instead drives the deterministic simulator through its
//! controlled-scheduler API ([`marp_sim::Simulation::pending_events`] /
//! [`marp_sim::Simulation::step_event`]) and enumerates *all* schedules
//! of a small deployment — every order of message deliveries, quiescent
//! timer firings, and injected crash/recovery points — checking the
//! paper's invariants (Theorems 1–3 plus order preservation) at every
//! intermediate state with [`marp_metrics::InvariantMonitor`].
//!
//! Exploration is a stateless-search DFS: the simulator is replayed
//! from the initial state along the current path prefix whenever the
//! search backtracks. Two reductions keep small configurations
//! tractable:
//!
//! * **Sleep sets** keyed on the receiving node: two deliveries to
//!   different nodes commute, so only one order is explored.
//! * A **preemption bound** (CHESS-style): deviating from the
//!   canonical lowest-sequence-first order costs one preemption, and
//!   paths are explored in order of increasing preemption count with a
//!   configurable cap. `--preemptions full` lifts the cap.
//!
//! Every scheduler here — the explorer, [`replay`] and the targeted
//! schedule families — steps a model one way and in one canonical
//! order (see [`explore`]), so a replay's tail after its last recorded
//! step is the canonical run.
//!
//! When a check fails, the offending schedule is shrunk by greedy
//! event deletion ([`schedule::shrink`]), written as a replayable text
//! file, and that file is replayed to prove it reproduces; `marp-mcheck
//! replay <file>` re-executes it step by step. Its header lines and the
//! CLI's model flags are one vocabulary ([`ModelSpec::set`]).

pub mod explore;
pub mod model;
pub mod schedule;

pub use explore::{CheckConfig, Choice, Counterexample, Explorer, Report};
pub use model::{Chaos, Family, MailLoss, ModelSpec, OneShotWriter};
pub use schedule::{
    agent_loss_schedule, early_claim_crash_schedule, from_text, replay, shrink, to_text,
    ReplayOutcome,
};
