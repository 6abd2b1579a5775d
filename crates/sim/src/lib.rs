//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the execution substrate for the MARP reproduction (see
//! the workspace `DESIGN.md`). The paper ran its prototype on IBM Aglets
//! over a LAN of SUN workstations; this kernel replaces that testbed with
//! a reproducible virtual one:
//!
//! * [`SimTime`] — virtual nanoseconds; the wall clock is never consulted.
//! * [`Process`] / [`Context`] — the sans-io state-machine model all
//!   protocol code is written against (also driven by `marp-threaded`
//!   under real OS threads).
//! * [`Simulation`] — the event loop: a single time-ordered queue with
//!   stable tie-breaking, fail-stop crash/recovery controls, and a
//!   structured [`TraceLog`].
//! * [`SimRng`] and the [`dist`] module — seeded randomness and the
//!   distributions the paper's workloads need (exponential arrivals,
//!   Zipf keys, log-normal link jitter).
//!
//! # Example
//!
//! ```
//! use bytes::Bytes;
//! use marp_sim::{
//!     impl_as_any, Context, FixedDelay, NodeId, Process, SimTime, Simulation, TraceLevel,
//! };
//! use std::time::Duration;
//!
//! struct Counter(u32);
//! impl Process for Counter {
//!     fn on_message(&mut self, _from: NodeId, _msg: Bytes, _ctx: &mut dyn Context) {
//!         self.0 += 1;
//!     }
//!     impl_as_any!();
//! }
//!
//! let mut sim = Simulation::new(
//!     Box::new(FixedDelay(Duration::from_millis(1))),
//!     TraceLevel::Protocol,
//! );
//! let node = sim.add_process(Box::new(Counter(0)));
//! sim.schedule_external(SimTime::from_millis(5), node, Bytes::from_static(b"hi"));
//! sim.run_to_quiescence();
//! assert_eq!(sim.process::<Counter>(node).unwrap().0, 1);
//! ```

#![warn(missing_docs)]

pub mod dist;
mod engine;
mod process;
mod rng;
mod time;
pub mod trace;

pub use engine::{Control, FixedState, PendingEvent, PendingKind, RunStats, Simulation, EXTERNAL};
pub use process::{
    Context, Delivery, FixedDelay, NodeId, Process, RecordingCtx, TimerId, Transport,
};
pub use rng::{splitmix64, SimRng};
pub use time::{duration_nanos, scale_duration, SimTime};
pub use trace::{
    agent_key, agent_key_parts, span_id, AgentKey, SpanId, SpanKey, SpanKind, TraceEvent,
    TraceLevel, TraceLog, TraceRecord,
};
