//! Mobile-agent emulation runtime.
//!
//! The paper's protocol is "written from the point of view of the
//! navigating mobile agents" (§3.1). This crate supplies that navigation
//! layer without real code mobility (see `DESIGN.md` — the repro band
//! prescribes emulating agents as migrating state messages):
//!
//! * [`AgentId`] — home + creation time + sequence, totally ordered, as
//!   the paper's tie-break rule requires.
//! * [`AgentBehavior`] — the serializable state machine that *is* the
//!   agent; its handlers run at whichever host currently holds the state.
//! * [`AgentRuntime`] — per-host hosting: migration as
//!   serialize/ship/ack, timeout-driven retries, and the paper's
//!   declare-unavailable rule.
//! * [`Itinerary`] — the Un-visited Servers List with pluggable ordering
//!   policies (cost-sorted, fixed, random) for ablation experiment E9.

#![warn(missing_docs)]
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

mod behavior;
mod envelope;
mod horizon;
mod id;
mod itinerary;
mod runtime;

pub use behavior::{Action, AgentBehavior, AgentEnv, WrapFn};
pub use envelope::AgentEnvelope;
pub use horizon::Horizon;
pub use id::AgentId;
pub use itinerary::{Itinerary, ItineraryPolicy};
pub use runtime::{AgentConfig, AgentRuntime};
