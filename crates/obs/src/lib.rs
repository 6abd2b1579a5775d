//! Observability for the MARP simulation workspace.
//!
//! The protocol crates emit causal [`marp_sim::TraceEvent::SpanStart`] /
//! [`SpanEnd`](marp_sim::TraceEvent::SpanEnd) /
//! [`SpanLink`](marp_sim::TraceEvent::SpanLink) records alongside the
//! existing protocol events; this crate turns a recorded
//! [`marp_sim::TraceLog`] into things a human can look at (span trees,
//! stored traces, per-node metrics, a Perfetto export, agent journeys,
//! the commit-latency critical path), and its **marp-prof** modules
//! answer *where does commit cost go as the cluster grows* (`profile`,
//! `sweep`, `diff`, `diagnose`). Each module's own doc says what it does.
//!
//! Unlike the protocol crates this one is *not* sans-io: it owns file
//! I/O (trace stores, CSV dumps) on behalf of the binaries, and ships
//! the `marp-trace` reader, which runs no simulation and so builds
//! without the protocol crates.

#![warn(missing_docs)]
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

pub mod critical;
pub mod diagnose;
pub mod diff;
pub mod journey;
pub mod json;
pub mod perfetto;
pub mod profile;
pub mod registry;
pub mod spans;
pub mod store;
pub mod sweep;

pub use critical::{CriticalPathReport, PathBreakdown};
pub use diagnose::{Diagnosis, Severity, Verdict};
pub use diff::{MetricDelta, PathDelta, ProfileDiff, SweepDiff};
pub use journey::Journeys;
pub use json::Json;
pub use perfetto::export as perfetto_export;
pub use profile::{PathStats, Profile};
pub use registry::{GaugeSample, MetricsRegistry, NodeMetrics};
pub use spans::{Span, SpanSet};
pub use store::{decode_trace, encode_trace, load_trace, save_trace};
pub use sweep::{SweepPoint, SweepReport};
