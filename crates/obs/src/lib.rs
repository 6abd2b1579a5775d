//! Observability for the MARP simulation workspace.
//!
//! The protocol crates emit causal [`marp_sim::TraceEvent::SpanStart`] /
//! [`SpanEnd`](marp_sim::TraceEvent::SpanEnd) /
//! [`SpanLink`](marp_sim::TraceEvent::SpanLink) records alongside the
//! existing protocol events; this crate turns a recorded
//! [`marp_sim::TraceLog`] into things a human can look at:
//!
//! * [`spans`] — reconstructs the span trees (request → dispatch →
//!   migrate×k → lock-acquired → update-quorum → commit);
//! * [`store`] — a versioned binary on-disk trace format
//!   (`--trace-out` writes it, `marp-trace` reads it);
//! * [`registry`] — per-node counters/histograms plus sampled gauges,
//!   exportable as CSV;
//! * [`perfetto`] — Chrome `trace_event` JSON for `chrome://tracing` /
//!   the Perfetto UI, one track per node and per agent;
//! * [`journey`] — plain-text per-agent timelines;
//! * [`critical`] — the commit-latency critical-path analyzer
//!   (queueing / network / lock-wait / quorum-wait buckets);
//! * [`flags`] — the shared `--trace-out` flag of the lab binary and
//!   the examples.
//!
//! The **marp-prof** layer builds on those to answer *where does commit
//! cost go as the cluster grows*:
//!
//! * [`profile`] — folds a trace's span trees into a flamegraph-style
//!   profile (inclusive/exclusive time + shipped bytes per span path,
//!   per node and per agent, collapsed-stack text and JSON);
//! * [`sweep`] — per-phase scaling table across replica counts with a
//!   fitted growth exponent per metric;
//! * [`diff`] — stable, machine-readable comparison of two profiles or
//!   two sweeps (which phases grew, which exponents steepened);
//! * [`diagnose`] — rule-based cliff diagnosis over a sweep (lock-queue
//!   convoy, wire-byte growth by component, migration storm vs Theorem 3,
//!   generic superlinear phases), ranked with cited evidence.
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
pub mod flags;
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
pub use flags::ObsOptions;
pub use journey::Journeys;
pub use json::Json;
pub use perfetto::{export as perfetto_export, export_string as perfetto_export_string};
pub use profile::{PathStats, Profile};
pub use registry::{GaugeSample, MetricsRegistry, NodeMetrics};
pub use spans::{Span, SpanSet};
pub use store::{decode_trace, encode_trace, load_trace, save_trace};
pub use sweep::{SweepPoint, SweepReport, LT_ENTRIES_KIND};
