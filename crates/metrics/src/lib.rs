//! Measurement and auditing for the MARP reproduction.
//!
//! * [`Samples`], [`LogHistogram`] — exact and bucketed sample
//!   statistics.
//! * [`PaperMetrics`] — the paper's ALT / ATT / PRK metrics (§4),
//!   extracted from a run's trace.
//! * [`audit`] — the post-run consistency auditor that machine-checks
//!   order preservation, single-committer-per-version, and the
//!   Theorem 3 visit bounds ([`theorem3_visits`]) on every run.
//! * [`InvariantMonitor`] — the incremental form of the auditor: feed
//!   it trace records as they appear and query violations at any
//!   point, which is what lets the model checker (`marp-mcheck`)
//!   assert the invariants at every intermediate state.
//! * [`Table`] — aligned text rendering for experiment output.

#![warn(missing_docs)]

mod audit;
mod monitor;
mod paper;
mod report;
mod stats;

pub use audit::{audit, audit_keyed, AuditReport, Violation};
pub use monitor::{theorem3_visits, InvariantMonitor};
pub use paper::PaperMetrics;
pub use report::{fmt_ms, fmt_pct, Table};
pub use stats::{LogHistogram, Samples};
