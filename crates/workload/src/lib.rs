//! Workload generation for the MARP reproduction.
//!
//! * [`ArrivalProcess`] — exponential (the paper's generator) and
//!   bursty (two-state MMPP) inter-arrival streams.
//! * [`OpMix`] / [`KeyDist`] — read/write ratios over uniform, Zipf,
//!   hotspot, or single-key spaces.
//! * [`WorkloadSource`] — the combination, bounded by count and/or
//!   virtual time, implementing [`marp_replica::RequestSource`] so it
//!   plugs straight into a client process.
//!
//! [`WorkloadSource::paper_writes`] reproduces the evaluation workload
//! of Figures 2–4: write-only requests with exponential inter-arrival
//! times, one stream per replica server.

#![warn(missing_docs)]

mod arrival;
mod mix;
mod source;

pub use arrival::{ArrivalGen, ArrivalProcess};
pub use mix::{KeyDist, OpGen, OpMix};
pub use source::WorkloadSource;
