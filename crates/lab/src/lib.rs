//! Experiment harness for the MARP reproduction.
//!
//! A [`Scenario`] fully describes one run (protocol, cluster, topology,
//! workload, faults, seed); [`run_scenario`] executes it and returns
//! metrics + audit; [`run_sweep`] fans independent scenarios out across
//! cores. Every figure of the paper's evaluation and every extension
//! experiment is a row of [`EXPERIMENTS`], run by the `marp-lab` binary:
//! `cargo run -p marp-lab --release -- fig2_alt`, and `marp-lab list`
//! for the index.

#![warn(missing_docs)]

mod experiments;
mod flags;
mod prof;
mod scenario;
mod sweep;

pub use experiments::{results, Experiment, EXPERIMENTS};
pub use flags::ObsOptions;
pub use scenario::{
    run_scenario, run_scenario_traced, LinkKind, ProtocolKind, RunOutcome, Scenario, TopologyKind,
};
pub use sweep::{run_sweep, run_sweep_traced};

/// Seeds pooled per sweep point.
pub const PAPER_SEEDS: &[u64] = &[101, 202, 303];
