//! `marp-benchmark`: the repo's benchmark. Two clocks — virtual time
//! (how good the protocol is) and host time (how good the implementation
//! is) — over six workloads, with a per-layer ledger measured from
//! outside through the crates' `pub` items. See `README.md`.

#![warn(missing_docs)]

pub mod alloc;
pub mod endtoend;
pub mod facts;
pub mod ladder;
pub mod layers;
pub mod rebuild;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
