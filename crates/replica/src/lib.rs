//! Replicated-server substrate.
//!
//! Everything a replication protocol node needs short of the protocol
//! itself, shared between the MARP implementation (`marp-core`) and the
//! message-passing baselines (`marp-baselines`):
//!
//! * [`VersionedStore`] — in-order application of versioned commits
//!   (one global chain for the baselines, or one chain per object key
//!   for MARP), with buffering and anti-entropy for recovering replicas.
//! * [`LockingList`] / [`LockTable`] / [`UpdatedList`] — the paper's
//!   per-server coordination structures (§3.2) generalized to one FIFO
//!   queue per object key, with lock leases for crash safety.
//! * [`ServerCore`] — client intake (local reads, queued writes), commit
//!   application with client replies, recovery pulls.
//! * [`RequestBatcher`] — the paper's "after a pre-defined number of
//!   requests or periodically, a mobile agent is dispatched".
//! * [`ClientProcess`] — client nodes issuing workloads and measuring
//!   latencies.

#![warn(missing_docs)]
#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

mod batch;
mod client;
mod locking;
mod msg;
mod server;
mod store;

pub use batch::{BatchConfig, RequestBatcher};
pub use client::{
    ClientProcess, ClientStats, ClientWrapFn, RequestSource, RetryConfig, ScriptedSource,
};
pub use locking::{LlSnapshot, LockEntry, LockTable, LockingList, UpdatedList};
pub use msg::{request_id, ClientReply, ClientRequest, Operation, SyncMsg, WriteRequest};
pub use server::{ClientAction, FreshReadRequest, ServerConfig, ServerCore, SyncWrapFn};
pub use store::{CommitRecord, StoredValue, VersionedStore};
