//! The shared coordination kernel.
//!
//! Every protocol in this workspace — the MARP update agent as well as
//! the four message-passing baselines — runs the same three
//! mechanisms under different names: it *broadcasts a question and
//! collects per-node replies until a success predicate fires or the
//! round dies* ([`QuorumCall`]), it *backs off and retries failed
//! rounds with a deterministic per-node stagger* ([`RetryPolicy`]), and
//! it *multiplexes several logical timers over the single
//! `Context::set_timer` tag space* ([`TimerMux`]). This crate extracts
//! those mechanisms once, sans-io: nothing here sends messages or arms
//! timers, it only decides — the owning process performs the I/O.
//!
//! The crate depends only on `marp-sim` (for `NodeId`/`SimTime`). No
//! call state travels: an agent's ack round lives in a phase it never
//! leaves its host in, so nothing here has a wire form.

mod call;
mod mux;
mod retry;

pub use call::{QuorumCall, SuccessRule, Verdict};
pub use mux::{TimerKind, TimerMux};
pub use retry::{Growth, RetryPolicy};
