//! The sans-io process model.
//!
//! Protocol logic in this workspace is written as *event-driven state
//! machines* implementing [`Process`]: the kernel (or the threaded
//! runtime in `marp-threaded`) calls the handlers, and all effects —
//! sending messages, arming timers, tracing — go through the [`Context`].
//! Handlers never block and never perform I/O, which is what lets the
//! exact same protocol code run deterministically under the discrete-event
//! engine and concurrently under real OS threads.

use crate::time::SimTime;
use crate::trace::TraceEvent;
use bytes::Bytes;
use std::any::Any;
use std::time::Duration;

/// Identifies a node (host) in the simulated system. The paper numbers
/// its replicated servers 1..N; we use dense indices starting at 0.
pub type NodeId = u16;

/// Handle to a pending timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// The effect interface handed to every [`Process`] callback.
pub trait Context {
    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// The node this process runs on.
    fn me(&self) -> NodeId;

    /// Send an encoded message to another node. Delivery time (and
    /// whether delivery happens at all) is decided by the run's
    /// [`Transport`](crate::Transport).
    fn send(&mut self, to: NodeId, msg: Bytes);

    /// Arm a timer that fires `after` from now, carrying an opaque `tag`
    /// the process uses to tell its timers apart.
    fn set_timer(&mut self, after: Duration, tag: u64) -> TimerId;

    /// Cancel a previously armed timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    fn cancel_timer(&mut self, id: TimerId);

    /// Emit a structured trace event attributed to this node.
    fn trace(&mut self, event: TraceEvent);

    /// Ask the run to stop after the current event.
    fn halt(&mut self);
}

/// An event-driven process (one per node).
///
/// All methods have empty defaults except [`Process::on_message`]; a
/// process implements what it needs. `as_any`/`as_any_mut` enable
/// post-run inspection of process state from tests and experiment
/// harnesses.
pub trait Process: Send {
    /// Called once at simulation start (time zero) before any messages.
    fn on_start(&mut self, _ctx: &mut dyn Context) {}

    /// A message from `from` was delivered.
    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context);

    /// A timer armed by this process fired.
    fn on_timer(&mut self, _timer: TimerId, _tag: u64, _ctx: &mut dyn Context) {}

    /// The failure-detection service reports that `node` went down or
    /// came back up. The paper assumes every process learns of a failure
    /// within finite time; the fault controller implements that bound.
    fn on_node_status(&mut self, _node: NodeId, _up: bool, _ctx: &mut dyn Context) {}

    /// This node just recovered from a fail-stop crash. Volatile state
    /// should be re-initialized here; "stable storage" fields may be
    /// kept, mirroring a process that reboots from disk.
    fn on_recover(&mut self, _ctx: &mut dyn Context) {}

    /// Upcast for post-run inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for post-run inspection.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Implements the `as_any` boilerplate for a [`Process`] type.
#[macro_export]
macro_rules! impl_as_any {
    () => {
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
            self
        }
    };
}

/// Routing decision for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver at the given virtual time.
    Deliver {
        /// Delivery instant (must not precede the send time).
        at: SimTime,
    },
    /// Silently drop (partition, crashed destination, lossy link).
    Drop {
        /// Reason recorded in the trace.
        reason: &'static str,
    },
}

/// The network policy for a run: decides per-message delivery.
///
/// `marp-net` provides implementations built from topologies, link models
/// and fault schedules; the kernel itself is network-agnostic.
pub trait Transport: Send {
    /// Route one message of `size` encoded bytes sent at `now`.
    fn route(&mut self, now: SimTime, from: NodeId, to: NodeId, size: usize) -> Delivery;
}

/// The trivial transport: every message arrives after a fixed delay.
/// Useful for kernel tests and microbenchmarks.
#[derive(Debug, Clone, Copy)]
pub struct FixedDelay(pub Duration);

impl Transport for FixedDelay {
    fn route(&mut self, now: SimTime, _from: NodeId, _to: NodeId, _size: usize) -> Delivery {
        Delivery::Deliver { at: now + self.0 }
    }
}

/// A [`Context`] that records what a process asks of it, for tests that
/// drive a handler directly rather than through a
/// [`Simulation`](crate::Simulation): `now` and `me` are what the test
/// sets them to, nothing is delivered and no timer fires.
#[derive(Debug, Default)]
pub struct RecordingCtx {
    /// What [`Context::now`] answers.
    pub now: SimTime,
    /// What [`Context::me`] answers.
    pub me: NodeId,
    /// Every message sent, in order.
    pub sent: Vec<(NodeId, Bytes)>,
    /// Every event traced, in order.
    pub traced: Vec<TraceEvent>,
    /// Every timer armed, as `(delay, tag)`. Its id is its position in
    /// this list when it was armed, from 1.
    pub armed: Vec<(Duration, u64)>,
}

impl RecordingCtx {
    /// A context for node `me` whose clock reads `now`.
    pub fn new(me: NodeId, now: SimTime) -> Self {
        RecordingCtx {
            now,
            me,
            ..RecordingCtx::default()
        }
    }

    /// The messages sent, decoded as `T`. Panics on one that is not a
    /// `T`.
    pub fn sent_as<T: marp_wire::Wire>(&self) -> Vec<(NodeId, T)> {
        self.sent
            .iter()
            .map(|(to, msg)| {
                (
                    *to,
                    marp_wire::from_bytes(msg).expect("a decodable message"),
                )
            })
            .collect()
    }
}

impl Context for RecordingCtx {
    fn now(&self) -> SimTime {
        self.now
    }
    fn me(&self) -> NodeId {
        self.me
    }
    fn send(&mut self, to: NodeId, msg: Bytes) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, after: Duration, tag: u64) -> TimerId {
        self.armed.push((after, tag));
        TimerId(self.armed.len() as u64)
    }
    fn cancel_timer(&mut self, _id: TimerId) {}
    fn trace(&mut self, event: TraceEvent) {
        self.traced.push(event);
    }
    fn halt(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_ctx_records_sends_timers_and_traces() {
        let mut ctx = RecordingCtx::new(3, SimTime::from_millis(7));
        assert_eq!((ctx.me(), ctx.now()), (3, SimTime::from_millis(7)));
        ctx.send(1, marp_wire::to_bytes(&42u64));
        let first = ctx.set_timer(Duration::from_millis(5), 11);
        let second = ctx.set_timer(Duration::from_millis(6), 12);
        ctx.trace(TraceEvent::NodeUp(3));
        assert_eq!(ctx.sent_as::<u64>(), [(1, 42)]);
        assert_eq!((first, second), (TimerId(1), TimerId(2)));
        assert_eq!(ctx.armed[1], (Duration::from_millis(6), 12));
        assert_eq!(ctx.traced, [TraceEvent::NodeUp(3)]);
    }

    #[test]
    fn fixed_delay_routes_uniformly() {
        let mut t = FixedDelay(Duration::from_millis(2));
        let d = t.route(SimTime::from_millis(10), 0, 1, 100);
        assert_eq!(
            d,
            Delivery::Deliver {
                at: SimTime::from_millis(12)
            }
        );
    }

    #[test]
    fn timer_ids_are_ordered() {
        assert!(TimerId(1) < TimerId(2));
    }
}
