//! The discrete-event engine.
//!
//! A [`Simulation`] owns a set of [`Process`]es (one per node), a
//! [`Transport`] policy that prices every message, and a single
//! time-ordered event queue. Ties are broken by insertion sequence, so a
//! run is a pure function of (processes, transport, seed, schedule) —
//! re-running with the same inputs replays the identical event history.

use crate::process::{Context, Delivery, NodeId, Process, TimerId, Transport};
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceLevel, TraceLog};
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashSet};
use std::hash::BuildHasherDefault;
use std::time::Duration;

/// The hasher of the maps a run churns. Its keys are fixed: under
/// `RandomState`, when a map regrows — and so how many allocations a
/// run makes — would follow the process's hash seed.
pub type FixedState = BuildHasherDefault<DefaultHasher>;

/// Out-of-band control actions, scheduled by fault controllers and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Control {
    /// Fail-stop crash (`up = false`) or recovery (`up = true`) of a node.
    SetNodeUp {
        /// Affected node.
        node: NodeId,
        /// New liveness.
        up: bool,
    },
    /// Deliver a failure-detector notification to `to` about `about`.
    Notify {
        /// Node receiving the notification.
        to: NodeId,
        /// Node the notification concerns.
        about: NodeId,
        /// Reported liveness of `about`.
        up: bool,
    },
    /// Stop the run at this instant.
    Halt,
}

#[derive(Debug)]
enum EventKind {
    Start(NodeId),
    Message {
        from: NodeId,
        to: NodeId,
        payload: Bytes,
    },
    Timer {
        node: NodeId,
        epoch: u32,
        timer: TimerId,
        tag: u64,
    },
    Control(Control),
}

struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

enum Effect {
    Send { to: NodeId, msg: Bytes },
    Timer { at: SimTime, id: TimerId, tag: u64 },
    Cancel(TimerId),
    Trace(TraceEvent),
}

struct EngineCtx<'a> {
    now: SimTime,
    me: NodeId,
    effects: &'a mut Vec<Effect>,
    next_timer: &'a mut u64,
    halt: &'a mut bool,
}

impl Context for EngineCtx<'_> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn me(&self) -> NodeId {
        self.me
    }
    fn send(&mut self, to: NodeId, msg: Bytes) {
        self.effects.push(Effect::Send { to, msg });
    }
    fn set_timer(&mut self, after: Duration, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.effects.push(Effect::Timer {
            at: self.now + after,
            id,
            tag,
        });
        id
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::Cancel(id));
    }
    fn trace(&mut self, event: TraceEvent) {
        self.effects.push(Effect::Trace(event));
    }
    fn halt(&mut self) {
        *self.halt = true;
    }
}

/// A queued event, as seen by a controlled scheduler (`marp-mcheck`).
///
/// `seq` is the queue insertion sequence — unique for the lifetime of a
/// simulation and a pure function of the execution history, so two runs
/// that made the same scheduling choices assign the same `seq` to the
/// same event. That makes it a stable identity for
/// [`Simulation::step_event`] and for recorded schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingEvent {
    /// Stable identity of the queued event.
    pub seq: u64,
    /// The virtual time the default scheduler would run it at.
    pub at: SimTime,
    /// What the event is.
    pub kind: PendingKind,
}

/// The observable shape of a queued event (payloads elided).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PendingKind {
    /// `on_start` of a node (queued lazily when a run begins).
    Start {
        /// Node to start.
        node: NodeId,
    },
    /// A message in flight.
    Message {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Encoded payload size.
        bytes: usize,
    },
    /// A live (not cancelled, not superseded-by-crash) timer.
    Timer {
        /// Owning node.
        node: NodeId,
        /// The tag the owner armed it with.
        tag: u64,
    },
    /// A scheduled control action.
    Control(Control),
}

impl PendingKind {
    /// The node whose state this event would touch when executed — the
    /// dependency key for partial-order reduction. `None` for `Halt`.
    pub fn receiver(&self) -> Option<NodeId> {
        match self {
            PendingKind::Start { node } | PendingKind::Timer { node, .. } => Some(*node),
            PendingKind::Message { to, .. } => Some(*to),
            PendingKind::Control(Control::SetNodeUp { node, .. }) => Some(*node),
            PendingKind::Control(Control::Notify { to, .. }) => Some(*to),
            PendingKind::Control(Control::Halt) => None,
        }
    }
}

/// Aggregate counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Events processed (all kinds).
    pub events: u64,
    /// Messages submitted to the transport.
    pub messages_sent: u64,
    /// Messages handed to destination processes.
    pub messages_delivered: u64,
    /// Messages dropped by the transport or dead destinations.
    pub messages_dropped: u64,
    /// Total encoded bytes submitted.
    pub bytes_sent: u64,
    /// Timer callbacks invoked.
    pub timers_fired: u64,
    /// Bytes of serialized agent state shipped in migrations, including
    /// retries (`TraceEvent::AgentStateShipped`). Counts the behaviour
    /// state alone, not the enclosing envelope or message framing.
    pub agent_bytes_migrated: u64,
    /// Bytes submitted to the transport per message kind, indexed by the
    /// message's leading tag byte (kinds ≥ 15 share the last bucket).
    /// For MARP traffic the index is the `NodeMsg` wire tag.
    pub bytes_by_kind: [u64; 16],
    /// Virtual time when the run stopped.
    pub finished_at: SimTime,
}

impl RunStats {
    /// Bytes submitted for messages whose leading wire tag is `tag`.
    pub fn bytes_for_kind(&self, tag: u8) -> u64 {
        self.bytes_by_kind[usize::from(tag.min(15))]
    }
}

/// The node id used as `from` for externally injected messages.
pub const EXTERNAL: NodeId = NodeId::MAX;

/// A deterministic discrete-event simulation.
pub struct Simulation {
    processes: Vec<Box<dyn Process>>,
    alive: Vec<bool>,
    epochs: Vec<u32>,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    next_timer: u64,
    cancelled: HashSet<u64, FixedState>,
    transport: Box<dyn Transport>,
    trace: TraceLog,
    now: SimTime,
    halted: bool,
    started: bool,
    stats: RunStats,
    /// What the running handler asked for; empty between handlers, kept
    /// for its capacity.
    effects: Vec<Effect>,
}

impl Simulation {
    /// Create a simulation over the given transport. `level` is the one
    /// [`TraceLevel`] there is.
    pub fn new(transport: Box<dyn Transport>, _level: TraceLevel) -> Self {
        Simulation {
            processes: Vec::new(),
            alive: Vec::new(),
            epochs: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            next_timer: 0,
            cancelled: HashSet::default(),
            transport,
            trace: TraceLog::new(),
            now: SimTime::ZERO,
            halted: false,
            started: false,
            stats: RunStats::default(),
            effects: Vec::new(),
        }
    }

    /// Register a process; returns its node id (assigned densely from 0).
    pub fn add_process(&mut self, process: Box<dyn Process>) -> NodeId {
        assert!(
            !self.started,
            "processes must be added before the run starts"
        );
        assert!(
            self.processes.len() < usize::from(EXTERNAL),
            "too many nodes"
        );
        let id = self.processes.len() as NodeId;
        self.processes.push(process);
        self.alive.push(true);
        self.epochs.push(0);
        id
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.processes.len()
    }

    /// Schedule a control action.
    pub fn schedule_control(&mut self, at: SimTime, control: Control) {
        self.push_event(at, EventKind::Control(control));
    }

    /// Inject a message from outside the simulated system (sender is
    /// [`EXTERNAL`]); delivered at exactly `at`.
    pub fn schedule_external(&mut self, at: SimTime, to: NodeId, msg: Bytes) {
        self.push_event(
            at,
            EventKind::Message {
                from: EXTERNAL,
                to,
                payload: msg,
            },
        );
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether a node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.alive[usize::from(node)]
    }

    /// The trace accumulated so far.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Consume the simulation, returning its trace (for post-run
    /// analysis without cloning).
    pub fn into_trace(self) -> TraceLog {
        self.trace
    }

    /// Run statistics accumulated so far.
    pub fn stats(&self) -> RunStats {
        let mut s = self.stats;
        s.finished_at = self.now;
        s
    }

    /// Borrow a process for inspection, downcast to its concrete type.
    pub fn process<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.processes
            .get(usize::from(node))?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutably borrow a process, downcast to its concrete type.
    pub fn process_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.processes
            .get_mut(usize::from(node))?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Run until the queue is exhausted or virtual time exceeds `limit`.
    /// Returns the run statistics.
    pub fn run_until(&mut self, limit: SimTime) -> RunStats {
        self.ensure_started();
        while !self.halted {
            let Some(Reverse(head)) = self.queue.peek() else {
                break;
            };
            if head.at > limit {
                self.now = limit;
                break;
            }
            let Reverse(event) = self.queue.pop().expect("peeked");
            // Clock is monotone: a controlled scheduler (`step_event`)
            // may already have advanced `now` past this event's stamp.
            self.now = self.now.max(event.at);
            self.dispatch(event.kind);
            self.stats.events += 1;
        }
        self.stats()
    }

    /// Run until no events remain (caps at `SimTime::MAX`).
    pub fn run_to_quiescence(&mut self) -> RunStats {
        self.run_until(SimTime::MAX)
    }

    /// Controlled-scheduler view of the queue: every event that could
    /// still take effect, sorted by `(at, seq)` (the order the default
    /// scheduler would run them in). Inert events — cancelled timers and
    /// timers armed before the owner's last crash — are filtered out.
    /// Queues the `Start` events first if the run has not begun.
    pub fn pending_events(&mut self) -> Vec<PendingEvent> {
        self.ensure_started();
        let mut out: Vec<PendingEvent> = self
            .queue
            .iter()
            .filter_map(|Reverse(e)| {
                let kind = match &e.kind {
                    EventKind::Start(node) => PendingKind::Start { node: *node },
                    EventKind::Message { from, to, payload } => PendingKind::Message {
                        from: *from,
                        to: *to,
                        bytes: payload.len(),
                    },
                    EventKind::Timer {
                        node,
                        epoch,
                        timer,
                        tag,
                    } => {
                        if self.cancelled.contains(&timer.0)
                            || self.epochs[usize::from(*node)] != *epoch
                        {
                            return None;
                        }
                        PendingKind::Timer {
                            node: *node,
                            tag: *tag,
                        }
                    }
                    EventKind::Control(c) => PendingKind::Control(c.clone()),
                };
                Some(PendingEvent {
                    seq: e.seq,
                    at: e.at,
                    kind,
                })
            })
            .collect();
        out.sort_by_key(|e| (e.at, e.seq));
        out
    }

    /// The encoded payload of the in-flight message `seq`, for
    /// controlled schedulers that pick deliveries by content (a
    /// [`PendingKind::Message`] shows only the endpoints and the size).
    pub fn pending_payload(&self, seq: u64) -> Option<&Bytes> {
        self.queue.iter().find_map(|Reverse(e)| match &e.kind {
            EventKind::Message { payload, .. } if e.seq == seq => Some(payload),
            _ => None,
        })
    }

    /// Execute the queued event identified by `seq` *now*, regardless of
    /// its position in time order. Virtual time advances to
    /// `max(now, event.at)` — a controlled schedule may run events out
    /// of timestamp order, and the clock stays monotone. Returns false
    /// if no such event is queued (already executed, or never existed).
    ///
    /// This ignores `Halt`-induced stops: a controlled scheduler decides
    /// for itself when to stop stepping.
    pub fn step_event(&mut self, seq: u64) -> bool {
        self.ensure_started();
        let mut events: Vec<Event> = std::mem::take(&mut self.queue)
            .into_iter()
            .map(|Reverse(e)| e)
            .collect();
        let Some(pos) = events.iter().position(|e| e.seq == seq) else {
            self.queue = events.into_iter().map(Reverse).collect();
            return false;
        };
        let event = events.swap_remove(pos);
        self.queue = events.into_iter().map(Reverse).collect();
        self.now = self.now.max(event.at);
        self.dispatch(event.kind);
        self.stats.events += 1;
        true
    }

    /// Apply a control action at the current instant (controlled
    /// crash/recover injection), without going through the queue.
    pub fn apply_control_now(&mut self, control: Control) {
        self.ensure_started();
        self.apply_control(control);
        self.stats.events += 1;
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for node in 0..self.processes.len() as NodeId {
            self.push_event(SimTime::ZERO, EventKind::Start(node));
        }
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event { at, seq, kind }));
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start(node) => {
                self.with_process(node, |p, ctx| p.on_start(ctx));
            }
            EventKind::Message { from, to, payload } => {
                if !self.alive[usize::from(to)] {
                    self.stats.messages_dropped += 1;
                    self.trace.push(
                        self.now,
                        to,
                        TraceEvent::MsgDropped {
                            from,
                            to,
                            reason: "destination down",
                        },
                    );
                    return;
                }
                self.stats.messages_delivered += 1;
                self.with_process(to, |p, ctx| p.on_message(from, payload, ctx));
            }
            EventKind::Timer {
                node,
                epoch,
                timer,
                tag,
            } => {
                if self.cancelled.remove(&timer.0) {
                    return;
                }
                // A crash bumps the node's epoch: timers armed before the
                // crash are volatile state and must not fire afterwards.
                if !self.alive[usize::from(node)] || self.epochs[usize::from(node)] != epoch {
                    return;
                }
                self.stats.timers_fired += 1;
                self.with_process(node, |p, ctx| p.on_timer(timer, tag, ctx));
            }
            EventKind::Control(control) => self.apply_control(control),
        }
    }

    fn apply_control(&mut self, control: Control) {
        match control {
            Control::SetNodeUp { node, up } => {
                let idx = usize::from(node);
                if self.alive[idx] == up {
                    return;
                }
                self.alive[idx] = up;
                if up {
                    self.trace.push(self.now, node, TraceEvent::NodeUp(node));
                    self.with_process(node, |p, ctx| p.on_recover(ctx));
                } else {
                    self.epochs[idx] = self.epochs[idx].wrapping_add(1);
                    self.trace.push(self.now, node, TraceEvent::NodeDown(node));
                }
            }
            Control::Notify { to, about, up } => {
                if self.alive[usize::from(to)] {
                    self.with_process(to, |p, ctx| p.on_node_status(about, up, ctx));
                }
            }
            Control::Halt => self.halted = true,
        }
    }

    /// Invoke a handler on `node`, then apply the effects it produced.
    fn with_process<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Process, &mut dyn Context),
    {
        // Applying effects never runs a handler, so the one buffer is
        // free again by the next call.
        let mut effects = std::mem::take(&mut self.effects);
        let mut halt = false;
        {
            let mut ctx = EngineCtx {
                now: self.now,
                me: node,
                effects: &mut effects,
                next_timer: &mut self.next_timer,
                halt: &mut halt,
            };
            let process = &mut self.processes[usize::from(node)];
            f(process.as_mut(), &mut ctx);
        }
        if halt {
            self.halted = true;
        }
        let epoch = self.epochs[usize::from(node)];
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => self.route_message(node, to, msg),
                Effect::Timer { at, id, tag } => self.push_event(
                    at,
                    EventKind::Timer {
                        node,
                        epoch,
                        timer: id,
                        tag,
                    },
                ),
                Effect::Cancel(id) => {
                    self.cancelled.insert(id.0);
                }
                Effect::Trace(event) => {
                    if let TraceEvent::AgentStateShipped { bytes, .. } = event {
                        self.stats.agent_bytes_migrated += bytes as u64;
                    }
                    self.trace.push(self.now, node, event);
                }
            }
        }
        self.effects = effects;
    }

    fn route_message(&mut self, from: NodeId, to: NodeId, msg: Bytes) {
        assert!(
            usize::from(to) < self.processes.len(),
            "send to unknown node {to}"
        );
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += msg.len() as u64;
        // Per-kind byte accounting, keyed by the message's leading wire
        // tag (every workspace message enum writes a one-byte tag first).
        let kind = usize::from(msg.first().copied().unwrap_or(0).min(15));
        self.stats.bytes_by_kind[kind] += msg.len() as u64;
        match self.transport.route(self.now, from, to, msg.len()) {
            Delivery::Deliver { at } => {
                let at = at.max(self.now);
                self.push_event(
                    at,
                    EventKind::Message {
                        from,
                        to,
                        payload: msg,
                    },
                );
            }
            Delivery::Drop { reason } => {
                self.stats.messages_dropped += 1;
                self.trace
                    .push(self.now, from, TraceEvent::MsgDropped { from, to, reason });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_as_any;
    use crate::process::FixedDelay;

    /// Echoes every message back to its sender and counts deliveries.
    struct Echo {
        received: Vec<(NodeId, Bytes)>,
        timers: Vec<u64>,
        recovered: u32,
        statuses: Vec<(NodeId, bool)>,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                received: Vec::new(),
                timers: Vec::new(),
                recovered: 0,
                statuses: Vec::new(),
            }
        }
    }

    impl Process for Echo {
        fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
            ctx.trace(TraceEvent::Custom {
                kind: "echo",
                a: u64::from(from),
                b: msg.len() as u64,
            });
            self.received.push((from, msg.clone()));
            if from != EXTERNAL && msg.as_ref() != b"ack" {
                ctx.send(from, Bytes::from_static(b"ack"));
            }
        }
        fn on_timer(&mut self, _timer: TimerId, tag: u64, _ctx: &mut dyn Context) {
            self.timers.push(tag);
        }
        fn on_node_status(&mut self, node: NodeId, up: bool, _ctx: &mut dyn Context) {
            self.statuses.push((node, up));
        }
        fn on_recover(&mut self, _ctx: &mut dyn Context) {
            self.recovered += 1;
        }
        impl_as_any!();
    }

    fn two_echo_sim() -> Simulation {
        let mut sim = Simulation::new(
            Box::new(FixedDelay(Duration::from_millis(1))),
            TraceLevel::Protocol,
        );
        sim.add_process(Box::new(Echo::new()));
        sim.add_process(Box::new(Echo::new()));
        sim
    }

    #[test]
    fn message_roundtrip_with_delay() {
        let mut sim = two_echo_sim();
        sim.schedule_external(SimTime::from_millis(5), 0, Bytes::from_static(b"hi"));
        let stats = sim.run_to_quiescence();
        // External "hi" delivered at 5ms; node 0 does not echo EXTERNAL.
        let echo0: &Echo = sim.process(0).unwrap();
        assert_eq!(echo0.received.len(), 1);
        assert_eq!(stats.messages_delivered, 1);
        assert_eq!(sim.now(), SimTime::from_millis(5));
    }

    #[test]
    fn node_to_node_echo() {
        struct Pinger;
        impl Process for Pinger {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.send(1, Bytes::from_static(b"ping"));
            }
            fn on_message(&mut self, _from: NodeId, _msg: Bytes, _ctx: &mut dyn Context) {}
            impl_as_any!();
        }
        let mut sim = Simulation::new(
            Box::new(FixedDelay(Duration::from_millis(3))),
            TraceLevel::Protocol,
        );
        sim.add_process(Box::new(Pinger));
        sim.add_process(Box::new(Echo::new()));
        let stats = sim.run_to_quiescence();
        // ping at 3ms, ack back at 6ms.
        assert_eq!(stats.messages_sent, 2);
        assert_eq!(stats.messages_delivered, 2);
        assert_eq!(stats.finished_at, SimTime::from_millis(6));
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        struct TimerUser {
            fired: Vec<u64>,
        }
        impl Process for TimerUser {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.set_timer(Duration::from_millis(10), 10);
                let cancel_me = ctx.set_timer(Duration::from_millis(5), 5);
                ctx.set_timer(Duration::from_millis(1), 1);
                ctx.cancel_timer(cancel_me);
            }
            fn on_message(&mut self, _: NodeId, _: Bytes, _: &mut dyn Context) {}
            fn on_timer(&mut self, _t: TimerId, tag: u64, _ctx: &mut dyn Context) {
                self.fired.push(tag);
            }
            impl_as_any!();
        }
        let mut sim = Simulation::new(Box::new(FixedDelay(Duration::ZERO)), TraceLevel::Protocol);
        sim.add_process(Box::new(TimerUser { fired: Vec::new() }));
        let stats = sim.run_to_quiescence();
        let p: &TimerUser = sim.process(0).unwrap();
        assert_eq!(p.fired, vec![1, 10]);
        assert_eq!(stats.timers_fired, 2);
    }

    #[test]
    fn run_until_stops_at_limit() {
        let mut sim = two_echo_sim();
        sim.schedule_external(SimTime::from_millis(50), 0, Bytes::from_static(b"late"));
        let stats = sim.run_until(SimTime::from_millis(10));
        assert_eq!(stats.messages_delivered, 0);
        assert_eq!(sim.now(), SimTime::from_millis(10));
        // Continuing picks the event back up.
        let stats = sim.run_until(SimTime::from_millis(100));
        assert_eq!(stats.messages_delivered, 1);
    }

    #[test]
    fn crash_drops_messages_and_timers() {
        let mut sim = two_echo_sim();
        sim.schedule_control(
            SimTime::from_millis(1),
            Control::SetNodeUp { node: 1, up: false },
        );
        sim.schedule_external(SimTime::from_millis(2), 1, Bytes::from_static(b"lost"));
        let stats = sim.run_to_quiescence();
        assert_eq!(stats.messages_dropped, 1);
        let echo1: &Echo = sim.process(1).unwrap();
        assert!(echo1.received.is_empty());
        assert!(!sim.is_up(1));
    }

    #[test]
    fn recovery_invokes_on_recover_and_delivers_again() {
        let mut sim = two_echo_sim();
        sim.schedule_control(
            SimTime::from_millis(1),
            Control::SetNodeUp { node: 1, up: false },
        );
        sim.schedule_control(
            SimTime::from_millis(5),
            Control::SetNodeUp { node: 1, up: true },
        );
        sim.schedule_external(SimTime::from_millis(6), 1, Bytes::from_static(b"back"));
        sim.run_to_quiescence();
        let echo1: &Echo = sim.process(1).unwrap();
        assert_eq!(echo1.recovered, 1);
        assert_eq!(echo1.received.len(), 1);
        assert!(sim.is_up(1));
    }

    #[test]
    fn timers_armed_before_crash_do_not_fire_after_recovery() {
        struct Armer;
        impl Process for Armer {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.set_timer(Duration::from_millis(10), 99);
            }
            fn on_message(&mut self, _: NodeId, _: Bytes, _: &mut dyn Context) {}
            fn on_timer(&mut self, _: TimerId, _: u64, _: &mut dyn Context) {
                panic!("stale timer fired after crash/recovery");
            }
            impl_as_any!();
        }
        let mut sim = Simulation::new(Box::new(FixedDelay(Duration::ZERO)), TraceLevel::Protocol);
        sim.add_process(Box::new(Armer));
        sim.schedule_control(
            SimTime::from_millis(2),
            Control::SetNodeUp { node: 0, up: false },
        );
        sim.schedule_control(
            SimTime::from_millis(4),
            Control::SetNodeUp { node: 0, up: true },
        );
        let stats = sim.run_to_quiescence();
        assert_eq!(stats.timers_fired, 0);
    }

    #[test]
    fn notify_control_reaches_live_nodes_only() {
        let mut sim = two_echo_sim();
        sim.schedule_control(
            SimTime::from_millis(1),
            Control::Notify {
                to: 0,
                about: 1,
                up: false,
            },
        );
        sim.schedule_control(
            SimTime::from_millis(1),
            Control::SetNodeUp { node: 1, up: false },
        );
        sim.schedule_control(
            SimTime::from_millis(2),
            Control::Notify {
                to: 1,
                about: 0,
                up: false,
            },
        );
        sim.run_to_quiescence();
        let echo0: &Echo = sim.process(0).unwrap();
        assert_eq!(echo0.statuses, vec![(1, false)]);
        let echo1: &Echo = sim.process(1).unwrap();
        assert!(echo1.statuses.is_empty());
    }

    #[test]
    fn halt_control_stops_the_run() {
        let mut sim = two_echo_sim();
        sim.schedule_control(SimTime::from_millis(3), Control::Halt);
        sim.schedule_external(SimTime::from_millis(10), 0, Bytes::from_static(b"never"));
        let stats = sim.run_to_quiescence();
        assert_eq!(stats.messages_delivered, 0);
        assert_eq!(stats.finished_at, SimTime::from_millis(3));
    }

    #[test]
    fn identical_runs_produce_identical_traces() {
        let build = || {
            let mut sim = two_echo_sim();
            sim.schedule_external(SimTime::from_millis(1), 0, Bytes::from_static(b"a"));
            sim.schedule_external(SimTime::from_millis(1), 1, Bytes::from_static(b"b"));
            sim.run_to_quiescence();
            sim.into_trace()
        };
        let t1 = build();
        let t2 = build();
        assert_eq!(t1.records().len(), 2, "one record per delivery");
        assert_eq!(t1.records(), t2.records());
    }

    #[test]
    fn same_instant_events_preserve_schedule_order() {
        let mut sim = two_echo_sim();
        sim.schedule_external(SimTime::from_millis(1), 0, Bytes::from_static(b"first"));
        sim.schedule_external(SimTime::from_millis(1), 0, Bytes::from_static(b"second"));
        sim.run_to_quiescence();
        let echo0: &Echo = sim.process(0).unwrap();
        let bodies: Vec<&[u8]> = echo0.received.iter().map(|(_, m)| m.as_ref()).collect();
        assert_eq!(bodies, vec![b"first".as_ref(), b"second".as_ref()]);
    }

    #[test]
    fn pending_events_lists_starts_then_messages() {
        let mut sim = two_echo_sim();
        sim.schedule_external(SimTime::from_millis(5), 0, Bytes::from_static(b"hi"));
        let pending = sim.pending_events();
        // Two Start events (time zero) sort before the 5 ms message.
        assert_eq!(pending.len(), 3);
        assert_eq!(pending[0].kind, PendingKind::Start { node: 0 });
        assert_eq!(pending[1].kind, PendingKind::Start { node: 1 });
        assert_eq!(
            pending[2].kind,
            PendingKind::Message {
                from: EXTERNAL,
                to: 0,
                bytes: 2
            }
        );
        assert_eq!(pending[2].kind.receiver(), Some(0));
    }

    #[test]
    fn step_event_executes_out_of_time_order_with_monotone_clock() {
        let mut sim = two_echo_sim();
        sim.schedule_external(SimTime::from_millis(1), 0, Bytes::from_static(b"early"));
        sim.schedule_external(SimTime::from_millis(9), 1, Bytes::from_static(b"late"));
        let pending = sim.pending_events();
        let late = pending
            .iter()
            .find(|e| matches!(e.kind, PendingKind::Message { to: 1, .. }))
            .unwrap()
            .seq;
        // Run the 9 ms delivery first: clock jumps to 9 ms.
        assert!(sim.step_event(late));
        assert_eq!(sim.now(), SimTime::from_millis(9));
        // The 1 ms delivery still runs; clock does not go backwards.
        let pending = sim.pending_events();
        let early = pending
            .iter()
            .find(|e| matches!(e.kind, PendingKind::Message { to: 0, .. }))
            .unwrap()
            .seq;
        assert!(sim.step_event(early));
        assert_eq!(sim.now(), SimTime::from_millis(9));
        let echo0: &Echo = sim.process(0).unwrap();
        assert_eq!(echo0.received.len(), 1);
        // An executed seq is gone.
        assert!(!sim.step_event(early));
    }

    #[test]
    fn pending_events_filters_cancelled_and_stale_timers() {
        struct Armer;
        impl Process for Armer {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                let doomed = ctx.set_timer(Duration::from_millis(5), 5);
                ctx.set_timer(Duration::from_millis(10), 10);
                ctx.cancel_timer(doomed);
            }
            fn on_message(&mut self, _: NodeId, _: Bytes, _: &mut dyn Context) {}
            impl_as_any!();
        }
        let mut sim = Simulation::new(Box::new(FixedDelay(Duration::ZERO)), TraceLevel::Protocol);
        sim.add_process(Box::new(Armer));
        let pending = sim.pending_events();
        let start = pending[0].seq;
        assert!(sim.step_event(start));
        // Cancelled 5 ms timer is invisible; live 10 ms timer shows.
        let timers: Vec<u64> = sim
            .pending_events()
            .iter()
            .filter_map(|e| match e.kind {
                PendingKind::Timer { tag, .. } => Some(tag),
                _ => None,
            })
            .collect();
        assert_eq!(timers, vec![10]);
        // A crash bumps the epoch: the surviving timer goes inert too.
        sim.apply_control_now(Control::SetNodeUp { node: 0, up: false });
        assert!(sim
            .pending_events()
            .iter()
            .all(|e| !matches!(e.kind, PendingKind::Timer { .. })));
    }

    #[test]
    fn controlled_and_default_scheduling_interleave() {
        let mut sim = two_echo_sim();
        sim.schedule_external(SimTime::from_millis(1), 0, Bytes::from_static(b"a"));
        let seqs: Vec<u64> = sim.pending_events().iter().map(|e| e.seq).collect();
        for seq in seqs {
            sim.step_event(seq);
        }
        // Echo ack from node 0 back to EXTERNAL is not sent; queue holds
        // nothing — run_until after controlled stepping is a no-op.
        let stats = sim.run_to_quiescence();
        assert_eq!(stats.messages_delivered, 1);
    }

    #[test]
    fn stats_count_bytes() {
        struct Sender;
        impl Process for Sender {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.send(1, Bytes::from_static(b"12345"));
            }
            fn on_message(&mut self, _: NodeId, _: Bytes, _: &mut dyn Context) {}
            impl_as_any!();
        }
        let mut sim = Simulation::new(Box::new(FixedDelay(Duration::ZERO)), TraceLevel::Protocol);
        sim.add_process(Box::new(Sender));
        sim.add_process(Box::new(Echo::new()));
        let stats = sim.run_to_quiescence();
        assert_eq!(stats.bytes_sent, 5 + 3); // "12345" + "ack"
    }
}
