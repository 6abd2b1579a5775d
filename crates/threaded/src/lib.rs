//! Threaded execution backend.
//!
//! Runs the exact same sans-io [`Process`] state machines as the
//! discrete-event engine, but with real concurrency: every node is an
//! OS thread with an `std::sync::mpsc` mailbox, and a router thread
//! applies wall-clock delays priced by the same [`Transport`] models.
//! Experiment E12 cross-validates the two backends on identical
//! scenarios.
//!
//! Scope: the threaded backend is for fault-free cross-validation and
//! demonstration; crash/recovery injection lives in the deterministic
//! engine where it can be replayed.

#![warn(missing_docs)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "this backend runs processes on real threads against the wall clock"
)]

use bytes::Bytes;
use marp_sim::{
    Context, Delivery, NodeId, Process, SimTime, TimerId, TraceEvent, TraceLog, Transport,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many times faster than wall time virtual time advances (a 10 ms
/// virtual delay sleeps 2.5 ms of wall time).
const SPEED: f64 = 4.0;

/// Result of a threaded run: the processes (for inspection) and the
/// trace collected by the router.
pub struct ThreadedRun {
    /// Processes in node-id order.
    pub processes: Vec<Box<dyn Process>>,
    /// The run's trace (event order is router arrival order).
    pub trace: TraceLog,
    /// Messages routed.
    pub messages_sent: u64,
    /// Virtual time when the run stopped.
    pub finished_at: SimTime,
}

impl ThreadedRun {
    /// Borrow a process downcast to its concrete type.
    pub fn process<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.processes
            .get(usize::from(node))?
            .as_any()
            .downcast_ref::<T>()
    }
}

enum Cmd {
    Send {
        from: NodeId,
        to: NodeId,
        msg: Bytes,
    },
    Timer {
        node: NodeId,
        id: TimerId,
        tag: u64,
        deadline: Instant,
    },
    Cancel(TimerId),
    Trace {
        at: SimTime,
        node: NodeId,
        event: TraceEvent,
    },
    Halt,
}

enum HostEvent {
    Start,
    Message { from: NodeId, msg: Bytes },
    Timer { id: TimerId, tag: u64 },
    Stop,
}

#[derive(PartialEq, Eq)]
enum DueKind {
    Message { from: NodeId, to: NodeId },
    Timer { node: NodeId, id: TimerId, tag: u64 },
}

struct Due {
    deadline: Instant,
    seq: u64,
    kind: DueKind,
    payload: Option<Bytes>,
}

impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Due {}
impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Due {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

struct Clock {
    start: Instant,
}

impl Clock {
    fn now_virtual(&self) -> SimTime {
        let wall = self.start.elapsed();
        SimTime::from_nanos((wall.as_nanos() as f64 * SPEED) as u64)
    }

    fn wall_after(&self, virtual_delay: Duration) -> Instant {
        let wall = Duration::from_nanos((virtual_delay.as_nanos() as f64 / SPEED) as u64);
        Instant::now() + wall
    }

    fn wall_at_virtual(&self, at: SimTime) -> Instant {
        let wall = Duration::from_nanos((at.as_nanos() as f64 / SPEED) as u64);
        self.start + wall
    }
}

struct ThreadedCtx<'a> {
    clock: &'a Clock,
    me: NodeId,
    cmd_tx: &'a Sender<Cmd>,
    timer_ids: &'a AtomicU64,
    halted: &'a AtomicBool,
}

impl Context for ThreadedCtx<'_> {
    fn now(&self) -> SimTime {
        self.clock.now_virtual()
    }
    fn me(&self) -> NodeId {
        self.me
    }
    fn send(&mut self, to: NodeId, msg: Bytes) {
        let _ = self.cmd_tx.send(Cmd::Send {
            from: self.me,
            to,
            msg,
        });
    }
    fn set_timer(&mut self, after: Duration, tag: u64) -> TimerId {
        let id = TimerId(self.timer_ids.fetch_add(1, Ordering::Relaxed));
        let _ = self.cmd_tx.send(Cmd::Timer {
            node: self.me,
            id,
            tag,
            deadline: self.clock.wall_after(after),
        });
        id
    }
    fn cancel_timer(&mut self, id: TimerId) {
        let _ = self.cmd_tx.send(Cmd::Cancel(id));
    }
    fn trace(&mut self, event: TraceEvent) {
        let _ = self.cmd_tx.send(Cmd::Trace {
            at: self.clock.now_virtual(),
            node: self.me,
            event,
        });
    }
    fn halt(&mut self) {
        self.halted.store(true, Ordering::Relaxed);
        let _ = self.cmd_tx.send(Cmd::Halt);
    }
}

/// Run `processes` under real threads for `virtual_duration` of virtual
/// time (which runs four times faster than wall time), routing messages
/// through `transport`.
pub fn run_threaded(
    processes: Vec<Box<dyn Process>>,
    mut transport: Box<dyn Transport>,
    virtual_duration: Duration,
) -> ThreadedRun {
    let n = processes.len();
    let clock = Arc::new(Clock {
        start: Instant::now(),
    });
    let (cmd_tx, cmd_rx) = channel::<Cmd>();
    let timer_ids = Arc::new(AtomicU64::new(0));
    let halted = Arc::new(AtomicBool::new(false));

    // Host threads.
    let mut host_txs: Vec<Sender<HostEvent>> = Vec::with_capacity(n);
    let mut joins = Vec::with_capacity(n);
    let (done_tx, done_rx) = sync_channel::<(NodeId, Box<dyn Process>)>(n);
    for (idx, mut process) in processes.into_iter().enumerate() {
        let me = idx as NodeId;
        let (tx, rx) = channel::<HostEvent>();
        host_txs.push(tx);
        let clock = Arc::clone(&clock);
        let cmd_tx = cmd_tx.clone();
        let timer_ids = Arc::clone(&timer_ids);
        let halted = Arc::clone(&halted);
        let done_tx = done_tx.clone();
        joins.push(std::thread::spawn(move || {
            for event in rx.iter() {
                let mut ctx = ThreadedCtx {
                    clock: &clock,
                    me,
                    cmd_tx: &cmd_tx,
                    timer_ids: &timer_ids,
                    halted: &halted,
                };
                match event {
                    HostEvent::Start => process.on_start(&mut ctx),
                    HostEvent::Message { from, msg } => process.on_message(from, msg, &mut ctx),
                    HostEvent::Timer { id, tag } => process.on_timer(id, tag, &mut ctx),
                    HostEvent::Stop => break,
                }
            }
            let _ = done_tx.send((me, process));
        }));
    }
    drop(done_tx);

    // Router thread.
    let router_clock = Arc::clone(&clock);
    let router_hosts = host_txs.clone();
    let router = std::thread::spawn(move || {
        let mut trace = TraceLog::new();
        let mut heap: BinaryHeap<Reverse<Due>> = BinaryHeap::new();
        let mut cancelled: HashSet<u64> = HashSet::new();
        let mut seq = 0u64;
        let mut sent = 0u64;
        loop {
            // Dispatch everything due.
            let now_wall = Instant::now();
            while heap
                .peek()
                .is_some_and(|Reverse(due)| due.deadline <= now_wall)
            {
                let Reverse(due) = heap.pop().expect("peeked");
                match due.kind {
                    DueKind::Message { from, to } => {
                        let _ = router_hosts[usize::from(to)].send(HostEvent::Message {
                            from,
                            msg: due.payload.expect("message payload"),
                        });
                    }
                    DueKind::Timer { node, id, tag } => {
                        if !cancelled.remove(&id.0) {
                            let _ =
                                router_hosts[usize::from(node)].send(HostEvent::Timer { id, tag });
                        }
                    }
                }
            }
            // Wait for the next command or deadline.
            let timeout = heap
                .peek()
                .map(|Reverse(due)| due.deadline.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(20));
            match cmd_rx.recv_timeout(timeout.min(Duration::from_millis(20))) {
                Ok(Cmd::Send { from, to, msg }) => {
                    sent += 1;
                    let now_virtual = router_clock.now_virtual();
                    match transport.route(now_virtual, from, to, msg.len()) {
                        Delivery::Deliver { at } => {
                            seq += 1;
                            heap.push(Reverse(Due {
                                deadline: router_clock.wall_at_virtual(at),
                                seq,
                                kind: DueKind::Message { from, to },
                                payload: Some(msg),
                            }));
                        }
                        Delivery::Drop { reason } => {
                            trace.push(
                                now_virtual,
                                from,
                                TraceEvent::MsgDropped { from, to, reason },
                            );
                        }
                    }
                }
                Ok(Cmd::Timer {
                    node,
                    id,
                    tag,
                    deadline,
                }) => {
                    seq += 1;
                    heap.push(Reverse(Due {
                        deadline,
                        seq,
                        kind: DueKind::Timer { node, id, tag },
                        payload: None,
                    }));
                }
                Ok(Cmd::Cancel(id)) => {
                    cancelled.insert(id.0);
                }
                Ok(Cmd::Trace { at, node, event }) => trace.push(at, node, event),
                Ok(Cmd::Halt) => break,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        (sent, trace)
    });

    // Kick everything off and let it run.
    for tx in &host_txs {
        let _ = tx.send(HostEvent::Start);
    }
    let wall_budget = Duration::from_nanos((virtual_duration.as_nanos() as f64 / SPEED) as u64);
    let deadline = Instant::now() + wall_budget;
    while Instant::now() < deadline && !halted.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Shut down: stop hosts first (they flush their last commands), then
    // the router.
    for tx in &host_txs {
        let _ = tx.send(HostEvent::Stop);
    }
    let mut returned: Vec<Option<Box<dyn Process>>> = (0..n).map(|_| None).collect();
    for (node, process) in done_rx.iter().take(n) {
        returned[usize::from(node)] = Some(process);
    }
    for join in joins {
        let _ = join.join();
    }
    let _ = cmd_tx.send(Cmd::Halt);
    let (messages_sent, trace) = router.join().unwrap_or_default();

    ThreadedRun {
        processes: returned.into_iter().map(|p| p.expect("returned")).collect(),
        trace,
        messages_sent,
        finished_at: clock.now_virtual(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::impl_as_any;

    struct Ponger {
        received: u64,
    }
    impl Process for Ponger {
        fn on_message(&mut self, from: NodeId, _msg: Bytes, ctx: &mut dyn Context) {
            self.received += 1;
            if self.received < 10 {
                ctx.send(from, Bytes::from_static(b"pong"));
            }
        }
        impl_as_any!();
    }

    struct Pinger {
        received: u64,
    }
    impl Process for Pinger {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.send(1, Bytes::from_static(b"ping"));
        }
        fn on_message(&mut self, from: NodeId, _msg: Bytes, ctx: &mut dyn Context) {
            self.received += 1;
            ctx.send(from, Bytes::from_static(b"ping"));
        }
        impl_as_any!();
    }

    struct TimerCounter {
        fired: u64,
    }
    impl Process for TimerCounter {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.set_timer(Duration::from_millis(10), 1);
        }
        fn on_message(&mut self, _: NodeId, _: Bytes, _: &mut dyn Context) {}
        fn on_timer(&mut self, _id: TimerId, _tag: u64, ctx: &mut dyn Context) {
            self.fired += 1;
            if self.fired < 5 {
                ctx.set_timer(Duration::from_millis(10), 1);
            }
        }
        impl_as_any!();
    }

    #[test]
    fn ping_pong_over_threads() {
        let run = run_threaded(
            vec![
                Box::new(Pinger { received: 0 }),
                Box::new(Ponger { received: 0 }),
            ],
            Box::new(marp_sim::FixedDelay(Duration::from_millis(2))),
            Duration::from_millis(500),
        );
        let ponger: &Ponger = run.process(1).unwrap();
        assert_eq!(ponger.received, 10);
        // Ten pings and nine pongs, each routed once.
        assert_eq!(run.messages_sent, 19);
    }

    #[test]
    fn timers_fire_repeatedly() {
        let run = run_threaded(
            vec![Box::new(TimerCounter { fired: 0 })],
            Box::new(marp_sim::FixedDelay(Duration::ZERO)),
            Duration::from_millis(300),
        );
        let counter: &TimerCounter = run.process(0).unwrap();
        assert_eq!(counter.fired, 5);
    }

    #[test]
    fn speed_scales_virtual_time() {
        let run = run_threaded(
            vec![Box::new(TimerCounter { fired: 0 })],
            Box::new(marp_sim::FixedDelay(Duration::ZERO)),
            Duration::from_millis(400),
        );
        // 400 ms of virtual time at 4× ≈ 100 ms wall; all 5 timer
        // firings (50 ms virtual) fit comfortably.
        let counter: &TimerCounter = run.process(0).unwrap();
        assert_eq!(counter.fired, 5);
        assert!(run.finished_at >= SimTime::from_millis(300));
    }
}
