//! Outside-in tracing: timing shims around every `Process`, the
//! `Context` handed to its handlers, and the `Transport`.
//!
//! The product is not instrumented. The benchmark rebuilds the
//! simulation from public constructors ([`crate::rebuild`]) and slips
//! these wrappers in at the layer boundaries the `sim` crate exposes as
//! traits. Spans are kept in memory — `sim.run` → handler (classed by the
//! incoming message's wire tag) → `ctx.send`/`trace`/`set_timer`, and
//! `Transport::route` under the run — and folded into a [`Ledger`] when
//! the run ends. `as_any` forwards to the wrapped process, so
//! `sim.process::<MarpNode>()` still sees through the shim.

use bytes::Bytes;
use marp_sim::{
    Context, Delivery, NodeId, Process, RunStats, SimTime, Simulation, TimerId, TraceEvent,
    Transport,
};
use std::any::Any;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What a server or client handler was invoked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// MARP server: a client request (wire tag `client`).
    Client,
    /// MARP server: update-agent runtime traffic (wire tag `agent`).
    Agent,
    /// MARP server: an UPDATE broadcast.
    Update,
    /// MARP server: a COMMIT broadcast.
    Commit,
    /// MARP server: an LL query, keyed or legacy form.
    LlQuery,
    /// MARP server: read-agent runtime traffic (wire tag `ragent`).
    RAgent,
    /// Any server: a timer callback.
    Timer,
    /// Any server: everything else (release, sync, start, node status).
    Other,
    /// Baseline server: any message.
    Baseline,
    /// A `ClientProcess` handler.
    ClientProc,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 10] = [
        Class::Client,
        Class::Agent,
        Class::Update,
        Class::Commit,
        Class::LlQuery,
        Class::RAgent,
        Class::Timer,
        Class::Other,
        Class::Baseline,
        Class::ClientProc,
    ];

    /// Name used in metric names (`core.handler_us.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Class::Client => "client",
            Class::Agent => "agent",
            Class::Update => "update",
            Class::Commit => "commit",
            Class::LlQuery => "ll-query",
            Class::RAgent => "ragent",
            Class::Timer => "timer",
            Class::Other => "other",
            Class::Baseline => "baseline",
            Class::ClientProc => "clientproc",
        }
    }

    fn of_marp_message(msg: &Bytes) -> Class {
        match marp_core::wire_tag_name(msg.first().copied().unwrap_or(u8::MAX)) {
            "client" => Class::Client,
            "agent" => Class::Agent,
            "update" => Class::Update,
            "commit" => Class::Commit,
            "ll-query" | "ll-query-keyed" => Class::LlQuery,
            "ragent" => Class::RAgent,
            _ => Class::Other,
        }
    }
}

/// A `Context` call a handler made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxCall {
    /// `ctx.send`
    Send,
    /// `ctx.set_timer`
    SetTimer,
    /// `ctx.cancel_timer`
    CancelTimer,
    /// `ctx.trace`
    Trace,
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum What {
    /// One `Simulation::run_until` call (a root span).
    Run,
    /// One handler invocation; child of the run.
    Handler(Class),
    /// One `Context` call; child of the handler that made it.
    Ctx(CtxCall),
    /// One `Transport::route` call; child of the run (the engine routes
    /// a handler's sends after the handler returns).
    Route,
}

/// Index of a span's parent; [`NO_PARENT`] for a root.
pub type SpanIndex = u32;
/// The parent of a root span.
pub const NO_PARENT: SpanIndex = SpanIndex::MAX;

/// One timed interval, in nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed.
    pub what: What,
    /// The enclosing span.
    pub parent: SpanIndex,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    run: SpanIndex,
    handler: SpanIndex,
    payloads: Vec<Bytes>,
}

impl Recorder {
    /// Reserve a span whose children are about to be recorded.
    fn open(&mut self, what: What, parent: SpanIndex) -> SpanIndex {
        self.spans.push(Span {
            what,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        (self.spans.len() - 1) as SpanIndex
    }

    fn close(&mut self, index: SpanIndex, start_ns: u64, end_ns: u64) {
        let span = &mut self.spans[index as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
    }
}

/// Everything one traced run recorded.
pub struct Recording {
    /// All spans, parents before children.
    pub spans: Vec<Span>,
    /// Every payload delivered to a server, for the codec replay.
    pub payloads: Vec<Bytes>,
}

/// Hands out the timing wrappers for one simulation and collects their
/// spans.
pub struct Tracer {
    rec: Arc<Mutex<Recorder>>,
    epoch: Instant,
    n_servers: usize,
    marp: bool,
}

fn lock(rec: &Mutex<Recorder>) -> MutexGuard<'_, Recorder> {
    rec.lock()
        .expect("a panicking handler already failed the run")
}

fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

impl Tracer {
    /// A tracer for a cluster of `n_servers` (nodes `0..n_servers`; the
    /// rest are clients) running MARP (`marp`) or a baseline.
    pub fn new(n_servers: usize, marp: bool) -> Self {
        Tracer {
            rec: Arc::new(Mutex::new(Recorder {
                run: NO_PARENT,
                handler: NO_PARENT,
                ..Recorder::default()
            })),
            epoch: Instant::now(),
            n_servers,
            marp,
        }
    }

    /// Wrap the run's transport.
    pub fn wrap_transport(&self, inner: Box<dyn Transport>) -> Box<dyn Transport> {
        Box::new(TimedTransport {
            inner,
            rec: Arc::clone(&self.rec),
            epoch: self.epoch,
        })
    }

    /// Wrap the process that will run as `node`.
    pub fn wrap_process(&self, node: NodeId, inner: Box<dyn Process>) -> Box<dyn Process> {
        let role = if usize::from(node) >= self.n_servers {
            Role::Client
        } else if self.marp {
            Role::MarpServer
        } else {
            Role::BaselineServer
        };
        Box::new(TimedProcess {
            inner,
            role,
            rec: Arc::clone(&self.rec),
            epoch: self.epoch,
        })
    }

    /// `sim.run_until(until)` under a root span.
    pub fn run_until(&self, sim: &mut Simulation, until: SimTime) -> RunStats {
        let index = {
            let mut rec = lock(&self.rec);
            rec.run = rec.open(What::Run, NO_PARENT);
            rec.run
        };
        let start_ns = since(self.epoch);
        let stats = sim.run_until(until);
        let end_ns = since(self.epoch);
        let mut rec = lock(&self.rec);
        rec.close(index, start_ns, end_ns);
        rec.run = NO_PARENT;
        stats
    }

    /// Take what was recorded so far.
    pub fn finish(&self) -> Recording {
        let mut rec = lock(&self.rec);
        Recording {
            spans: std::mem::take(&mut rec.spans),
            payloads: std::mem::take(&mut rec.payloads),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    MarpServer,
    BaselineServer,
    Client,
}

struct TimedProcess {
    inner: Box<dyn Process>,
    role: Role,
    rec: Arc<Mutex<Recorder>>,
    epoch: Instant,
}

impl TimedProcess {
    fn timed(
        &mut self,
        class: Class,
        ctx: &mut dyn Context,
        handler: impl FnOnce(&mut dyn Process, &mut dyn Context),
    ) {
        let class = if self.role == Role::Client {
            Class::ClientProc
        } else {
            class
        };
        let index = {
            let mut rec = lock(&self.rec);
            let parent = rec.run;
            rec.handler = rec.open(What::Handler(class), parent);
            rec.handler
        };
        let mut timed_ctx = TimedCtx {
            inner: ctx,
            rec: &self.rec,
            epoch: self.epoch,
        };
        let start_ns = since(self.epoch);
        handler(self.inner.as_mut(), &mut timed_ctx);
        let end_ns = since(self.epoch);
        let mut rec = lock(&self.rec);
        rec.close(index, start_ns, end_ns);
        rec.handler = NO_PARENT;
    }
}

impl Process for TimedProcess {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.timed(Class::Other, ctx, |p, c| p.on_start(c));
    }

    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        let class = match self.role {
            Role::MarpServer => Class::of_marp_message(&msg),
            Role::BaselineServer => Class::Baseline,
            Role::Client => Class::ClientProc,
        };
        if self.role != Role::Client {
            lock(&self.rec).payloads.push(msg.clone());
        }
        self.timed(class, ctx, |p, c| p.on_message(from, msg, c));
    }

    fn on_timer(&mut self, timer: TimerId, tag: u64, ctx: &mut dyn Context) {
        self.timed(Class::Timer, ctx, |p, c| p.on_timer(timer, tag, c));
    }

    fn on_node_status(&mut self, node: NodeId, up: bool, ctx: &mut dyn Context) {
        self.timed(Class::Other, ctx, |p, c| p.on_node_status(node, up, c));
    }

    fn on_recover(&mut self, ctx: &mut dyn Context) {
        self.timed(Class::Other, ctx, |p, c| p.on_recover(c));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

struct TimedCtx<'a> {
    inner: &'a mut dyn Context,
    rec: &'a Mutex<Recorder>,
    epoch: Instant,
}

impl TimedCtx<'_> {
    fn timed<R>(&mut self, call: CtxCall, f: impl FnOnce(&mut dyn Context) -> R) -> R {
        let start_ns = since(self.epoch);
        let result = f(self.inner);
        let end_ns = since(self.epoch);
        let mut rec = lock(self.rec);
        let parent = rec.handler;
        rec.spans.push(Span {
            what: What::Ctx(call),
            parent,
            start_ns,
            end_ns,
        });
        result
    }
}

impl Context for TimedCtx<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn me(&self) -> NodeId {
        self.inner.me()
    }
    fn send(&mut self, to: NodeId, msg: Bytes) {
        self.timed(CtxCall::Send, |c| c.send(to, msg));
    }
    fn set_timer(&mut self, after: Duration, tag: u64) -> TimerId {
        self.timed(CtxCall::SetTimer, |c| c.set_timer(after, tag))
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.timed(CtxCall::CancelTimer, |c| c.cancel_timer(id));
    }
    fn trace(&mut self, event: TraceEvent) {
        self.timed(CtxCall::Trace, |c| c.trace(event));
    }
    fn halt(&mut self) {
        self.inner.halt();
    }
}

struct TimedTransport {
    inner: Box<dyn Transport>,
    rec: Arc<Mutex<Recorder>>,
    epoch: Instant,
}

impl Transport for TimedTransport {
    fn route(&mut self, now: SimTime, from: NodeId, to: NodeId, size: usize) -> Delivery {
        let start_ns = since(self.epoch);
        let delivery = self.inner.route(now, from, to, size);
        let end_ns = since(self.epoch);
        let mut rec = lock(&self.rec);
        let parent = rec.run;
        rec.spans.push(Span {
            what: What::Route,
            parent,
            start_ns,
            end_ns,
        });
        delivery
    }
}

/// Count and time of one kind of span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Spans.
    pub count: u64,
    /// Their total duration.
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.ns += ns;
    }

    /// Mean duration in nanoseconds, 0 for none.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

/// The folded spans of one or more traced runs: where the run's wall
/// time went, by layer boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// `sim.run` wall time.
    pub run: Tally,
    /// Handler *self* time (its `Context` calls taken out), per class.
    pub handlers: [Tally; Class::ALL.len()],
    /// `ctx.send`, `set_timer`, `cancel_timer`, `trace`.
    pub ctx: [Tally; 4],
    /// `Transport::route`.
    pub route: Tally,
}

/// A span tree that does not nest: the ledger's shares would not add up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokenLedger(pub String);

impl Ledger {
    /// Fold `spans` into the ledger. Fails if a child is not inside its
    /// parent, or a parent's children outlast it — then self times and
    /// the engine residual would not sum to the run's wall time.
    pub fn fold(&mut self, spans: &[Span]) -> Result<(), BrokenLedger> {
        // Time each span's children cover.
        let mut covered = vec![0u64; spans.len()];
        for (i, span) in spans.iter().enumerate() {
            if span.end_ns < span.start_ns {
                return Err(BrokenLedger(format!("span {i} ends before it starts")));
            }
            if span.parent == NO_PARENT {
                // Only a run may be a root: anything else outside a run
                // would be missing from the run's budget.
                if span.what != What::Run {
                    return Err(BrokenLedger(format!(
                        "span {i} ({:?}) is outside any run",
                        span.what
                    )));
                }
                continue;
            }
            let parent = &spans[span.parent as usize];
            if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                return Err(BrokenLedger(format!(
                    "span {i} ({:?}) is not inside its parent ({:?})",
                    span.what, parent.what
                )));
            }
            covered[span.parent as usize] += span.end_ns - span.start_ns;
        }
        for (span, &covered) in spans.iter().zip(&covered) {
            let ns = span.end_ns - span.start_ns;
            if covered > ns {
                return Err(BrokenLedger(format!(
                    "children of a {:?} span cover {covered} ns of its {ns} ns",
                    span.what
                )));
            }
            match span.what {
                What::Run => self.run.add(ns),
                What::Handler(class) => self.handlers[class as usize].add(ns - covered),
                What::Ctx(call) => self.ctx[call as usize].add(ns),
                What::Route => self.route.add(ns),
            }
        }
        Ok(())
    }

    /// Self time of the handlers of `class`.
    pub fn handler(&self, class: Class) -> Tally {
        self.handlers[class as usize]
    }

    /// `Context` calls of one kind.
    pub fn ctx_call(&self, call: CtxCall) -> Tally {
        self.ctx[call as usize]
    }

    /// Self time of all handlers.
    pub fn handler_self_ns(&self) -> u64 {
        self.handlers.iter().map(|t| t.ns).sum()
    }

    /// Handler invocations — the simulation events that reached a process.
    pub fn handler_events(&self) -> u64 {
        self.handlers.iter().map(|t| t.count).sum()
    }

    /// Time in `Context` calls.
    pub fn ctx_ns(&self) -> u64 {
        self.ctx.iter().map(|t| t.ns).sum()
    }

    /// What is left of the run's wall time: the engine itself (event
    /// queue, effect application, its own trace records).
    pub fn engine_ns(&self) -> u64 {
        self.run.ns - self.handler_self_ns() - self.ctx_ns() - self.route.ns
    }
}
