//! The vote round's behavioural oracle: MCV and weighted voting on a
//! contended five-server scripted run with one coordinator crash and
//! recovery, pinned to the event.
//!
//! The engine numbers events in the order protocol code calls `send`
//! and `set_timer`, and breaks same-instant ties by that number, so a
//! coordinator that reorders two calls inside a round changes which
//! vote lands first somewhere downstream. The counts and the hash of
//! the full trace (every send, delivery, drop, span and commit, in
//! order) below were recorded before the round was written once in
//! `common.rs`; they must not move when the round's code does.
//!
//! The kernel traced a record per message sent and delivered when the
//! hashes were recorded; it no longer does, so [`Logged`] puts them back
//! where they stood and the hash reads them in their old encoding.

use bytes::Bytes;
use marp_baselines::{
    wrap_mcv_client_request, wrap_wv_client_request, McvConfig, McvNode, WvConfig, WvNode,
};
use marp_net::{LinkModel, SimTransport, Topology};
use marp_quorum::RetryPolicy;
use marp_replica::{ClientProcess, ClientWrapFn, Operation, ScriptedSource};
use marp_sim::{
    Context, Control, NodeId, Process, SimRng, SimTime, Simulation, SpanKind, TimerId, TraceEvent,
    TraceLevel,
};
use std::any::Any;
use std::collections::HashMap;
use std::time::Duration;

const N: usize = 5;
/// Both protocols' default.
const ROUND_TIMEOUT: Duration = Duration::from_millis(100);

/// A process that traces each message it sends or is handed — as a
/// `Custom` "sent" (`a`: destination) or "delivered" (`a`: sender) with
/// `b` the size — just before the kernel acts on it, which is where the
/// kernel's own per-message records used to fall in the trace.
struct Logged(Box<dyn Process>);

struct LoggedCtx<'a>(&'a mut dyn Context);

impl Context for LoggedCtx<'_> {
    fn now(&self) -> SimTime {
        self.0.now()
    }
    fn me(&self) -> NodeId {
        self.0.me()
    }
    fn send(&mut self, to: NodeId, msg: Bytes) {
        self.0.trace(TraceEvent::Custom {
            kind: "sent",
            a: u64::from(to),
            b: msg.len() as u64,
        });
        self.0.send(to, msg);
    }
    fn set_timer(&mut self, after: Duration, tag: u64) -> TimerId {
        self.0.set_timer(after, tag)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.0.cancel_timer(id);
    }
    fn trace(&mut self, event: TraceEvent) {
        self.0.trace(event);
    }
    fn halt(&mut self) {
        self.0.halt();
    }
}

impl Process for Logged {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.0.on_start(&mut LoggedCtx(ctx));
    }
    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        ctx.trace(TraceEvent::Custom {
            kind: "delivered",
            a: u64::from(from),
            b: msg.len() as u64,
        });
        self.0.on_message(from, msg, &mut LoggedCtx(ctx));
    }
    fn on_timer(&mut self, timer: TimerId, tag: u64, ctx: &mut dyn Context) {
        self.0.on_timer(timer, tag, &mut LoggedCtx(ctx));
    }
    fn on_node_status(&mut self, node: NodeId, up: bool, ctx: &mut dyn Context) {
        self.0.on_node_status(node, up, &mut LoggedCtx(ctx));
    }
    fn on_recover(&mut self, ctx: &mut dyn Context) {
        self.0.on_recover(&mut LoggedCtx(ctx));
    }
    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

/// A record as the hash reads it: the per-message records in the
/// encoding the kernel gave them (tag 0 sent, tag 1 delivered, then
/// sender, destination, size), every other event in its own.
fn encoded(node: NodeId, event: &TraceEvent) -> Bytes {
    let node = u64::from(node);
    match *event {
        TraceEvent::Custom { kind: "sent", a, b } => marp_wire::to_bytes(&(0u8, (node, a, b))),
        TraceEvent::Custom {
            kind: "delivered",
            a,
            b,
        } => marp_wire::to_bytes(&(1u8, (a, node, b))),
        _ => marp_wire::to_bytes(event),
    }
}

/// Three clients write the same key every 3 ms through servers 0–2
/// (every round of one coordinator collides with the other two's); a
/// fourth reads through server 3. Server 1 crashes at 14 ms with a
/// round open and a queue behind it and recovers at 250 ms, while its
/// client is still retrying; servers 3 and 4 are down from 16 to
/// 120 ms, so for that long no round can win or lose on votes and the
/// open ones run into their round timeout.
fn run(build: impl Fn(NodeId) -> Box<dyn Process>, wrap: ClientWrapFn, seed: u64) -> Pinned {
    let topo = Topology::uniform_lan(N * 2 + 2, Duration::from_millis(2));
    let transport = SimTransport::new(topo, LinkModel::ideal(), SimRng::from_seed(seed));
    let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
    for me in 0..N as NodeId {
        sim.add_process(Box::new(Logged(build(me))));
    }
    for server in 0..3u16 {
        let script: Vec<(Duration, Operation)> = (0..8)
            .map(|i| {
                (
                    Duration::from_millis(3),
                    Operation::Write {
                        key: 7,
                        value: u64::from(server) * 100 + i,
                    },
                )
            })
            .collect();
        sim.add_process(Box::new(Logged(Box::new(
            ClientProcess::new(server, Box::new(ScriptedSource::new(script)), wrap)
                .with_retry(Duration::from_millis(400), 4),
        ))));
    }
    let reads: Vec<(Duration, Operation)> = (0..6)
        .map(|_| (Duration::from_millis(40), Operation::Read { key: 7 }))
        .collect();
    sim.add_process(Box::new(Logged(Box::new(ClientProcess::new(
        3,
        Box::new(ScriptedSource::new(reads)),
        wrap,
    )))));
    let outages = [
        (14, 1, false),
        (16, 3, false),
        (16, 4, false),
        (120, 3, true),
        (120, 4, true),
        (250, 1, true),
    ];
    for (at_ms, node, up) in outages {
        sim.schedule_control(SimTime::from_millis(at_ms), Control::SetNodeUp { node, up });
    }
    let stats = sim.run_until(SimTime::from_secs(20));
    // FNV-1a over every record: time, node, encoded event.
    let mut trace_hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            trace_hash = (trace_hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut opened = HashMap::new();
    let (mut rounds, mut timed_out, mut writes_done) = (0, 0, 0);
    for record in sim.trace().records() {
        eat(&record.at.as_nanos().to_le_bytes());
        eat(&record.node.to_le_bytes());
        eat(&encoded(record.node, &record.event));
        match record.event {
            TraceEvent::SpanStart {
                id,
                kind: SpanKind::UpdateQuorum,
                ..
            } => {
                rounds += 1;
                opened.insert(id, record.at);
            }
            TraceEvent::SpanEnd {
                id,
                kind: SpanKind::UpdateQuorum,
            } if record.at == opened[&id] + ROUND_TIMEOUT => timed_out += 1,
            TraceEvent::UpdateCompleted { .. } => writes_done += 1,
            _ => {}
        }
    }
    Pinned {
        rounds,
        timed_out,
        writes_done,
        events: stats.events,
        messages: stats.messages_sent,
        bytes: stats.bytes_sent,
        timers_fired: stats.timers_fired,
        trace_hash,
    }
}

/// What a run is pinned to. The first three say what the scenario
/// exercises (rounds that lost or timed out are `rounds − writes_done`);
/// the rest is the oracle proper.
#[derive(Debug, PartialEq)]
struct Pinned {
    /// Vote rounds opened.
    rounds: u32,
    /// Rounds closed by their round timer.
    timed_out: u32,
    writes_done: u32,
    events: u64,
    messages: u64,
    bytes: u64,
    timers_fired: u64,
    trace_hash: u64,
}

#[test]
fn mcv_round_is_pinned() {
    let got = run(
        |me| Box::new(McvNode::new(me, McvConfig::new(N))),
        wrap_mcv_client_request,
        11,
    );
    assert_eq!(
        got,
        Pinned {
            rounds: 29,
            timed_out: 2,
            writes_done: 24,
            events: 798,
            messages: 487,
            bytes: 4775,
            timers_fired: 291,
            trace_hash: 4_260_488_297_743_869_888,
        }
    );
}

#[test]
fn uniform_weighted_round_is_pinned() {
    let got = run(
        |me| Box::new(WvNode::new(me, WvConfig::uniform(N))),
        wrap_wv_client_request,
        12,
    );
    assert_eq!(
        got,
        Pinned {
            rounds: 29,
            timed_out: 2,
            writes_done: 24,
            events: 627,
            messages: 516,
            bytes: 2620,
            timers_fired: 94,
            trace_hash: 10_046_279_483_892_519_144,
        }
    );
}

#[test]
fn heterogeneous_weighted_round_is_pinned() {
    // The 3-1-1-1-1 configuration of the unit test
    // `heterogeneous_votes_let_a_heavy_pair_form_a_write_quorum`.
    let cfg = WvConfig {
        votes: vec![3, 1, 1, 1, 1],
        read_quorum: 4,
        write_quorum: 4,
        promise_lease: Duration::from_secs(2),
        round_timeout: ROUND_TIMEOUT,
        retry: RetryPolicy::COORDINATOR,
    };
    let got = run(
        |me| Box::new(WvNode::new(me, cfg.clone())),
        wrap_wv_client_request,
        13,
    );
    assert_eq!(
        got,
        Pinned {
            rounds: 27,
            timed_out: 0,
            writes_done: 24,
            events: 571,
            messages: 464,
            bytes: 2320,
            timers_fired: 90,
            trace_hash: 833_592_214_195_200_662,
        }
    );
}
