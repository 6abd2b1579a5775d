//! Available Copy (AC) — write-all-available / read-one.
//!
//! The optimistic baseline the paper discusses (§3.1, citing Bernstein
//! et al.): "Update operations must be applied at all available
//! replicas. If all available replicas participated in the last update,
//! an application can read from any replica and observe the update."
//! There is no quorum and no global order — replicas converge through
//! last-writer-wins timestamps — so the protocol is cheap and fast but
//! "vulnerable to communication partitions", which experiment E7 makes
//! visible.

use crate::common::{LwwStore, LwwTs};
use bytes::Bytes;
use marp_quorum::{QuorumCall, SuccessRule, TimerMux, Verdict};
use marp_replica::{ClientReply, ClientRequest, Operation};
use marp_sim::{impl_as_any, Context, NodeId, Process, SpanKey, SpanKind, TimerId, TraceEvent};
use std::collections::HashMap;
use std::time::Duration;

/// AC deployment knobs.
#[derive(Debug, Clone, Copy)]
pub struct AcConfig {
    /// Number of replica servers.
    pub n_servers: usize,
    /// Safety net: complete a write anyway after this long even if some
    /// ack never came (e.g. it raced a crash the detector has not
    /// reported yet).
    pub ack_timeout: Duration,
}

impl AcConfig {
    /// Defaults.
    pub fn new(n_servers: usize) -> Self {
        assert!(n_servers >= 1);
        AcConfig {
            n_servers,
            ack_timeout: Duration::from_millis(500),
        }
    }

    /// Scale the write-ack safety net to the deployment's worst one-way
    /// latency.
    pub fn scaled_to_latency(mut self, max_latency: Duration) -> Self {
        self.ack_timeout = self.ack_timeout.max(max_latency * 5);
        self
    }
}

/// AC wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum AcMsg {
    /// Client traffic.
    Client(ClientRequest),
    /// Propagate a write to an available replica.
    Write {
        /// Originating request.
        request: u64,
        /// Key.
        key: u64,
        /// Value.
        value: u64,
        /// Last-writer-wins timestamp.
        ts: LwwTs,
    },
    /// Replica acknowledges a propagated write.
    WriteAck {
        /// The request being acked.
        request: u64,
    },
    /// Recovery: ask a peer for its full store.
    StatePull,
    /// Recovery: the peer's store contents.
    StatePush {
        /// `(key, value, ts)` triples.
        dump: Vec<(u64, u64, LwwTs)>,
    },
}

marp_wire::wire_enum!(AcMsg {
    0 => Client(request),
    1 => Write { request, key, value, ts },
    2 => WriteAck { request },
    3 => StatePull,
    4 => StatePush { dump },
});

/// Encode a [`ClientRequest`] into the AC node message space.
pub fn wrap_client_request(request: ClientRequest) -> Bytes {
    marp_wire::to_bytes(&AcMsg::Client(request))
}

marp_quorum::timer_kinds! {
    /// A write's ack deadline (epoch = request id).
    enum AcTimer { Ack = 1 }
}

struct PendingWrite {
    client: NodeId,
    /// The propagation round: every available replica must ack
    /// ([`SuccessRule::AllAvailable`]); failed replicas are retracted.
    call: QuorumCall<()>,
    version: u64,
}

/// One Available Copy replica server.
pub struct AcNode {
    cfg: AcConfig,
    me: NodeId,
    /// The replicated data (LWW convergent).
    pub store: LwwStore,
    up: Vec<bool>,
    pending: HashMap<u64, PendingWrite>,
    timers: TimerMux<AcTimer>,
}

impl AcNode {
    /// Build the node for server `me`.
    pub fn new(me: NodeId, cfg: AcConfig) -> Self {
        AcNode {
            me,
            up: vec![true; cfg.n_servers],
            store: LwwStore::new(),
            pending: HashMap::new(),
            timers: TimerMux::new(),
            cfg,
        }
    }

    /// Writes accepted but not yet fully acknowledged.
    pub fn pending_writes(&self) -> usize {
        self.pending.len()
    }

    /// The propagation round of `request`, accepted here.
    fn round_span(&self, request: u64) -> SpanKey {
        SpanKey::new(SpanKind::UpdateQuorum, request, u64::from(self.me))
    }

    fn complete(&mut self, request: u64, ctx: &mut dyn Context) {
        if let Some(done) = self.pending.remove(&request) {
            self.timers.disarm(AcTimer::Ack, request);
            let arrived = done.call.started();
            ctx.trace(self.round_span(request).end());
            ctx.trace(SpanKey::request(request, self.me).end());
            ctx.trace(TraceEvent::UpdateCompleted {
                request,
                home: self.me,
                arrived,
                dispatched: arrived,
                locked: ctx.now(),
                visits: 0,
            });
            let reply = ClientReply::WriteDone {
                id: request,
                version: done.version,
            };
            ctx.send(done.client, marp_wire::to_bytes(&reply));
        }
    }

    fn handle_msg(&mut self, from: NodeId, msg: AcMsg, ctx: &mut dyn Context) {
        match msg {
            AcMsg::Client(request) => {
                ctx.trace(TraceEvent::RequestArrived {
                    node: self.me,
                    request: request.id,
                    write: request.op.is_write(),
                });
                match request.op {
                    // AC has no freshness guarantee to offer: both read
                    // flavours are local (the protocol's documented
                    // weakness).
                    Operation::Read { key } | Operation::ReadFresh { key } => {
                        let held = self.store.get(key);
                        ctx.trace(TraceEvent::ReadServed {
                            node: self.me,
                            request: request.id,
                            version: held.map_or(0, |(_, ts)| ts.counter),
                        });
                        let reply = ClientReply::ReadOk {
                            id: request.id,
                            key,
                            value: held.map(|(v, _)| v),
                            version: held.map_or(0, |(_, ts)| ts.counter),
                        };
                        ctx.send(from, marp_wire::to_bytes(&reply));
                    }
                    Operation::Write { key, value } => {
                        let req_span = SpanKey::request(request.id, self.me);
                        ctx.trace(req_span.start(None));
                        let ts = self.store.stamp(self.me);
                        self.store.apply(key, value, ts);
                        // Write to every *available* replica.
                        let waiting: Vec<NodeId> = (0..self.cfg.n_servers as NodeId)
                            .filter(|&s| s != self.me && self.up[usize::from(s)])
                            .collect();
                        let payload = marp_wire::to_bytes(&AcMsg::Write {
                            request: request.id,
                            key,
                            value,
                            ts,
                        });
                        for &server in &waiting {
                            ctx.send(server, payload.clone());
                        }
                        // The propagation round runs under its own span;
                        // the request span links to it.
                        let round_span = self.round_span(request.id);
                        ctx.trace(round_span.start(None));
                        ctx.trace(req_span.link_to(round_span));
                        // With no other available replica the call is
                        // won at construction: done immediately.
                        let call = QuorumCall::new(SuccessRule::AllAvailable, waiting, ctx.now());
                        let won = call.verdict() == Some(Verdict::Won);
                        self.pending.insert(
                            request.id,
                            PendingWrite {
                                client: from,
                                call,
                                version: ts.counter,
                            },
                        );
                        let tag = self.timers.arm(AcTimer::Ack, request.id);
                        ctx.set_timer(self.cfg.ack_timeout, tag);
                        if won {
                            self.complete(request.id, ctx);
                        }
                    }
                }
            }
            AcMsg::Write {
                request,
                key,
                value,
                ts,
            } => {
                self.store.apply(key, value, ts);
                ctx.trace(TraceEvent::CommitApplied {
                    node: self.me,
                    version: ts.counter,
                    agent: request,
                    key,
                    request,
                });
                ctx.send(from, marp_wire::to_bytes(&AcMsg::WriteAck { request }));
            }
            AcMsg::WriteAck { request } => {
                let won = self.pending.get_mut(&request).is_some_and(|pending| {
                    pending.call.offer_vote(from, true, ()) == Some(Verdict::Won)
                });
                if won {
                    self.complete(request, ctx);
                }
            }
            AcMsg::StatePull => {
                let reply = AcMsg::StatePush {
                    dump: self.store.dump(),
                };
                ctx.send(from, marp_wire::to_bytes(&reply));
            }
            AcMsg::StatePush { dump } => self.store.absorb(dump),
        }
    }
}

impl Process for AcNode {
    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        if let Ok(msg) = marp_wire::from_bytes::<AcMsg>(&msg) {
            self.handle_msg(from, msg, ctx);
        }
    }

    fn on_timer(&mut self, _timer: TimerId, tag: u64, ctx: &mut dyn Context) {
        let Some((kind, request)) = self.timers.fired(tag) else {
            return; // stale: the write completed or a crash intervened
        };
        match kind {
            // Give up on missing acks: the replicas that answered have
            // the write; the silent ones are treated as failed (the
            // paper's fail-stop detection will confirm or they will
            // recover and pull state).
            AcTimer::Ack => {
                if self.pending.contains_key(&request) {
                    ctx.trace(TraceEvent::Custom {
                        kind: "ac-write-timeout",
                        a: request,
                        b: u64::from(self.me),
                    });
                    self.complete(request, ctx);
                }
            }
        }
    }

    fn on_node_status(&mut self, node: NodeId, up: bool, ctx: &mut dyn Context) {
        if usize::from(node) < self.up.len() {
            self.up[usize::from(node)] = up;
        }
        if !up {
            // Stop waiting on the failed replica.
            let stalled: Vec<u64> = self
                .pending
                .iter_mut()
                .filter_map(|(&req, p)| (p.call.retract(node) == Some(Verdict::Won)).then_some(req))
                .collect();
            for request in stalled {
                self.complete(request, ctx);
            }
        }
    }

    fn on_recover(&mut self, ctx: &mut dyn Context) {
        self.pending.clear();
        self.up = vec![true; self.cfg.n_servers];
        // Timers armed before the crash never fire again (the engine
        // drops them), so the mux restarts from scratch.
        self.timers.clear();
        // Pull the writes we missed from a peer.
        let peer = (self.me + 1) % self.cfg.n_servers as NodeId;
        if peer != self.me {
            ctx.send(peer, marp_wire::to_bytes(&AcMsg::StatePull));
        }
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_net::{FaultPlan, LinkModel, SimTransport, Topology};
    use marp_replica::{ClientProcess, ScriptedSource};
    use marp_sim::{SimRng, SimTime, Simulation, TraceLevel};

    fn build(n: usize, seed: u64) -> Simulation {
        let topo = Topology::uniform_lan(n * 2 + 2, Duration::from_millis(2));
        let transport = SimTransport::new(topo, LinkModel::ideal(), SimRng::from_seed(seed));
        let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
        for me in 0..n as NodeId {
            sim.add_process(Box::new(AcNode::new(me, AcConfig::new(n))));
        }
        sim
    }

    #[test]
    fn write_reaches_all_available_replicas() {
        let mut sim = build(4, 1);
        sim.add_process(Box::new(ClientProcess::new(
            0,
            Box::new(ScriptedSource::new([(
                Duration::from_millis(1),
                Operation::Write { key: 2, value: 22 },
            )])),
            wrap_client_request,
        )));
        sim.run_until(SimTime::from_secs(1));
        for server in 0..4u16 {
            let node = sim.process::<AcNode>(server).unwrap();
            assert_eq!(node.store.get(2).map(|(v, _)| v), Some(22));
            assert_eq!(node.pending_writes(), 0);
        }
    }

    #[test]
    fn concurrent_writes_converge_via_lww() {
        let mut sim = build(3, 2);
        for server in 0..3u16 {
            sim.add_process(Box::new(ClientProcess::new(
                server,
                Box::new(ScriptedSource::new([(
                    Duration::from_millis(1),
                    Operation::Write {
                        key: 1,
                        value: u64::from(server) + 10,
                    },
                )])),
                wrap_client_request,
            )));
        }
        sim.run_until(SimTime::from_secs(2));
        let values: Vec<u64> = (0..3u16)
            .map(|s| sim.process::<AcNode>(s).unwrap().store.get(1).unwrap().0)
            .collect();
        assert_eq!(values[0], values[1]);
        assert_eq!(values[1], values[2]);
    }

    #[test]
    fn down_replica_is_skipped_and_catches_up_on_recovery() {
        let mut sim = build(3, 3);
        let plan = FaultPlan::new(3)
            .detect_delay(Duration::from_millis(20))
            .crash(2, SimTime::from_millis(1), Duration::from_secs(1));
        plan.schedule_controls(&mut sim);
        sim.add_process(Box::new(ClientProcess::new(
            0,
            Box::new(ScriptedSource::new([(
                Duration::from_millis(100),
                Operation::Write { key: 5, value: 50 },
            )])),
            wrap_client_request,
        )));
        sim.run_until(SimTime::from_secs(5));
        // Completed despite server 2 being down...
        assert_eq!(
            sim.trace()
                .count(|e| matches!(e, TraceEvent::UpdateCompleted { .. })),
            1
        );
        // ...and server 2 pulled the write on recovery.
        let node2 = sim.process::<AcNode>(2).unwrap();
        assert_eq!(node2.store.get(5).map(|(v, _)| v), Some(50));
    }

    #[test]
    fn reads_are_local_and_fast() {
        let mut sim = build(3, 4);
        let client = sim.add_process(Box::new(ClientProcess::new(
            1,
            Box::new(ScriptedSource::new([(
                Duration::from_millis(1),
                Operation::Read { key: 9 },
            )])),
            wrap_client_request,
        )));
        sim.run_until(SimTime::from_secs(1));
        let proc = sim.process::<ClientProcess>(client).unwrap();
        assert_eq!(proc.stats.read_latencies.len(), 1);
        assert_eq!(proc.stats.mean_read_ms(), Some(4.0));
    }

    #[test]
    fn msg_roundtrip() {
        let msgs = vec![
            AcMsg::Write {
                request: 1,
                key: 2,
                value: 3,
                ts: LwwTs {
                    counter: 4,
                    node: 5,
                },
            },
            AcMsg::WriteAck { request: 1 },
            AcMsg::StatePull,
            AcMsg::StatePush {
                dump: vec![(
                    1,
                    2,
                    LwwTs {
                        counter: 3,
                        node: 4,
                    },
                )],
            },
        ];
        for msg in msgs {
            let bytes = marp_wire::to_bytes(&msg);
            assert_eq!(marp_wire::from_bytes::<AcMsg>(&bytes).unwrap(), msg);
        }
    }
}
