//! Primary copy — a simple sequencer baseline.
//!
//! All writes are forwarded to one distinguished replica (the primary),
//! which assigns dense global versions and replicates them to the
//! backups, waiting for a majority of acknowledgements before declaring
//! the write complete. Reads are local. This is the cheapest consistent
//! scheme when the primary is alive; its weakness (no failover — a dead
//! primary stalls every write) is exactly what the fully-distributed
//! MARP design avoids, and experiment E7 shows it.

use bytes::Bytes;
use marp_quorum::{QuorumCall, TimerMux, Verdict};
use marp_replica::{ClientRequest, CommitRecord, ServerConfig, ServerCore, SyncMsg, WriteRequest};
use marp_sim::{impl_as_any, span_id, Context, NodeId, Process, SpanKind, TimerId, TraceEvent};
use std::collections::HashMap;
use std::time::Duration;

/// Primary-copy deployment knobs.
#[derive(Debug, Clone, Copy)]
pub struct PcConfig {
    /// Number of replica servers.
    pub n_servers: usize,
    /// The distinguished primary (usually node 0).
    pub primary: NodeId,
    /// Maintenance cadence (anti-entropy checks on backups).
    pub maintenance_interval: Duration,
}

impl PcConfig {
    /// Defaults with node 0 as primary.
    pub fn new(n_servers: usize) -> Self {
        assert!(n_servers >= 1);
        PcConfig {
            n_servers,
            primary: 0,
            maintenance_interval: Duration::from_millis(500),
        }
    }
}

/// Primary-copy wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum PcMsg {
    /// Client traffic.
    Client(ClientRequest),
    /// A backup forwarding a write to the primary.
    Forward {
        /// The write (client bookkeeping stays at the receiving node).
        request: WriteRequest,
    },
    /// Primary → all: apply this record.
    Replicate {
        /// The record (dense global version).
        record: CommitRecord,
    },
    /// Backup → primary: record applied.
    RepAck {
        /// The acknowledged version.
        version: u64,
    },
    /// Anti-entropy.
    Sync(SyncMsg),
}

marp_wire::wire_enum!(PcMsg {
    0 => Client(request),
    1 => Forward { request },
    2 => Replicate { record },
    3 => RepAck { version },
    4 => Sync(msg),
});

/// Encode a [`ClientRequest`] into the primary-copy message space.
pub fn wrap_client_request(request: ClientRequest) -> Bytes {
    marp_wire::to_bytes(&PcMsg::Client(request))
}

fn wrap_sync(msg: SyncMsg) -> Bytes {
    marp_wire::to_bytes(&PcMsg::Sync(msg))
}

marp_quorum::timer_kinds! {
    enum PcTimer { Maintenance = 1 }
}

struct InFlight {
    request: WriteRequest,
    /// The server that accepted the request (its completion's `home`).
    origin: NodeId,
    /// The replication round: a majority of per-replica acks (the
    /// primary's own copy included) completes the write.
    call: QuorumCall<()>,
}

/// One primary-copy replica server.
pub struct PcNode {
    cfg: PcConfig,
    /// Shared replica substrate.
    pub core: ServerCore,
    next_version: u64,
    in_flight: HashMap<u64, InFlight>,
    timers: TimerMux<PcTimer>,
}

impl PcNode {
    /// Build the node for server `me`.
    pub fn new(me: NodeId, cfg: PcConfig) -> Self {
        PcNode {
            cfg,
            core: ServerCore::new(me, ServerConfig::default(), wrap_sync),
            next_version: 0,
            in_flight: HashMap::new(),
            timers: TimerMux::new(),
        }
    }

    fn me(&self) -> NodeId {
        self.core.me()
    }

    fn is_primary(&self) -> bool {
        self.me() == self.cfg.primary
    }

    /// `origin` is the server that accepted the client request (it holds
    /// the pending-client entry and so anchors the request's span).
    fn sequence_write(&mut self, request: WriteRequest, origin: NodeId, ctx: &mut dyn Context) {
        debug_assert!(self.is_primary());
        self.next_version += 1;
        let record = CommitRecord {
            version: self.next_version,
            key: request.key,
            value: request.value,
            agent: u64::from(self.cfg.primary) << 32 | self.next_version,
            request: request.id,
            committed_at: ctx.now(),
        };
        let span = span_id(SpanKind::UpdateQuorum, record.agent, self.next_version);
        ctx.trace(TraceEvent::SpanStart {
            id: span,
            parent: 0,
            kind: SpanKind::UpdateQuorum,
            a: record.agent,
            b: self.next_version,
        });
        ctx.trace(TraceEvent::SpanLink {
            from: span_id(SpanKind::Request, request.id, u64::from(origin)),
            to: span,
        });
        // Closed by ServerCore when the commit reaches the pending
        // client at the accepting server (possibly this node).
        ctx.trace(TraceEvent::SpanStart {
            id: span_id(SpanKind::Commit, record.agent, record.request),
            parent: span,
            kind: SpanKind::Commit,
            a: record.agent,
            b: record.request,
        });
        let mut call = QuorumCall::majority(self.cfg.n_servers as u16, ctx.now()).with_span(span);
        // The primary's own copy counts (decides outright when n = 1).
        let verdict = call.offer_vote(self.me(), true, ());
        self.in_flight.insert(
            record.version,
            InFlight {
                request,
                origin,
                call,
            },
        );
        let msg = PcMsg::Replicate {
            record: record.clone(),
        };
        let bytes = marp_wire::to_bytes(&msg);
        for server in 0..self.cfg.n_servers as NodeId {
            if server != self.me() {
                ctx.send(server, bytes.clone());
            }
        }
        self.core.apply_commits(vec![record], ctx);
        if verdict == Some(Verdict::Won) {
            self.complete(self.next_version, ctx);
        }
    }

    fn complete(&mut self, version: u64, ctx: &mut dyn Context) {
        let Some(flight) = self.in_flight.remove(&version) else {
            return;
        };
        ctx.trace(TraceEvent::SpanEnd {
            id: flight.call.span(),
            kind: SpanKind::UpdateQuorum,
        });
        ctx.trace(TraceEvent::UpdateCompleted {
            request: flight.request.id,
            home: flight.origin,
            arrived: flight.request.arrived,
            dispatched: flight.call.started(),
            locked: ctx.now(),
            visits: 0,
        });
    }

    fn handle_msg(&mut self, from: NodeId, msg: PcMsg, ctx: &mut dyn Context) {
        match msg {
            PcMsg::Client(request) => {
                match self.core.handle_client_request(from, request, ctx) {
                    marp_replica::ClientAction::Done => {}
                    marp_replica::ClientAction::Write(write) => {
                        if self.is_primary() {
                            let origin = self.me();
                            self.sequence_write(write, origin, ctx);
                        } else {
                            let forward = PcMsg::Forward { request: write };
                            ctx.send(self.cfg.primary, marp_wire::to_bytes(&forward));
                        }
                    }
                    // Primary copy downgrades consistent reads to local
                    // reads (the primary's backups may lag).
                    marp_replica::ClientAction::FreshRead(read) => {
                        self.core.serve_fresh_read_locally(read, ctx);
                    }
                }
            }
            PcMsg::Forward { request } => {
                if self.is_primary() {
                    self.sequence_write(request, from, ctx);
                }
            }
            PcMsg::Replicate { record } => {
                let version = record.version;
                self.core.apply_commits(vec![record], ctx);
                ctx.send(
                    self.cfg.primary,
                    marp_wire::to_bytes(&PcMsg::RepAck { version }),
                );
            }
            PcMsg::RepAck { version } => {
                // The call dedupes repeated acks; only the deciding ack
                // returns a verdict.
                let won = self.in_flight.get_mut(&version).is_some_and(|flight| {
                    flight.call.offer_vote(from, true, ()) == Some(Verdict::Won)
                });
                if won {
                    self.complete(version, ctx);
                }
            }
            PcMsg::Sync(sync) => self.core.handle_sync(from, sync, ctx),
        }
    }
}

impl Process for PcNode {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        let tag = self.timers.arm(PcTimer::Maintenance, 0);
        ctx.set_timer(self.cfg.maintenance_interval, tag);
    }

    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        if let Ok(msg) = marp_wire::from_bytes::<PcMsg>(&msg) {
            self.handle_msg(from, msg, ctx);
        }
    }

    fn on_timer(&mut self, _timer: TimerId, tag: u64, ctx: &mut dyn Context) {
        let Some((kind, _)) = self.timers.fired(tag) else {
            return; // stale: armed before a crash
        };
        match kind {
            PcTimer::Maintenance => {
                let peer = self.cfg.primary;
                if peer != self.me() {
                    self.core.pull_if_behind(peer, ctx);
                }
                let tag = self.timers.arm(PcTimer::Maintenance, 0);
                ctx.set_timer(self.cfg.maintenance_interval, tag);
            }
        }
    }

    fn on_recover(&mut self, ctx: &mut dyn Context) {
        self.core.on_recover();
        self.in_flight.clear();
        self.next_version = self.core.store.applied_version();
        // Timers armed before the crash never fire again (the engine
        // drops them), so the mux restarts from scratch.
        self.timers.clear();
        let tag = self.timers.arm(PcTimer::Maintenance, 0);
        ctx.set_timer(self.cfg.maintenance_interval, tag);
        if !self.is_primary() {
            self.core.pull_from(self.cfg.primary, ctx);
        }
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_net::{LinkModel, SimTransport, Topology};
    use marp_replica::{ClientProcess, Operation, ScriptedSource};
    use marp_sim::{SimRng, SimTime, Simulation, TraceLevel};

    fn build(n: usize, seed: u64) -> Simulation {
        let topo = Topology::uniform_lan(n * 2 + 2, Duration::from_millis(2));
        let transport = SimTransport::new(topo, LinkModel::ideal(), SimRng::from_seed(seed));
        let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
        for me in 0..n as NodeId {
            sim.add_process(Box::new(PcNode::new(me, PcConfig::new(n))));
        }
        sim
    }

    #[test]
    fn writes_through_backup_are_forwarded_and_ordered() {
        let mut sim = build(3, 1);
        // Two clients through different servers.
        for (server, key) in [(0u16, 1u64), (2, 2)] {
            sim.add_process(Box::new(ClientProcess::new(
                server,
                Box::new(ScriptedSource::new([(
                    Duration::from_millis(1),
                    Operation::Write {
                        key,
                        value: key * 10,
                    },
                )])),
                wrap_client_request,
            )));
        }
        sim.run_until(SimTime::from_secs(2));
        let logs: Vec<Vec<u64>> = (0..3u16)
            .map(|s| {
                sim.process::<PcNode>(s)
                    .unwrap()
                    .core
                    .store
                    .log()
                    .iter()
                    .map(|r| r.version)
                    .collect()
            })
            .collect();
        assert_eq!(logs[0], vec![1, 2]);
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
        assert_eq!(
            sim.trace()
                .count(|e| matches!(e, TraceEvent::UpdateCompleted { .. })),
            2
        );
    }

    #[test]
    fn client_of_backup_gets_write_done() {
        let mut sim = build(3, 2);
        let client = sim.add_process(Box::new(ClientProcess::new(
            1,
            Box::new(ScriptedSource::new([(
                Duration::from_millis(1),
                Operation::Write { key: 5, value: 55 },
            )])),
            wrap_client_request,
        )));
        sim.run_until(SimTime::from_secs(2));
        let proc = sim.process::<ClientProcess>(client).unwrap();
        assert_eq!(proc.stats.write_latencies.len(), 1);
    }

    #[test]
    fn dead_primary_stalls_writes() {
        let mut sim = build(3, 3);
        sim.schedule_control(
            SimTime::ZERO,
            marp_sim::Control::SetNodeUp { node: 0, up: false },
        );
        let client = sim.add_process(Box::new(ClientProcess::new(
            1,
            Box::new(ScriptedSource::new([(
                Duration::from_millis(5),
                Operation::Write { key: 5, value: 55 },
            )])),
            wrap_client_request,
        )));
        sim.run_until(SimTime::from_secs(3));
        let proc = sim.process::<ClientProcess>(client).unwrap();
        assert_eq!(
            proc.stats.write_latencies.len(),
            0,
            "no commit without primary"
        );
    }

    #[test]
    fn msg_roundtrip() {
        let msgs = vec![
            PcMsg::Forward {
                request: WriteRequest {
                    id: 1,
                    client: 2,
                    key: 3,
                    value: 4,
                    arrived: SimTime::from_millis(5),
                },
            },
            PcMsg::RepAck { version: 9 },
        ];
        for msg in msgs {
            let bytes = marp_wire::to_bytes(&msg);
            assert_eq!(marp_wire::from_bytes::<PcMsg>(&bytes).unwrap(), msg);
        }
    }
}
