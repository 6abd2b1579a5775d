//! Majority Consensus Voting (MCV) — the message-passing comparator.
//!
//! This is the scheme the paper's protocol is "based on" (Thomas 1979),
//! implemented the conventional way the paper argues against: the home
//! server acts as a stationary coordinator that *exchanges messages*
//! with every replica — a vote-collection round, then an apply
//! broadcast — instead of sending an agent to interact locally.
//! Contention shows up as rejected rounds and backoff retries, the
//! "sessions of passing messages and waiting for replies" of §1.

use crate::common::{scaled_to_latency, Ballot, Coordinator, RoundSpec, VoteTimer};
use bytes::Bytes;
use marp_quorum::{RetryPolicy, SuccessRule};
use marp_replica::{ClientRequest, CommitRecord, ServerConfig, ServerCore, SyncMsg};
use marp_sim::{impl_as_any, Context, NodeId, Process, SpanKey, TimerId, TraceEvent};
use std::time::Duration;

/// Maintenance cadence (anti-entropy checks).
const MAINTENANCE_INTERVAL: Duration = Duration::from_millis(500);

/// MCV deployment knobs.
#[derive(Debug, Clone, Copy)]
pub struct McvConfig {
    /// Number of replica servers.
    pub n_servers: usize,
    /// How long a vote promise binds a replica.
    pub promise_lease: Duration,
    /// Coordinator round timeout before aborting and backing off.
    pub round_timeout: Duration,
    /// Backoff after a failed round (grown by attempt count; the
    /// per-node stagger is folded in at node construction).
    pub retry: RetryPolicy,
}

impl McvConfig {
    /// Defaults matched to the MARP LAN configuration for fair
    /// comparison.
    pub fn new(n_servers: usize) -> Self {
        assert!(n_servers >= 1);
        McvConfig {
            n_servers,
            promise_lease: Duration::from_secs(2),
            round_timeout: Duration::from_millis(100),
            retry: RetryPolicy::COORDINATOR,
        }
    }

    /// Scale the coordinator's timeouts to a deployment whose worst
    /// one-way latency is `max_latency`: a vote round cannot finish
    /// inside the physical round trip, and a shorter timeout turns every
    /// round into an abort.
    pub fn scaled_to_latency(mut self, max_latency: std::time::Duration) -> Self {
        (self.round_timeout, self.retry, self.promise_lease) = scaled_to_latency(
            (self.round_timeout, self.retry, self.promise_lease),
            max_latency,
        );
        self
    }
}

/// MCV wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum McvMsg {
    /// Client traffic.
    Client(ClientRequest),
    /// Coordinator requests a vote for its round.
    VoteReq {
        /// The round.
        ballot: Ballot,
    },
    /// A replica's vote.
    Vote {
        /// The round voted on.
        ballot: Ballot,
        /// Granted or refused.
        granted: bool,
        /// The replica's applied version (winner writes above the max).
        store_version: u64,
    },
    /// Commit broadcast after a successful round.
    Apply {
        /// The winning round.
        ballot: Ballot,
        /// Records to apply.
        records: Vec<CommitRecord>,
    },
    /// Abort broadcast after a failed round.
    Release {
        /// The aborted round.
        ballot: Ballot,
    },
    /// Anti-entropy.
    Sync(SyncMsg),
}

marp_wire::wire_enum!(McvMsg {
    0 => Client(request),
    1 => VoteReq { ballot },
    2 => Vote { ballot, granted, store_version },
    3 => Apply { ballot, records },
    4 => Release { ballot },
    5 => Sync(msg),
});

/// Encode a [`ClientRequest`] into the MCV node message space.
pub fn wrap_client_request(request: ClientRequest) -> Bytes {
    marp_wire::to_bytes(&McvMsg::Client(request))
}

fn wrap_sync(msg: SyncMsg) -> Bytes {
    marp_wire::to_bytes(&McvMsg::Sync(msg))
}

/// One MCV replica server: the shared vote round decided by a plain
/// majority, over a store with dense global versions that every replica
/// applies and anti-entropy repairs; reads are local.
pub struct McvNode {
    cfg: McvConfig,
    /// Shared replica substrate (store, client bookkeeping, sync).
    pub core: ServerCore,
    coord: Coordinator,
    /// What `apply_commits` appends to (nothing here reads it).
    applied: Vec<CommitRecord>,
}

impl McvNode {
    /// Build the node for server `me`.
    pub fn new(me: NodeId, cfg: McvConfig) -> Self {
        let spec = RoundSpec {
            n_servers: cfg.n_servers,
            rule: SuccessRule::Majority {
                n: cfg.n_servers as u16,
            },
            round_timeout: cfg.round_timeout,
            retry: cfg.retry,
            vote_request: |ballot| marp_wire::to_bytes(&McvMsg::VoteReq { ballot }),
            release: |ballot| marp_wire::to_bytes(&McvMsg::Release { ballot }),
        };
        McvNode {
            cfg,
            core: ServerCore::new(me, ServerConfig::default(), wrap_sync),
            coord: Coordinator::new(me, spec),
            applied: Vec::new(),
        }
    }

    fn me(&self) -> NodeId {
        self.core.me()
    }

    /// The ring neighbour anti-entropy pulls from, if there is one.
    fn sync_peer(&self) -> Option<NodeId> {
        let peer = (self.me() + 1) % self.cfg.n_servers as NodeId;
        (peer != self.me()).then_some(peer)
    }

    fn arm_maintenance(&mut self, ctx: &mut dyn Context) {
        let tag = self.coord.timers.arm(VoteTimer::Maintenance, 0);
        ctx.set_timer(MAINTENANCE_INTERVAL, tag);
    }

    fn on_vote(
        &mut self,
        from: NodeId,
        ballot: Ballot,
        granted: bool,
        version: u64,
        ctx: &mut dyn Context,
    ) {
        let Some(round) = self.coord.on_vote(from, ballot, 1, granted, version, ctx) else {
            return;
        };
        let base = round.call.max_payload().unwrap_or(0);
        let record = CommitRecord {
            version: base + 1,
            key: round.request.key,
            value: round.request.value,
            agent: ballot.surrogate(),
            request: round.request.id,
            committed_at: ctx.now(),
        };
        ctx.trace(ballot.span().end());
        // Closed by ServerCore when the commit reaches the
        // pending client at this (home) replica.
        ctx.trace(SpanKey::commit(record.agent, record.request).start(Some(ballot.span())));
        // Thomas: the write lands on every replica.
        let apply = marp_wire::to_bytes(&McvMsg::Apply {
            ballot,
            records: vec![record],
        });
        self.coord.broadcast(apply, ctx);
        ctx.trace(TraceEvent::UpdateCompleted {
            request: round.request.id,
            home: self.me(),
            arrived: round.request.arrived,
            dispatched: round.call.started(),
            locked: ctx.now(),
            visits: 0,
        });
        self.coord.next_round(ctx);
    }

    fn handle_msg(&mut self, from: NodeId, msg: McvMsg, ctx: &mut dyn Context) {
        match msg {
            McvMsg::Client(request) => {
                match self.core.handle_client_request(from, request, ctx) {
                    marp_replica::ClientAction::Done => {}
                    marp_replica::ClientAction::Write(write) => self.coord.submit(write, ctx),
                    // MCV has no quorum-read machinery: consistent reads
                    // are downgraded to local reads.
                    marp_replica::ClientAction::FreshRead(read) => {
                        self.core.serve_fresh_read_locally(read, ctx);
                    }
                }
            }
            McvMsg::VoteReq { ballot } => {
                // A buffered commit counts: its `Apply` released this
                // replica's promise, so the version is taken even while
                // a gap keeps it unapplied.
                let lease = self.cfg.promise_lease;
                let granted = self.coord.vote.grant(ballot, ctx.now(), lease);
                let reply = McvMsg::Vote {
                    ballot,
                    granted,
                    store_version: self.core.store.seen_version(),
                };
                ctx.send(ballot.coordinator, marp_wire::to_bytes(&reply));
            }
            McvMsg::Vote {
                ballot,
                granted,
                store_version,
            } => self.on_vote(from, ballot, granted, store_version, ctx),
            McvMsg::Apply { ballot, records } => {
                self.core.apply_commits(&records, ctx, &mut self.applied);
                self.applied.clear();
                self.coord.vote.release(ballot);
            }
            McvMsg::Release { ballot } => self.coord.vote.release(ballot),
            McvMsg::Sync(sync) => self.core.handle_sync(from, &sync, ctx),
        }
    }
}

impl Process for McvNode {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.arm_maintenance(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        if let Ok(msg) = marp_wire::from_bytes::<McvMsg>(&msg) {
            self.handle_msg(from, msg, ctx);
        }
    }

    fn on_timer(&mut self, _timer: TimerId, tag: u64, ctx: &mut dyn Context) {
        if self.coord.on_timer(tag, ctx) {
            if let Some(peer) = self.sync_peer() {
                self.core.pull_if_behind(peer, ctx);
            }
            self.arm_maintenance(ctx);
        }
    }

    fn on_recover(&mut self, ctx: &mut dyn Context) {
        self.core.on_recover();
        self.coord.on_recover();
        self.arm_maintenance(ctx);
        if let Some(peer) = self.sync_peer() {
            self.core.pull_from(peer, ctx);
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
            sim.add_process(Box::new(McvNode::new(me, McvConfig::new(n))));
        }
        sim
    }

    #[test]
    fn single_write_commits_everywhere() {
        let mut sim = build(5, 1);
        sim.add_process(Box::new(ClientProcess::new(
            0,
            Box::new(ScriptedSource::new([(
                Duration::from_millis(1),
                Operation::Write { key: 4, value: 44 },
            )])),
            wrap_client_request,
        )));
        sim.run_until(SimTime::from_secs(2));
        for server in 0..5u16 {
            let node = sim.process::<McvNode>(server).unwrap();
            assert_eq!(node.core.store.get(4).map(|s| s.value), Some(44));
        }
    }

    #[test]
    fn concurrent_coordinators_serialize() {
        let mut sim = build(5, 2);
        for server in 0..2u16 {
            let script: Vec<(Duration, Operation)> = (0..5)
                .map(|i| {
                    (
                        Duration::from_millis(4),
                        Operation::Write {
                            key: u64::from(server),
                            value: i,
                        },
                    )
                })
                .collect();
            sim.add_process(Box::new(ClientProcess::new(
                server,
                Box::new(ScriptedSource::new(script)),
                wrap_client_request,
            )));
        }
        sim.run_until(SimTime::from_secs(30));
        let logs: Vec<Vec<u64>> = (0..5u16)
            .map(|s| {
                sim.process::<McvNode>(s)
                    .unwrap()
                    .core
                    .store
                    .log()
                    .iter()
                    .map(|r| r.request)
                    .collect()
            })
            .collect();
        assert_eq!(logs[0].len(), 10, "all writes commit");
        for log in &logs {
            assert_eq!(log, &logs[0], "same order everywhere");
        }
        assert_eq!(
            sim.trace()
                .count(|e| matches!(e, TraceEvent::UpdateCompleted { .. })),
            10
        );
    }

    #[test]
    fn reads_are_local() {
        let mut sim = build(3, 3);
        let client = sim.add_process(Box::new(ClientProcess::new(
            1,
            Box::new(ScriptedSource::new([(
                Duration::from_millis(1),
                Operation::Read { key: 1 },
            )])),
            wrap_client_request,
        )));
        sim.run_until(SimTime::from_secs(1));
        let proc = sim.process::<ClientProcess>(client).unwrap();
        assert_eq!(proc.stats.read_latencies.len(), 1);
        assert!(proc.stats.mean_read_ms().unwrap() < 6.0);
    }

    #[test]
    fn msg_roundtrip() {
        let msgs = vec![
            McvMsg::VoteReq {
                ballot: Ballot::first(1),
            },
            McvMsg::Vote {
                ballot: Ballot::first(1),
                granted: true,
                store_version: 9,
            },
            McvMsg::Release {
                ballot: Ballot::first(2),
            },
        ];
        for msg in msgs {
            let bytes = marp_wire::to_bytes(&msg);
            assert_eq!(marp_wire::from_bytes::<McvMsg>(&bytes).unwrap(), msg);
        }
    }
}
