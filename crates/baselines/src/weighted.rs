//! Gifford weighted voting (1979) — the quorum baseline.
//!
//! Every replica holds a number of votes; a read needs a quorum of `r`
//! votes, a write a quorum of `w` votes, with `r + w` greater than the
//! total so every read quorum intersects every write quorum (the
//! consistency argument the paper recounts in §3.1). Unlike MARP,
//! *reads* pay quorum assembly here — that asymmetry is experiment E13.

use crate::common::{scaled_to_latency, Ballot, Coordinator, RoundSpec};
use bytes::Bytes;
use marp_quorum::{QuorumCall, RetryPolicy, SuccessRule, Verdict};
use marp_replica::{ClientReply, ClientRequest, Operation, WriteRequest};
use marp_sim::{impl_as_any, Context, NodeId, Process, SpanKey, TimerId, TraceEvent};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// Weighted-voting deployment knobs.
#[derive(Debug, Clone)]
pub struct WvConfig {
    /// Votes held by each replica (length = number of servers).
    pub votes: Vec<u32>,
    /// Read quorum.
    pub read_quorum: u32,
    /// Write quorum.
    pub write_quorum: u32,
    /// How long a write-lock promise binds a replica.
    pub promise_lease: Duration,
    /// Coordinator round timeout.
    pub round_timeout: Duration,
    /// Backoff after a failed round (the per-node stagger is folded in
    /// at node construction).
    pub retry: RetryPolicy,
}

impl WvConfig {
    /// One vote per replica, majority write quorum, read quorum chosen
    /// so that `r + w = n + 1`.
    pub fn uniform(n_servers: usize) -> Self {
        let w = (n_servers / 2 + 1) as u32;
        let r = n_servers as u32 + 1 - w;
        WvConfig {
            votes: vec![1; n_servers],
            read_quorum: r,
            write_quorum: w,
            promise_lease: Duration::from_secs(2),
            round_timeout: Duration::from_millis(100),
            retry: RetryPolicy::COORDINATOR,
        }
    }

    /// Total votes in the system.
    pub fn total_votes(&self) -> u32 {
        self.votes.iter().sum()
    }

    /// Number of servers.
    pub fn n_servers(&self) -> usize {
        self.votes.len()
    }

    /// Scale the coordinator's timeouts to a deployment whose worst
    /// one-way latency is `max_latency` (see `McvConfig`).
    pub fn scaled_to_latency(mut self, max_latency: Duration) -> Self {
        (self.round_timeout, self.retry, self.promise_lease) = scaled_to_latency(
            (self.round_timeout, self.retry, self.promise_lease),
            max_latency,
        );
        self
    }

    /// Check the quorum-intersection requirement.
    pub fn validate(&self) {
        assert!(
            self.read_quorum + self.write_quorum > self.total_votes(),
            "r + w must exceed the total votes"
        );
        assert!(
            self.write_quorum * 2 > self.total_votes(),
            "w must exceed half the votes so write quorums intersect"
        );
    }
}

/// Weighted-voting wire messages.
#[derive(Debug, Clone, PartialEq)]
pub enum WvMsg {
    /// Client traffic.
    Client(ClientRequest),
    /// Request a write vote for a round.
    WReq {
        /// The round.
        ballot: Ballot,
    },
    /// Grant a write vote.
    WGrant {
        /// The round.
        ballot: Ballot,
        /// Votes carried by the granting replica.
        votes: u32,
        /// The replica's current version for the round's key.
        version: u64,
    },
    /// Refuse a write vote.
    WReject {
        /// The round.
        ballot: Ballot,
        /// Votes that are hereby unavailable to the round.
        votes: u32,
    },
    /// Apply the write at the granting quorum.
    WApply {
        /// The round.
        ballot: Ballot,
        /// Key.
        key: u64,
        /// Value.
        value: u64,
        /// New version (max over quorum + 1).
        version: u64,
    },
    /// Release a round's promises: after an abort, and after a win at
    /// the voters outside the granting quorum.
    WRelease {
        /// The round.
        ballot: Ballot,
    },
    /// Quorum-read request.
    RReq {
        /// Read round id (unique per coordinator).
        rid: u64,
        /// Key to read.
        key: u64,
    },
    /// Quorum-read response.
    RResp {
        /// Read round id.
        rid: u64,
        /// Responder's votes.
        votes: u32,
        /// Responder's `(value, version)` for the key, if present.
        held: Option<(u64, u64)>,
    },
}

marp_wire::wire_enum!(WvMsg {
    0 => Client(request),
    1 => WReq { ballot },
    2 => WGrant { ballot, votes, version },
    3 => WReject { ballot, votes },
    4 => WApply { ballot, key, value, version },
    5 => WRelease { ballot },
    6 => RReq { rid, key },
    7 => RResp { rid, votes, held },
});

/// Encode a [`ClientRequest`] into the weighted-voting message space.
pub fn wrap_client_request(request: ClientRequest) -> Bytes {
    marp_wire::to_bytes(&WvMsg::Client(request))
}

struct ReadRound {
    request: u64,
    client: NodeId,
    key: u64,
    /// The read round: a read quorum of votes wins, each reply carrying
    /// the responder's `(value, version)` for the key, if present.
    call: QuorumCall<Option<(u64, u64)>>,
}

/// One weighted-voting replica server: the shared vote round decided by
/// a write quorum of vote weight, over per-key versions that only the
/// granting quorum applies; reads assemble a read quorum.
pub struct WvNode {
    cfg: WvConfig,
    me: NodeId,
    /// Per-key `(value, version)` — replicas may legitimately hold
    /// stale versions; quorum intersection masks them.
    pub store: BTreeMap<u64, (u64, u64)>,
    coord: Coordinator,
    reads: HashMap<u64, ReadRound>,
    read_seq: u64,
}

impl WvNode {
    /// Build the node for server `me`.
    pub fn new(me: NodeId, cfg: WvConfig) -> Self {
        cfg.validate();
        let spec = RoundSpec {
            n_servers: cfg.n_servers(),
            rule: SuccessRule::Weighted {
                total_votes: cfg.total_votes(),
                threshold: cfg.write_quorum,
            },
            round_timeout: cfg.round_timeout,
            retry: cfg.retry,
            vote_request: |ballot| marp_wire::to_bytes(&WvMsg::WReq { ballot }),
            release: |ballot| marp_wire::to_bytes(&WvMsg::WRelease { ballot }),
        };
        WvNode {
            me,
            store: BTreeMap::new(),
            coord: Coordinator::new(me, spec),
            reads: HashMap::new(),
            read_seq: 0,
            cfg,
        }
    }

    fn my_votes(&self) -> u32 {
        self.cfg.votes[usize::from(self.me)]
    }

    /// Count one write vote; the vote that wins the round applies the
    /// write.
    fn on_write_vote(
        &mut self,
        from: NodeId,
        ballot: Ballot,
        votes: u32,
        granted: bool,
        version: u64,
        ctx: &mut dyn Context,
    ) {
        let Some(round) = self
            .coord
            .on_vote(from, ballot, votes, granted, version, ctx)
        else {
            return;
        };
        let version = round.call.max_payload().unwrap_or(0) + 1;
        let apply = WvMsg::WApply {
            ballot,
            key: round.request.key,
            value: round.request.value,
            version,
        };
        let bytes = marp_wire::to_bytes(&apply);
        // Gifford: the write lands on the granting quorum only.
        for server in round.call.positive_nodes() {
            ctx.send(server, bytes.clone());
        }
        // Every other voter is released: one whose grant is still in
        // flight would otherwise refuse every rival until its promise
        // lapsed.
        let release = marp_wire::to_bytes(&WvMsg::WRelease { ballot });
        for server in 0..self.cfg.n_servers() as NodeId {
            if !round.call.positive_nodes().any(|voter| voter == server) {
                ctx.send(server, release.clone());
            }
        }
        ctx.trace(ballot.span().end());
        ctx.trace(SpanKey::request(round.request.id, self.me).end());
        ctx.trace(TraceEvent::UpdateCompleted {
            request: round.request.id,
            home: self.me,
            arrived: round.request.arrived,
            dispatched: round.call.started(),
            locked: ctx.now(),
            visits: 0,
        });
        let reply = ClientReply::WriteDone {
            id: round.request.id,
            version,
        };
        ctx.send(round.request.client, marp_wire::to_bytes(&reply));
        self.coord.next_round(ctx);
    }

    fn handle_msg(&mut self, from: NodeId, msg: WvMsg, ctx: &mut dyn Context) {
        match msg {
            WvMsg::Client(request) => {
                ctx.trace(TraceEvent::RequestArrived {
                    node: self.me,
                    request: request.id,
                    write: request.op.is_write(),
                });
                match request.op {
                    // Weighted voting already reads through a quorum, so
                    // plain and consistent reads coincide.
                    Operation::Read { key } | Operation::ReadFresh { key } => {
                        self.read_seq += 1;
                        let rid = (u64::from(self.me) << 40) | self.read_seq;
                        let n = self.cfg.n_servers() as NodeId;
                        self.reads.insert(
                            rid,
                            ReadRound {
                                request: request.id,
                                client: from,
                                key,
                                call: QuorumCall::new(
                                    SuccessRule::Weighted {
                                        total_votes: self.cfg.total_votes(),
                                        threshold: self.cfg.read_quorum,
                                    },
                                    0..n,
                                    ctx.now(),
                                ),
                            },
                        );
                        let ask = marp_wire::to_bytes(&WvMsg::RReq { rid, key });
                        self.coord.broadcast(ask, ctx);
                    }
                    Operation::Write { key, value } => {
                        ctx.trace(SpanKey::request(request.id, self.me).start(None));
                        let write = WriteRequest {
                            id: request.id,
                            client: from,
                            key,
                            value,
                            arrived: ctx.now(),
                        };
                        self.coord.submit(write, ctx);
                    }
                }
            }
            WvMsg::WReq { ballot } => {
                let lease = self.cfg.promise_lease;
                let reply = if self.coord.vote.grant(ballot, ctx.now(), lease) {
                    // The WReq names only the ballot, not the key, so a
                    // grant reports the highest version this replica
                    // holds for *any* key — an upper bound on the
                    // per-key version, which keeps the coordinator's
                    // `max + 1` strictly increasing.
                    WvMsg::WGrant {
                        ballot,
                        votes: self.my_votes(),
                        version: self.store.values().map(|&(_, v)| v).max().unwrap_or(0),
                    }
                } else {
                    WvMsg::WReject {
                        ballot,
                        votes: self.my_votes(),
                    }
                };
                ctx.send(ballot.coordinator, marp_wire::to_bytes(&reply));
            }
            WvMsg::WGrant {
                ballot,
                votes,
                version,
            } => self.on_write_vote(from, ballot, votes, true, version, ctx),
            WvMsg::WReject { ballot, votes } => {
                self.on_write_vote(from, ballot, votes, false, 0, ctx);
            }
            WvMsg::WApply {
                ballot,
                key,
                value,
                version,
            } => {
                let held = self.store.get(&key).map_or(0, |&(_, v)| v);
                if version > held {
                    self.store.insert(key, (value, version));
                    ctx.trace(TraceEvent::CommitApplied {
                        node: self.me,
                        version,
                        agent: ballot.surrogate(),
                        key,
                        // WApply does not carry the client request id; the
                        // ballot identity stands in (relaxed audits only).
                        request: ballot.surrogate(),
                    });
                }
                self.coord.vote.release(ballot);
            }
            WvMsg::WRelease { ballot } => self.coord.vote.release(ballot),
            WvMsg::RReq { rid, key } => {
                let reply = WvMsg::RResp {
                    rid,
                    votes: self.my_votes(),
                    held: self.store.get(&key).copied(),
                };
                ctx.send(from, marp_wire::to_bytes(&reply));
            }
            WvMsg::RResp { rid, votes, held } => {
                let won = self.reads.get_mut(&rid).is_some_and(|read| {
                    read.call.offer(from, votes, true, held) == Some(Verdict::Won)
                });
                if !won {
                    return;
                }
                let read = self.reads.remove(&rid).expect("checked");
                // The first-seen observation of the highest version wins:
                // the strictly-greater comparison keeps arrival order as
                // the tiebreak, as before the kernel extraction.
                let mut best: Option<(u64, u64)> = None;
                for &(_, held) in read.call.positives() {
                    if let Some((value, version)) = held {
                        if best.is_none_or(|(_, bv)| version > bv) {
                            best = Some((value, version));
                        }
                    }
                }
                let version = best.map_or(0, |(_, ver)| ver);
                ctx.trace(TraceEvent::ReadServed {
                    node: self.me,
                    request: read.request,
                    version,
                });
                let reply = ClientReply::ReadOk {
                    id: read.request,
                    key: read.key,
                    value: best.map(|(v, _)| v),
                    version,
                };
                ctx.send(read.client, marp_wire::to_bytes(&reply));
            }
        }
    }
}

impl Process for WvNode {
    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        if let Ok(msg) = marp_wire::from_bytes::<WvMsg>(&msg) {
            self.handle_msg(from, msg, ctx);
        }
    }

    fn on_timer(&mut self, _timer: TimerId, tag: u64, ctx: &mut dyn Context) {
        // Never true: this host arms no timer of its own.
        self.coord.on_timer(tag, ctx);
    }

    fn on_recover(&mut self, _ctx: &mut dyn Context) {
        self.coord.on_recover();
        self.reads.clear();
        // The store survives (stable storage); stale versions are
        // masked by quorum intersection.
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_net::{LinkModel, SimTransport, Topology};
    use marp_replica::{ClientProcess, ScriptedSource};
    use marp_sim::RecordingCtx;
    use marp_sim::{SimRng, SimTime, Simulation, TraceLevel};

    fn build(cfg: WvConfig, seed: u64) -> Simulation {
        let n = cfg.n_servers();
        let topo = Topology::uniform_lan(n * 2 + 2, Duration::from_millis(2));
        let transport = SimTransport::new(topo, LinkModel::ideal(), SimRng::from_seed(seed));
        let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);
        for me in 0..n as NodeId {
            sim.add_process(Box::new(WvNode::new(me, cfg.clone())));
        }
        sim
    }

    #[test]
    fn uniform_config_satisfies_intersection() {
        let cfg = WvConfig::uniform(5);
        assert_eq!(cfg.write_quorum, 3);
        assert_eq!(cfg.read_quorum, 3);
        cfg.validate();
    }

    #[test]
    fn write_then_quorum_read_sees_the_value() {
        let mut sim = build(WvConfig::uniform(5), 1);
        let client = sim.add_process(Box::new(ClientProcess::new(
            0,
            Box::new(ScriptedSource::new([
                (
                    Duration::from_millis(1),
                    Operation::Write { key: 3, value: 33 },
                ),
                (Duration::from_millis(100), Operation::Read { key: 3 }),
            ])),
            wrap_client_request,
        )));
        sim.run_until(SimTime::from_secs(2));
        let proc = sim.process::<ClientProcess>(client).unwrap();
        assert_eq!(proc.stats.write_latencies.len(), 1);
        assert_eq!(proc.stats.read_latencies.len(), 1);
        assert_eq!(proc.stats.read_versions, vec![1]);
        // The write landed on at least a write quorum of replicas.
        let holders = (0..5u16)
            .filter(|&s| sim.process::<WvNode>(s).unwrap().store.contains_key(&3))
            .count();
        assert!(holders >= 3, "holders = {holders}");
    }

    #[test]
    fn quorum_read_is_slower_than_marp_style_local_read() {
        let mut sim = build(WvConfig::uniform(3), 2);
        let client = sim.add_process(Box::new(ClientProcess::new(
            0,
            Box::new(ScriptedSource::new([(
                Duration::from_millis(1),
                Operation::Read { key: 1 },
            )])),
            wrap_client_request,
        )));
        sim.run_until(SimTime::from_secs(1));
        let proc = sim.process::<ClientProcess>(client).unwrap();
        // Client→server 2 ms, then a quorum round trip (4 ms), then the
        // reply: strictly more than a local read's 4 ms.
        assert!(proc.stats.mean_read_ms().unwrap() > 6.0);
    }

    #[test]
    fn concurrent_writers_serialize_on_versions() {
        let mut sim = build(WvConfig::uniform(5), 3);
        for server in 0..3u16 {
            let script: Vec<(Duration, Operation)> = (0..3)
                .map(|i| {
                    (
                        Duration::from_millis(4),
                        Operation::Write {
                            key: 7,
                            value: u64::from(server) * 10 + i,
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
        assert_eq!(
            sim.trace()
                .count(|e| matches!(e, TraceEvent::UpdateCompleted { .. })),
            9
        );
        // Any read quorum must agree on the winning version: check that
        // a majority of replicas holds the maximum version.
        let versions: Vec<u64> = (0..5u16)
            .map(|s| {
                sim.process::<WvNode>(s)
                    .unwrap()
                    .store
                    .get(&7)
                    .map_or(0, |&(_, v)| v)
            })
            .collect();
        let max = *versions.iter().max().unwrap();
        let holders = versions.iter().filter(|&&v| v == max).count();
        assert!(holders >= 3, "versions = {versions:?}");
    }

    #[test]
    fn heterogeneous_votes_let_a_heavy_pair_form_a_write_quorum() {
        // Gifford's point: votes weight reliability. Node 0 holds 3
        // votes; {0, any} reaches w = 4 out of 7 total without
        // consulting the rest.
        let cfg = WvConfig {
            votes: vec![3, 1, 1, 1, 1],
            read_quorum: 4,
            write_quorum: 4,
            promise_lease: Duration::from_secs(2),
            round_timeout: Duration::from_millis(100),
            retry: RetryPolicy::COORDINATOR,
        };
        cfg.validate();
        assert_eq!(cfg.total_votes(), 7);
        let mut sim = build(cfg, 9);
        let client = sim.add_process(Box::new(ClientProcess::new(
            0,
            Box::new(ScriptedSource::new([
                (
                    Duration::from_millis(1),
                    Operation::Write { key: 6, value: 66 },
                ),
                (Duration::from_millis(100), Operation::Read { key: 6 }),
            ])),
            wrap_client_request,
        )));
        sim.run_until(SimTime::from_secs(5));
        let proc = sim.process::<ClientProcess>(client).unwrap();
        assert_eq!(proc.stats.write_latencies.len(), 1);
        // The quorum read intersects the write quorum through node 0's
        // weight and must observe the write.
        assert_eq!(proc.stats.read_versions, vec![1]);
        // The write quorum can be tiny: at most a handful of replicas
        // hold the value, yet reads still see it.
        let holders = (0..5u16)
            .filter(|&s| sim.process::<WvNode>(s).unwrap().store.contains_key(&6))
            .count();
        assert!(holders >= 2, "holders = {holders}");
    }

    #[test]
    fn a_voter_whose_grant_arrives_after_the_win_is_released() {
        // Coordinator 0 of three one-vote servers (w = 2) wins on the
        // grants of 0 and 1, while 2's grant is still in flight.
        let cfg = WvConfig::uniform(3);
        let mut coord = WvNode::new(0, cfg.clone());
        let mut ctx = RecordingCtx::new(0, SimTime::ZERO);
        let write = ClientRequest {
            id: 1,
            op: Operation::Write { key: 1, value: 5 },
        };
        coord.handle_msg(7, WvMsg::Client(write), &mut ctx);
        let ballot = Ballot::first(0);
        for from in [0, 1] {
            let grant = WvMsg::WGrant {
                ballot,
                votes: 1,
                version: 0,
            };
            coord.handle_msg(from, grant, &mut ctx);
        }
        let to_late_voter: Vec<WvMsg> = ctx
            .sent
            .iter()
            .filter(|(to, _)| *to == 2)
            .map(|(_, msg)| marp_wire::from_bytes(msg).expect("a WvMsg"))
            .collect();
        assert_eq!(
            to_late_voter,
            [WvMsg::WReq { ballot }, WvMsg::WRelease { ballot }]
        );
        // Voter 2 grants, hears the release, and is free for a rival
        // long before its promise would have lapsed.
        let mut voter = WvNode::new(2, cfg);
        let mut ctx = RecordingCtx::new(2, SimTime::ZERO);
        for msg in to_late_voter {
            voter.handle_msg(0, msg, &mut ctx);
        }
        ctx.sent.clear();
        let rival = Ballot::first(1);
        voter.handle_msg(1, WvMsg::WReq { ballot: rival }, &mut ctx);
        let granted = WvMsg::WGrant {
            ballot: rival,
            votes: 1,
            version: 0,
        };
        assert_eq!(ctx.sent_as::<WvMsg>(), [(1, granted)]);
    }

    #[test]
    #[should_panic(expected = "r + w must exceed")]
    fn quorum_intersection_is_enforced() {
        WvConfig {
            votes: vec![1; 5],
            read_quorum: 2,
            write_quorum: 3,
            promise_lease: Duration::from_secs(2),
            round_timeout: Duration::from_millis(100),
            retry: RetryPolicy::COORDINATOR,
        }
        .validate();
    }

    #[test]
    fn msg_roundtrip() {
        let msgs = vec![
            WvMsg::WReq {
                ballot: Ballot::first(1),
            },
            WvMsg::WGrant {
                ballot: Ballot::first(1),
                votes: 2,
                version: 3,
            },
            WvMsg::WReject {
                ballot: Ballot::first(1),
                votes: 2,
            },
            WvMsg::WApply {
                ballot: Ballot::first(1),
                key: 1,
                value: 2,
                version: 3,
            },
            WvMsg::RReq { rid: 9, key: 1 },
            WvMsg::RResp {
                rid: 9,
                votes: 1,
                held: Some((2, 3)),
            },
        ];
        for msg in msgs {
            let bytes = marp_wire::to_bytes(&msg);
            assert_eq!(marp_wire::from_bytes::<WvMsg>(&bytes).unwrap(), msg);
        }
    }
}
