//! Pieces shared by the message-passing baseline protocols.

use bytes::Bytes;
use marp_quorum::{QuorumCall, RetryPolicy, SuccessRule, TimerMux, Verdict};
use marp_replica::{Acceptor, WriteRequest};
use marp_sim::{Context, NodeId, SpanKey, SpanKind};
use std::collections::VecDeque;
use std::time::Duration;

/// A totally ordered round identifier for coordinator-based protocols:
/// `(seq, coordinator)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ballot {
    /// Per-coordinator round counter.
    pub seq: u64,
    /// The coordinating server.
    pub coordinator: NodeId,
}

impl Ballot {
    /// First ballot of a coordinator.
    pub fn first(coordinator: NodeId) -> Self {
        Ballot {
            seq: 1,
            coordinator,
        }
    }

    /// The coordinator's next ballot.
    pub fn next(self) -> Self {
        Ballot {
            seq: self.seq + 1,
            coordinator: self.coordinator,
        }
    }

    /// The round's stand-in for an agent key (`coordinator << 32 | seq`)
    /// in spans, commit records and `CommitApplied` events.
    pub(crate) fn surrogate(self) -> u64 {
        u64::from(self.coordinator) << 32 | self.seq
    }

    /// The span the round runs under.
    pub(crate) fn span(self) -> SpanKey {
        SpanKey::new(SpanKind::UpdateQuorum, self.surrogate(), self.seq)
    }
}

marp_wire::wire_struct!(Ballot { seq, coordinator });

/// `(round_timeout, retry, promise_lease)` scaled to a deployment whose
/// worst one-way latency is `max_latency`: a vote round cannot finish
/// inside the physical round trip, and a shorter timeout turns every
/// round into an abort.
pub(crate) fn scaled_to_latency(
    (round_timeout, retry, promise_lease): (Duration, RetryPolicy, Duration),
    max_latency: Duration,
) -> (Duration, RetryPolicy, Duration) {
    let lat = max_latency.max(Duration::from_millis(1));
    let round_timeout = round_timeout.max(lat * 5);
    let promise_lease = promise_lease.max(round_timeout * 10);
    (round_timeout, retry.with_min_base(lat), promise_lease)
}

marp_quorum::timer_kinds! {
    /// Timer kinds of a vote-coordinating server: the open round's
    /// timeout (epoch = ballot sequence), the backoff before the next
    /// attempt, and the host's own periodic work, which the coordinator
    /// only keeps apart from its two.
    pub(crate) enum VoteTimer { Round = 1, Retry = 2, Maintenance = 3 }
}

/// What tells one vote protocol's write round from another's.
pub(crate) struct RoundSpec {
    /// Servers `0..n_servers` vote.
    pub n_servers: usize,
    /// When the votes have decided a round.
    pub rule: SuccessRule,
    /// A round undecided for this long is aborted.
    pub round_timeout: Duration,
    /// Backoff after a failed round, before this node's stagger.
    pub retry: RetryPolicy,
    /// The protocol's own messages for a ballot, encoded: the vote
    /// request, and the release of the promises an aborted round holds.
    pub vote_request: fn(Ballot) -> Bytes,
    pub release: fn(Ballot) -> Bytes,
}

/// One write in its vote round. Each grant carries the voter's version;
/// the write goes above the maximum.
pub(crate) struct Round {
    pub ballot: Ballot,
    pub request: WriteRequest,
    pub call: QuorumCall<u64>,
}

/// The write round of a voting protocol, coordinator and voter side:
/// queue the write, open a ballot, ask every server for its vote; a won
/// round is handed to the host to apply, a lost or timed-out one
/// releases its promises and is retried after a backoff. One write is
/// in flight per coordinator.
pub(crate) struct Coordinator {
    me: NodeId,
    spec: RoundSpec,
    /// The vote this server has out, as a voter: one ballot at a time,
    /// for the protocol's `promise_lease`.
    pub vote: Acceptor<Ballot>,
    queue: VecDeque<WriteRequest>,
    round: Option<Round>,
    ballot_seq: u64,
    /// Failed rounds since the last win.
    attempts: u32,
    /// The server's live timers; the host arms `Maintenance` here.
    pub timers: TimerMux<VoteTimer>,
}

impl Coordinator {
    pub(crate) fn new(me: NodeId, mut spec: RoundSpec) -> Self {
        let stagger = Duration::from_micros(500);
        spec.retry = spec.retry.staggered(stagger, u64::from(me), 0);
        Coordinator {
            me,
            spec,
            vote: Acceptor::default(),
            queue: VecDeque::new(),
            round: None,
            ballot_seq: 0,
            attempts: 0,
            timers: TimerMux::new(),
        }
    }

    /// Send `msg` to every server (this one included).
    pub(crate) fn broadcast(&self, msg: Bytes, ctx: &mut dyn Context) {
        for server in 0..self.spec.n_servers as NodeId {
            ctx.send(server, msg.clone());
        }
    }

    /// Queue a client's write and start its round if none is open.
    pub(crate) fn submit(&mut self, request: WriteRequest, ctx: &mut dyn Context) {
        self.queue.push_back(request);
        self.try_start_round(ctx);
    }

    fn try_start_round(&mut self, ctx: &mut dyn Context) {
        if self.round.is_some() || self.timers.is_kind_armed(VoteTimer::Retry) {
            return;
        }
        let Some(request) = self.queue.pop_front() else {
            return;
        };
        self.ballot_seq += 1;
        let ballot = Ballot {
            seq: self.ballot_seq,
            coordinator: self.me,
        };
        // The round runs under an UpdateQuorum span keyed by the same
        // surrogate agent key the commit records carry; the request's
        // span links to it (a retried write links to each new round).
        ctx.trace(ballot.span().start(None));
        ctx.trace(SpanKey::request(request.id, self.me).link_to(ballot.span()));
        let voters = 0..self.spec.n_servers as NodeId;
        self.round = Some(Round {
            ballot,
            request,
            call: QuorumCall::new(self.spec.rule, voters, ctx.now()),
        });
        self.broadcast((self.spec.vote_request)(ballot), ctx);
        let tag = self.timers.arm(VoteTimer::Round, ballot.seq);
        ctx.set_timer(self.spec.round_timeout, tag);
    }

    fn abort_round(&mut self, ctx: &mut dyn Context) {
        let Some(round) = self.round.take() else {
            return;
        };
        self.timers.disarm(VoteTimer::Round, round.ballot.seq);
        ctx.trace(round.ballot.span().end());
        self.broadcast((self.spec.release)(round.ballot), ctx);
        // Retry the same write later.
        self.queue.push_front(round.request);
        self.attempts += 1;
        let tag = self.timers.arm(VoteTimer::Retry, 0);
        ctx.set_timer(self.spec.retry.next_delay(self.attempts), tag);
    }

    /// Count `from`'s vote of weight `votes` on `ballot` (the call
    /// dedupes repeats; only a deciding vote acts). A lost round is
    /// aborted here; a won one is returned, its `UpdateQuorum` span
    /// still open, for the host to apply before it calls
    /// [`next_round`](Self::next_round).
    pub(crate) fn on_vote(
        &mut self,
        from: NodeId,
        ballot: Ballot,
        votes: u32,
        granted: bool,
        version: u64,
        ctx: &mut dyn Context,
    ) -> Option<Round> {
        let round = self.round.as_mut().filter(|r| r.ballot == ballot)?;
        match round.call.offer(from, votes, granted, version)? {
            Verdict::Won => {
                self.timers.disarm(VoteTimer::Round, ballot.seq);
                return self.round.take();
            }
            Verdict::Lost => self.abort_round(ctx),
        }
        None
    }

    /// The won round is applied: forget its failures and open the next
    /// queued write's round.
    pub(crate) fn next_round(&mut self, ctx: &mut dyn Context) {
        self.attempts = 0;
        self.try_start_round(ctx);
    }

    /// Offer a fired tag. The round's own timers are handled here;
    /// `true` means the host's `Maintenance` timer fired.
    pub(crate) fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context) -> bool {
        match self.timers.fired(tag) {
            Some((VoteTimer::Round, _)) => self.abort_round(ctx),
            Some((VoteTimer::Retry, _)) => self.try_start_round(ctx),
            Some((VoteTimer::Maintenance, _)) => return true,
            // Stale: disarmed, or armed before a crash.
            None => {}
        }
        false
    }

    /// Everything here is volatile. Timers armed before the crash never
    /// fire again (the engine drops them), so the mux restarts from
    /// scratch; queued writes are re-driven by the clients' retries.
    pub(crate) fn on_recover(&mut self) {
        self.vote.clear();
        self.queue.clear();
        self.round = None;
        self.attempts = 0;
        self.timers.clear();
    }
}

/// A last-writer-wins timestamp: `(counter, node)`, totally ordered.
/// Used by the Available Copy baseline, which has no global version
/// sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct LwwTs {
    /// Lamport-style counter.
    pub counter: u64,
    /// Tie-breaking writer node.
    pub node: NodeId,
}

marp_wire::wire_struct!(LwwTs { counter, node });

/// A per-key last-writer-wins store with a Lamport clock.
#[derive(Debug, Clone, Default)]
pub struct LwwStore {
    clock: u64,
    data: std::collections::BTreeMap<u64, (u64, LwwTs)>,
}

impl LwwStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mint a fresh local timestamp (advances the clock).
    pub fn stamp(&mut self, me: NodeId) -> LwwTs {
        self.clock += 1;
        LwwTs {
            counter: self.clock,
            node: me,
        }
    }

    /// Apply a write if its timestamp is newer than what we hold;
    /// always advances the local clock past the observed timestamp.
    /// Returns true if the value changed.
    pub fn apply(&mut self, key: u64, value: u64, ts: LwwTs) -> bool {
        self.clock = self.clock.max(ts.counter);
        match self.data.get(&key) {
            Some(&(_, held)) if held >= ts => false,
            _ => {
                self.data.insert(key, (value, ts));
                true
            }
        }
    }

    /// Current value and timestamp of a key.
    pub fn get(&self, key: u64) -> Option<(u64, LwwTs)> {
        self.data.get(&key).copied()
    }

    /// Full contents (for state transfer).
    pub fn dump(&self) -> Vec<(u64, u64, LwwTs)> {
        self.data.iter().map(|(&k, &(v, ts))| (k, v, ts)).collect()
    }

    /// Merge a dump from a peer (recovery).
    pub fn absorb(&mut self, dump: Vec<(u64, u64, LwwTs)>) {
        for (key, value, ts) in dump {
            self.apply(key, value, ts);
        }
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no key is present.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::{RecordingCtx, SimTime};

    #[test]
    fn ballots_order_by_seq_then_node() {
        let a = Ballot {
            seq: 1,
            coordinator: 2,
        };
        let b = Ballot {
            seq: 2,
            coordinator: 1,
        };
        assert!(a < b);
        assert!(
            Ballot {
                seq: 1,
                coordinator: 1
            } < a
        );
        assert_eq!(a.next().seq, 2);
    }

    /// Server 1's context, recording what the coordinator asks of it.
    fn recorder() -> RecordingCtx {
        RecordingCtx::new(1, SimTime::ZERO)
    }

    const ROUND_TIMEOUT: Duration = Duration::from_millis(100);
    const BACKOFF: Duration = Duration::from_millis(8);

    /// Coordinator 1 of three unit-weight servers. The "messages" are
    /// one marker byte and the ballot, so the tests can tell them apart.
    fn coordinator() -> Coordinator {
        fn marked(mark: u8, ballot: Ballot) -> Bytes {
            let mut msg = vec![mark];
            msg.extend_from_slice(&marp_wire::to_bytes(&ballot));
            Bytes::from(msg)
        }
        Coordinator::new(
            1,
            RoundSpec {
                n_servers: 3,
                rule: SuccessRule::Majority { n: 3 },
                round_timeout: ROUND_TIMEOUT,
                retry: RetryPolicy::linear(BACKOFF, 16),
                vote_request: |ballot| marked(b'?', ballot),
                release: |ballot| marked(b'!', ballot),
            },
        )
    }

    fn write(id: u64) -> WriteRequest {
        WriteRequest {
            id,
            client: 9,
            key: 1,
            value: id,
            arrived: SimTime::ZERO,
        }
    }

    /// Node 1's stagger: 500 µs per node id.
    const STAGGER: Duration = Duration::from_micros(500);

    #[test]
    fn a_round_timer_that_fires_after_the_win_is_stale() {
        let (mut coord, mut ctx) = (coordinator(), recorder());
        coord.submit(write(1), &mut ctx);
        coord.submit(write(2), &mut ctx);
        let first = Ballot::first(1);
        let round_tag = TimerMux::tag(VoteTimer::Round, 1);
        assert_eq!(ctx.armed, [(ROUND_TIMEOUT, round_tag)]);
        assert_eq!(ctx.sent.len(), 3, "one vote request per server");
        assert!(ctx.sent.iter().all(|(_, msg)| msg[0] == b'?'));

        assert!(coord.on_vote(0, first, 1, true, 4, &mut ctx).is_none());
        let won = coord.on_vote(2, first, 1, true, 6, &mut ctx).expect("won");
        assert_eq!((won.ballot, won.request.id), (first, 1));
        assert_eq!(won.call.max_payload(), Some(6));
        // The host applies, then the next write's round opens.
        coord.next_round(&mut ctx);
        let second = coord.round.as_ref().expect("second round").ballot;
        assert_eq!(second, first.next());

        // The first round's timer was disarmed by the win: its fire
        // must not abort the round that is open now.
        assert!(!coord.on_timer(round_tag, &mut ctx));
        assert_eq!(coord.round.as_ref().map(|r| r.ballot), Some(second));
        assert!(ctx.sent.iter().all(|(_, msg)| msg[0] == b'?'));
        // Nor does a late vote on the finished ballot count.
        assert!(coord.on_vote(1, first, 1, true, 9, &mut ctx).is_none());
        // The open round's own timer does abort it.
        assert!(!coord.on_timer(TimerMux::tag(VoteTimer::Round, 2), &mut ctx));
        assert!(coord.round.is_none());
    }

    #[test]
    fn a_lost_round_releases_and_backs_off_one_step_further_each_time() {
        let (mut coord, mut ctx) = (coordinator(), recorder());
        coord.submit(write(1), &mut ctx);
        for attempt in 1..=2u32 {
            let ballot = coord.round.as_ref().expect("open round").ballot;
            assert_eq!(ballot.seq, u64::from(attempt));
            ctx.sent.clear();
            ctx.armed.clear();
            // Two of three refuse: a majority is out of reach.
            assert!(coord.on_vote(0, ballot, 1, false, 0, &mut ctx).is_none());
            assert!(ctx.sent.is_empty());
            assert!(coord.on_vote(2, ballot, 1, false, 0, &mut ctx).is_none());
            let release = (coord.spec.release)(ballot);
            assert_eq!(
                ctx.sent,
                [(0, release.clone()), (1, release.clone()), (2, release)],
                "the release goes to every server"
            );
            let retry_tag = TimerMux::tag(VoteTimer::Retry, 0);
            assert_eq!(ctx.armed, [(BACKOFF * attempt + STAGGER, retry_tag)]);
            // The write waits at the head of the queue; a new one does
            // not jump the backoff.
            assert!(coord.round.is_none());
            coord.submit(write(10 + u64::from(attempt)), &mut ctx);
            assert!(coord.round.is_none());
            assert_eq!(coord.queue.front().map(|w| w.id), Some(1));
            // The lost round's timeout is stale; the retry reopens.
            assert!(!coord.on_timer(TimerMux::tag(VoteTimer::Round, ballot.seq), &mut ctx));
            assert!(coord.round.is_none());
            assert!(!coord.on_timer(retry_tag, &mut ctx));
            assert_eq!(coord.round.as_ref().map(|r| r.request.id), Some(1));
        }
    }

    #[test]
    fn recovery_forgets_round_queue_and_promise() {
        let (mut coord, mut ctx) = (coordinator(), recorder());
        coord.submit(write(1), &mut ctx);
        coord.submit(write(2), &mut ctx);
        let theirs = Ballot::first(0);
        let lease = Duration::from_secs(2);
        assert!(coord.vote.grant(theirs, ctx.now, lease));
        assert!(!coord.vote.grant(Ballot::first(2), ctx.now, lease));
        let maintenance = coord.timers.arm(VoteTimer::Maintenance, 0);
        assert_eq!(coord.timers.live(), 2);

        coord.on_recover();

        assert!(coord.round.is_none() && coord.queue.is_empty());
        assert_eq!(coord.vote.holder(), None);
        assert_eq!(coord.timers.live(), 0);
        // Pre-crash timers are nobody's, the host's included.
        ctx.sent.clear();
        assert!(!coord.on_timer(TimerMux::tag(VoteTimer::Round, 1), &mut ctx));
        assert!(!coord.on_timer(maintenance, &mut ctx));
        assert!(ctx.sent.is_empty());
        // Ballots keep counting up, so a pre-crash vote cannot be
        // mistaken for one on a post-recovery round.
        coord.submit(write(3), &mut ctx);
        assert_eq!(coord.round.as_ref().map(|r| r.ballot.seq), Some(2));
        // A live maintenance timer is the host's to handle.
        let maintenance = coord.timers.arm(VoteTimer::Maintenance, 0);
        assert!(coord.on_timer(maintenance, &mut ctx));
    }

    #[test]
    fn lww_applies_newest_only() {
        let mut store = LwwStore::new();
        let t1 = LwwTs {
            counter: 1,
            node: 0,
        };
        let t2 = LwwTs {
            counter: 2,
            node: 0,
        };
        assert!(store.apply(5, 50, t2));
        assert!(!store.apply(5, 49, t1));
        assert_eq!(store.get(5), Some((50, t2)));
    }

    #[test]
    fn lww_ties_break_by_node() {
        let mut store = LwwStore::new();
        let ta = LwwTs {
            counter: 1,
            node: 0,
        };
        let tb = LwwTs {
            counter: 1,
            node: 1,
        };
        store.apply(1, 10, ta);
        assert!(store.apply(1, 11, tb)); // higher node wins the tie
        assert!(!store.apply(1, 10, ta));
        assert_eq!(store.get(1).unwrap().0, 11);
    }

    #[test]
    fn lww_clock_advances_past_observed() {
        let mut store = LwwStore::new();
        store.apply(
            1,
            10,
            LwwTs {
                counter: 100,
                node: 3,
            },
        );
        let stamp = store.stamp(0);
        assert!(stamp.counter > 100);
    }

    #[test]
    fn lww_dump_absorb_converges() {
        let mut a = LwwStore::new();
        let mut b = LwwStore::new();
        a.apply(
            1,
            10,
            LwwTs {
                counter: 1,
                node: 0,
            },
        );
        b.apply(
            2,
            20,
            LwwTs {
                counter: 2,
                node: 1,
            },
        );
        b.apply(
            1,
            11,
            LwwTs {
                counter: 3,
                node: 1,
            },
        );
        a.absorb(b.dump());
        b.absorb(a.dump());
        assert_eq!(a.dump(), b.dump());
        assert_eq!(a.get(1).unwrap().0, 11);
        assert_eq!(a.len(), 2);
    }
}
