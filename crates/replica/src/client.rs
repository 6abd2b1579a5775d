//! Client processes.
//!
//! A client node issues operations to its attached replica server and
//! records per-operation latency. The stream of operations comes from a
//! [`RequestSource`] — `marp-workload` provides the paper's exponential
//! generators; [`ScriptedSource`] serves tests and examples.

use crate::msg::{request_id, ClientReply, ClientRequest, Operation};
use bytes::Bytes;
use marp_sim::{impl_as_any, Context, NodeId, Process, SimTime, TimerId};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Supplies the client's operation stream: each item is the *gap* to
/// wait after the previous send, and the operation to perform. `None`
/// ends the stream.
pub trait RequestSource: Send {
    /// The next (inter-arrival gap, operation) pair.
    fn next_request(&mut self) -> Option<(Duration, Operation)>;
}

/// A fixed, pre-scripted operation stream.
#[derive(Debug, Clone, Default)]
pub struct ScriptedSource {
    script: VecDeque<(Duration, Operation)>,
}

impl ScriptedSource {
    /// Build from a list of (gap, operation) pairs.
    pub fn new(items: impl IntoIterator<Item = (Duration, Operation)>) -> Self {
        ScriptedSource {
            script: items.into_iter().collect(),
        }
    }
}

impl RequestSource for ScriptedSource {
    fn next_request(&mut self) -> Option<(Duration, Operation)> {
        self.script.pop_front()
    }
}

/// Encodes a [`ClientRequest`] into the attached server's message space
/// (each protocol node has its own enum).
pub type ClientWrapFn = fn(ClientRequest) -> Bytes;

/// Latency bookkeeping accumulated by a client.
#[derive(Debug, Default, Clone)]
pub struct ClientStats {
    /// Distinct requests issued (resends are counted in `retries`).
    pub issued: u64,
    /// Read replies received, with latency.
    pub read_latencies: Vec<Duration>,
    /// Write completions received, with latency.
    pub write_latencies: Vec<Duration>,
    /// Requests the server rejected.
    pub rejected: u64,
    /// Versions observed by reads, in completion order (for staleness
    /// analysis).
    pub read_versions: Vec<u64>,
    /// Idempotent resends of unanswered requests.
    pub retries: u64,
    /// Requests given up on after exhausting every retry — losses are
    /// loud, never silent.
    pub abandoned: u64,
    /// Request ids of every acknowledged write, in completion order.
    /// The chaos harness checks each against the committed set: an
    /// acknowledged write that never committed is a durability bug.
    pub acked_writes: Vec<u64>,
}

impl ClientStats {
    /// Completed operations of both kinds.
    pub fn completed(&self) -> usize {
        self.read_latencies.len() + self.write_latencies.len()
    }

    /// Mean write latency in milliseconds, if any completed.
    pub fn mean_write_ms(&self) -> Option<f64> {
        mean_ms(&self.write_latencies)
    }

    /// Mean read latency in milliseconds, if any completed.
    pub fn mean_read_ms(&self) -> Option<f64> {
        mean_ms(&self.read_latencies)
    }
}

fn mean_ms(latencies: &[Duration]) -> Option<f64> {
    if latencies.is_empty() {
        return None;
    }
    let total: f64 = latencies.iter().map(|d| d.as_secs_f64() * 1e3).sum();
    Some(total / latencies.len() as f64)
}

const TAG_ARRIVAL: u64 = 1;
/// Retry timer tags carry the request id in the low bits; request ids
/// never reach bit 63 (`client << 32 | seq`), so the bit is free.
const TAG_RETRY_BIT: u64 = 1 << 63;

/// Client-side retry: resend an unanswered request after `timeout`,
/// doubling the wait each attempt (capped at 8× the base), and abandon
/// the request — loudly, via `ClientStats::abandoned` — after
/// `max_attempts` total sends. Resends reuse the original request id,
/// so the server's intake dedup keeps them idempotent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Base resend timeout.
    pub timeout: Duration,
    /// Total sends (first try included) before giving up.
    pub max_attempts: u32,
}

impl RetryConfig {
    fn delay(&self, attempts: u32) -> Duration {
        let factor = 1u32 << attempts.saturating_sub(1).min(3);
        self.timeout * factor
    }
}

/// An issued request awaiting its reply.
struct Pending {
    op: Operation,
    first_sent: SimTime,
    attempts: u32,
}

/// A client node driving one replica server.
pub struct ClientProcess {
    server: NodeId,
    source: Box<dyn RequestSource>,
    wrap: ClientWrapFn,
    seq: u32,
    next_op: Option<Operation>,
    outstanding: HashMap<u64, Pending>,
    retry: Option<RetryConfig>,
    /// Accumulated latency statistics.
    pub stats: ClientStats,
}

impl ClientProcess {
    /// Create a client attached to `server`. Retry is off by default:
    /// an unanswered request stays outstanding forever.
    pub fn new(server: NodeId, source: Box<dyn RequestSource>, wrap: ClientWrapFn) -> Self {
        ClientProcess {
            server,
            source,
            wrap,
            seq: 0,
            next_op: None,
            outstanding: HashMap::new(),
            retry: None,
            stats: ClientStats::default(),
        }
    }

    /// Enable timeout-and-resend with capped exponential backoff.
    pub fn with_retry(mut self, timeout: Duration, max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "max_attempts must be at least 1");
        self.retry = Some(RetryConfig {
            timeout,
            max_attempts,
        });
        self
    }

    /// Operations issued but not yet answered.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    fn arm_next(&mut self, ctx: &mut dyn Context) {
        if let Some((gap, op)) = self.source.next_request() {
            self.next_op = Some(op);
            ctx.set_timer(gap, TAG_ARRIVAL);
        }
    }

    fn send_request(&mut self, id: u64, op: Operation, ctx: &mut dyn Context) {
        let msg = (self.wrap)(ClientRequest { id, op });
        ctx.send(self.server, msg);
        if let Some(retry) = self.retry {
            let attempts = self.outstanding.get(&id).map_or(1, |p| p.attempts);
            ctx.set_timer(retry.delay(attempts), TAG_RETRY_BIT | id);
        }
    }

    fn on_retry_timer(&mut self, id: u64, ctx: &mut dyn Context) {
        let Some(retry) = self.retry else { return };
        let Some(pending) = self.outstanding.get_mut(&id) else {
            return; // answered (or abandoned) before the timer fired
        };
        if pending.attempts >= retry.max_attempts {
            self.outstanding.remove(&id);
            self.stats.abandoned += 1;
            ctx.trace(marp_sim::TraceEvent::Custom {
                kind: "client-abandoned",
                a: id,
                b: u64::from(retry.max_attempts),
            });
            return;
        }
        pending.attempts += 1;
        let op = pending.op;
        self.stats.retries += 1;
        self.send_request(id, op, ctx);
    }
}

impl Process for ClientProcess {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.arm_next(ctx);
    }

    fn on_timer(&mut self, _timer: TimerId, tag: u64, ctx: &mut dyn Context) {
        if tag & TAG_RETRY_BIT != 0 {
            self.on_retry_timer(tag & !TAG_RETRY_BIT, ctx);
            return;
        }
        debug_assert_eq!(tag, TAG_ARRIVAL);
        if let Some(op) = self.next_op.take() {
            let id = request_id(ctx.me(), self.seq);
            self.seq += 1;
            self.stats.issued += 1;
            self.outstanding.insert(
                id,
                Pending {
                    op,
                    first_sent: ctx.now(),
                    attempts: 1,
                },
            );
            self.send_request(id, op, ctx);
        }
        self.arm_next(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        let Ok(reply) = marp_wire::from_bytes::<ClientReply>(&msg) else {
            return;
        };
        let (id, version) = match reply {
            ClientReply::ReadOk { id, version, .. } => (id, Some(version)),
            ClientReply::WriteDone { id, .. } => (id, None),
            ClientReply::Rejected { id } => {
                self.stats.rejected += 1;
                self.outstanding.remove(&id);
                return;
            }
        };
        if let Some(pending) = self.outstanding.remove(&id) {
            let latency = ctx.now().saturating_since(pending.first_sent);
            if pending.op.is_write() {
                self.stats.write_latencies.push(latency);
                self.stats.acked_writes.push(id);
            } else {
                self.stats.read_latencies.push(latency);
                if let Some(v) = version {
                    self.stats.read_versions.push(v);
                }
            }
        }
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::{FixedDelay, Simulation, TraceLevel};

    fn wrap(req: ClientRequest) -> Bytes {
        marp_wire::to_bytes(&req)
    }

    /// A trivial server answering reads with value = key * 2.
    struct FakeServer {
        seen: Vec<ClientRequest>,
    }

    impl Process for FakeServer {
        fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
            let req: ClientRequest = marp_wire::from_bytes(&msg).unwrap();
            self.seen.push(req);
            let reply = match req.op {
                Operation::Read { key } | Operation::ReadFresh { key } => ClientReply::ReadOk {
                    id: req.id,
                    key,
                    value: Some(key * 2),
                    version: 3,
                },
                Operation::Write { .. } => ClientReply::WriteDone {
                    id: req.id,
                    version: 1,
                },
            };
            ctx.send(from, marp_wire::to_bytes(&reply));
        }
        impl_as_any!();
    }

    #[test]
    fn client_issues_script_and_records_latencies() {
        let mut sim = Simulation::new(
            Box::new(FixedDelay(Duration::from_millis(2))),
            TraceLevel::Protocol,
        );
        let server = sim.add_process(Box::new(FakeServer { seen: Vec::new() }));
        let script = ScriptedSource::new([
            (Duration::from_millis(1), Operation::Read { key: 4 }),
            (
                Duration::from_millis(5),
                Operation::Write { key: 4, value: 9 },
            ),
        ]);
        let client = sim.add_process(Box::new(ClientProcess::new(server, Box::new(script), wrap)));
        sim.run_to_quiescence();

        let server_proc: &FakeServer = sim.process(server).unwrap();
        assert_eq!(server_proc.seen.len(), 2);
        assert!(server_proc.seen[0].op == Operation::Read { key: 4 });

        let client_proc: &ClientProcess = sim.process(client).unwrap();
        assert_eq!(client_proc.stats.issued, 2);
        assert_eq!(client_proc.stats.read_latencies.len(), 1);
        assert_eq!(client_proc.stats.write_latencies.len(), 1);
        // Round trip over a 2 ms fixed-delay transport = 4 ms.
        assert_eq!(
            client_proc.stats.read_latencies[0],
            Duration::from_millis(4)
        );
        assert_eq!(client_proc.stats.read_versions, vec![3]);
        assert_eq!(client_proc.outstanding(), 0);
        assert_eq!(client_proc.stats.mean_read_ms(), Some(4.0));
    }

    #[test]
    fn empty_script_sends_nothing() {
        let mut sim = Simulation::new(
            Box::new(FixedDelay(Duration::from_millis(1))),
            TraceLevel::Protocol,
        );
        let server = sim.add_process(Box::new(FakeServer { seen: Vec::new() }));
        let client = sim.add_process(Box::new(ClientProcess::new(
            server,
            Box::new(ScriptedSource::default()),
            wrap,
        )));
        let stats = sim.run_to_quiescence();
        assert_eq!(stats.messages_sent, 0);
        let client_proc: &ClientProcess = sim.process(client).unwrap();
        assert_eq!(client_proc.stats.issued, 0);
    }

    /// A server that ignores the first `drop_first` requests it sees
    /// and answers the rest (write → WriteDone v1).
    struct FlakyServer {
        drop_first: usize,
        seen: usize,
    }

    impl Process for FlakyServer {
        fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
            let req: ClientRequest = marp_wire::from_bytes(&msg).unwrap();
            self.seen += 1;
            if self.seen <= self.drop_first {
                return;
            }
            let reply = ClientReply::WriteDone {
                id: req.id,
                version: 1,
            };
            ctx.send(from, marp_wire::to_bytes(&reply));
        }
        impl_as_any!();
    }

    #[test]
    fn retry_resends_until_answered() {
        let mut sim = Simulation::new(
            Box::new(FixedDelay(Duration::from_millis(2))),
            TraceLevel::Protocol,
        );
        let server = sim.add_process(Box::new(FlakyServer {
            drop_first: 2,
            seen: 0,
        }));
        let script = ScriptedSource::new([(
            Duration::from_millis(1),
            Operation::Write { key: 4, value: 9 },
        )]);
        let client = sim.add_process(Box::new(
            ClientProcess::new(server, Box::new(script), wrap)
                .with_retry(Duration::from_millis(10), 5),
        ));
        sim.run_to_quiescence();
        let client_proc: &ClientProcess = sim.process(client).unwrap();
        assert_eq!(client_proc.stats.issued, 1);
        assert_eq!(client_proc.stats.retries, 2);
        assert_eq!(client_proc.stats.abandoned, 0);
        assert_eq!(client_proc.stats.write_latencies.len(), 1);
        assert_eq!(client_proc.stats.acked_writes.len(), 1);
        assert_eq!(client_proc.outstanding(), 0);
    }

    #[test]
    fn exhausted_retries_are_abandoned_loudly() {
        let mut sim = Simulation::new(
            Box::new(FixedDelay(Duration::from_millis(2))),
            TraceLevel::Protocol,
        );
        let server = sim.add_process(Box::new(FlakyServer {
            drop_first: usize::MAX,
            seen: 0,
        }));
        let script = ScriptedSource::new([(
            Duration::from_millis(1),
            Operation::Write { key: 4, value: 9 },
        )]);
        let client = sim.add_process(Box::new(
            ClientProcess::new(server, Box::new(script), wrap)
                .with_retry(Duration::from_millis(10), 3),
        ));
        sim.run_to_quiescence();
        let client_proc: &ClientProcess = sim.process(client).unwrap();
        assert_eq!(client_proc.stats.issued, 1);
        assert_eq!(client_proc.stats.retries, 2);
        assert_eq!(client_proc.stats.abandoned, 1);
        assert_eq!(client_proc.stats.write_latencies.len(), 0);
        assert_eq!(client_proc.outstanding(), 0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let retry = RetryConfig {
            timeout: Duration::from_millis(100),
            max_attempts: 10,
        };
        assert_eq!(retry.delay(1), Duration::from_millis(100));
        assert_eq!(retry.delay(2), Duration::from_millis(200));
        assert_eq!(retry.delay(3), Duration::from_millis(400));
        assert_eq!(retry.delay(4), Duration::from_millis(800));
        assert_eq!(retry.delay(9), Duration::from_millis(800));
    }

    #[test]
    fn client_stats_means() {
        let mut stats = ClientStats::default();
        assert_eq!(stats.mean_read_ms(), None);
        stats.read_latencies.push(Duration::from_millis(10));
        stats.read_latencies.push(Duration::from_millis(20));
        assert_eq!(stats.mean_read_ms(), Some(15.0));
        assert_eq!(stats.completed(), 2);
    }
}
