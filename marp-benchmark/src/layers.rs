//! The traced run: every per-layer metric, measured from outside.
//!
//! For each seed that fits in `--seconds` (at least one) the workload's
//! scenario runs three times: through the public entry point (the
//! reference), through the benchmark's own rebuild without wrappers (the
//! plain run, which isolates `sim.run` from construction and post-run
//! analysis), and through the rebuild with the timing wrappers of
//! [`crate::trace`]. The traced run must reproduce the reference's
//! events, messages, bytes, bytes by kind and commits exactly — the
//! transparency check — and its spans must fold into a ledger that adds
//! up. Layers are the crates; a metric of a layer the workload does not
//! run is reported as 0.

use crate::facts::Facts;
use crate::ladder;
use crate::rebuild::{self, Built};
use crate::report::{BenchError, Metric, Report, STORM_LIMIT};
use crate::stats;
use crate::trace::{Class, CtxCall, Ledger, Recording, Tracer};
use crate::workloads::Workload;
use bytes::Bytes;
use marp_agent::{AgentEnvelope, AgentId};
use marp_baselines::McvMsg;
use marp_core::{AgentReply, MarpNode, NodeMsg, ReadAgent, UpdateAgent};
use marp_lab::{run_scenario_traced, ProtocolKind, Scenario};
use marp_metrics::{audit, audit_keyed};
use marp_quorum::QuorumCall;
use marp_replica::{CommitRecord, LockTable, VersionedStore};
use marp_sim::{NodeId, SimTime, TraceEvent, TraceLog};
use marp_wire::Wire;
use marp_workload::{ArrivalProcess, OpMix, WorkloadSource};
use std::time::{Duration, Instant};

/// Stops at which the traced run samples the servers' gauges, spread
/// evenly over the interval in which writes are in flight.
const GAUGE_STOPS: u64 = 10;

/// Seeds the rate ladder pools per rung.
const LADDER_SEEDS: u64 = 3;

/// Sums over the traced seeds, from which the metrics are ratios.
#[derive(Default)]
struct Layers {
    ledger: Ledger,
    /// Reference facts pooled over the traced seeds.
    facts: Facts,
    seeds: u64,
    /// `run_scenario_traced` wall, construction and analysis included.
    reference_s: f64,
    /// `sim.run` wall of the unwrapped rebuild.
    plain_run_s: f64,
    /// The first reference call of this process, caches cold.
    warmup_s: f64,
    decode_ns: u64,
    encode_ns: u64,
    replayed_bytes: u64,
    queue_ms: f64,
    lock_ms: f64,
    commit_round_ms: f64,
    migrate_failed: u64,
    declared_unavailable: u64,
    state_ships: u64,
    trace_records: u64,
    audit_ns: u64,
    ll_depths: Vec<f64>,
    ul_len_max: usize,
    resident_max: usize,
    ll_info_ns: Vec<f64>,
    ll_info_bytes: Vec<f64>,
}

fn is_marp(scenario: &Scenario) -> bool {
    matches!(scenario.protocol, ProtocolKind::Marp { .. })
}

/// Run a built simulation to its horizon; returns the wall time.
fn run_plain(mut built: Built) -> Duration {
    let start = Instant::now();
    built.sim.run_until(built.horizon);
    start.elapsed()
}

/// When the last write completed.
fn last_completion(trace: &TraceLog) -> SimTime {
    trace
        .records()
        .iter()
        .rev()
        .find(|r| matches!(r.event, TraceEvent::UpdateCompleted { .. }))
        .map_or(SimTime::ZERO, |r| r.at)
}

impl Layers {
    /// Sample every MARP server's queues and residents, and time the
    /// `LlInfo` reply it would send a waiting agent right now.
    fn sample_gauges(&mut self, built: &Built, n: usize) {
        let now = built.sim.now();
        for server in 0..n as NodeId {
            let Some(node) = built.sim.process::<MarpNode>(server) else {
                return;
            };
            let state = node.state();
            self.resident_max = self.resident_max.max(node.resident_agents());
            self.ul_len_max = self.ul_len_max.max(state.core.ul.len());
            for key in state.core.ll.keys() {
                let depth = state.core.ll.list(key).map_or(0, |list| list.len());
                if depth == 0 {
                    continue;
                }
                self.ll_depths.push(depth as f64);
                let start = Instant::now();
                let reply = std::hint::black_box(state.ll_info(key, now));
                self.ll_info_ns.push(start.elapsed().as_nanos() as f64);
                self.ll_info_bytes.push(reply.encoded_len() as f64);
            }
        }
    }

    /// The three runs of one seed, and everything read off them.
    fn trace_seed(&mut self, workload: &'static Workload, seed: u64) -> Result<(), BenchError> {
        let scenario = workload.scenario(seed);
        let n = scenario.n_servers;

        // 1. Reference: the public entry point.
        let start = Instant::now();
        let (outcome, reference_trace) = run_scenario_traced(&scenario);
        let reference = start.elapsed();
        if reference > STORM_LIMIT {
            return Err(BenchError::Storm {
                workload: workload.name,
                seed,
            });
        }
        let facts = Facts::of_run(&outcome, &reference_trace);
        let active_end = last_completion(&reference_trace);
        drop(reference_trace);
        if self.seeds == 0 {
            self.warmup_s = reference.as_secs_f64();
        }
        self.reference_s += reference.as_secs_f64();

        // 2. Plain: the same simulation rebuilt, nothing wrapped.
        self.plain_run_s += run_plain(rebuild::build(&scenario, None)).as_secs_f64();

        // 3. Traced: wrapped, stepped through the active interval.
        let tracer = Tracer::new(n, is_marp(&scenario));
        let mut built = rebuild::build(&scenario, Some(&tracer));
        let step = active_end.saturating_since(SimTime::ZERO) / GAUGE_STOPS as u32;
        for stop in 1..=GAUGE_STOPS {
            tracer.run_until(&mut built.sim, SimTime::ZERO + step * stop as u32);
            self.sample_gauges(&built, n);
        }
        let stats = tracer.run_until(&mut built.sim, built.horizon);
        let trace = built.sim.into_trace();
        let recording = tracer.finish();

        // Transparency: the wrappers changed nothing the simulation did.
        let committed = trace.count(|e| matches!(e, TraceEvent::UpdateCompleted { .. })) as u64;
        let same = [
            ("events", stats.events, facts.events),
            ("messages_sent", stats.messages_sent, facts.messages),
            ("bytes_sent", stats.bytes_sent, facts.bytes),
            ("committed", committed, facts.completed),
        ];
        for (what, traced, reference) in same {
            if traced != reference {
                return Err(BenchError::NotTransparent(format!(
                    "{} seed={seed}: {what} {traced} traced, {reference} through run_scenario",
                    workload.name
                )));
            }
        }
        if stats.bytes_by_kind != facts.bytes_by_kind {
            return Err(BenchError::NotTransparent(format!(
                "{} seed={seed}: bytes_by_kind {:?} traced, {:?} through run_scenario",
                workload.name, stats.bytes_by_kind, facts.bytes_by_kind
            )));
        }

        self.ledger
            .fold(&recording.spans)
            .map_err(|e| BenchError::Ledger(e.0))?;
        self.replay_codec(&recording, is_marp(&scenario))?;
        self.read_trace(&trace, &scenario);
        self.facts.pool(&facts);
        self.seeds += 1;
        Ok(())
    }

    /// Decode every payload a server received, down to the agent state
    /// or `LlInfo` inside an envelope, then encode it again. Timed in
    /// blocks so the clock is read twice per few thousand messages.
    fn replay_codec(&mut self, recording: &Recording, marp: bool) -> Result<(), BenchError> {
        for block in recording.payloads.chunks(4096) {
            self.replayed_bytes += block.iter().map(|p| p.len() as u64).sum::<u64>();
            if marp {
                self.replay_block::<MarpPayload>(block)?;
            } else {
                self.replay_block::<McvMsg>(block)?;
            }
        }
        Ok(())
    }

    fn replay_block<T: Replay>(&mut self, block: &[Bytes]) -> Result<(), BenchError> {
        let start = Instant::now();
        let decoded: Result<Vec<T>, BenchError> = block.iter().map(T::decode_all).collect();
        let decoded = decoded?;
        self.decode_ns += start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let lengths: Vec<usize> = decoded.iter().map(T::encode_all).collect();
        self.encode_ns += start.elapsed().as_nanos() as u64;
        for (payload, length) in block.iter().zip(lengths) {
            if payload.len() != length {
                return Err(BenchError::Ledger(format!(
                    "a {}-byte payload re-encodes to {length} bytes",
                    payload.len()
                )));
            }
        }
        Ok(())
    }

    /// Counts and virtual phase times only the trace knows.
    fn read_trace(&mut self, trace: &TraceLog, scenario: &Scenario) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        for record in trace.records() {
            match record.event {
                TraceEvent::UpdateCompleted {
                    arrived,
                    dispatched,
                    locked,
                    ..
                } => {
                    self.queue_ms += ms(dispatched.saturating_since(arrived));
                    self.lock_ms += ms(locked.saturating_since(dispatched));
                    self.commit_round_ms += ms(record.at.saturating_since(locked));
                }
                TraceEvent::AgentMigrateFailed { .. } => self.migrate_failed += 1,
                TraceEvent::ReplicaDeclaredUnavailable { .. } => self.declared_unavailable += 1,
                TraceEvent::AgentStateShipped { .. } => self.state_ships += 1,
                _ => {}
            }
        }
        self.trace_records += trace.records().len() as u64;
        let start = Instant::now();
        let report = if is_marp(scenario) {
            audit_keyed(trace, scenario.n_servers)
        } else {
            audit(trace, 0)
        };
        std::hint::black_box(report);
        self.audit_ns += start.elapsed().as_nanos() as u64;
    }
}

/// A captured payload decoded all the way down, and encoded back.
trait Replay: Sized {
    fn decode_all(payload: &Bytes) -> Result<Self, BenchError>;
    /// Re-encode; returns the outer message's encoded length.
    fn encode_all(&self) -> usize;
}

fn undecodable(what: &str, error: marp_wire::WireError) -> BenchError {
    BenchError::Ledger(format!("captured {what} does not decode: {error:?}"))
}

impl Replay for McvMsg {
    fn decode_all(payload: &Bytes) -> Result<Self, BenchError> {
        marp_wire::from_bytes(payload).map_err(|e| undecodable("McvMsg", e))
    }
    fn encode_all(&self) -> usize {
        marp_wire::to_bytes(self).len()
    }
}

/// What rides inside an agent envelope.
enum Inner {
    Nothing,
    Mail(AgentReply),
    UpdateState(UpdateAgent),
    ReadState(ReadAgent),
}

struct MarpPayload {
    msg: NodeMsg,
    inner: Inner,
}

impl Replay for MarpPayload {
    fn decode_all(payload: &Bytes) -> Result<Self, BenchError> {
        let msg: NodeMsg = marp_wire::from_bytes(payload).map_err(|e| undecodable("NodeMsg", e))?;
        let inner = match &msg {
            NodeMsg::Agent(AgentEnvelope::ToAgent { payload, .. }) => Inner::Mail(
                marp_wire::from_bytes(payload).map_err(|e| undecodable("AgentReply", e))?,
            ),
            NodeMsg::Agent(AgentEnvelope::Migrate { state, .. }) => Inner::UpdateState(
                marp_wire::from_bytes(state).map_err(|e| undecodable("UpdateAgent", e))?,
            ),
            NodeMsg::RAgent(AgentEnvelope::Migrate { state, .. }) => Inner::ReadState(
                marp_wire::from_bytes(state).map_err(|e| undecodable("ReadAgent", e))?,
            ),
            _ => Inner::Nothing,
        };
        Ok(MarpPayload { msg, inner })
    }

    fn encode_all(&self) -> usize {
        let inner = match &self.inner {
            Inner::Nothing => 0,
            Inner::Mail(reply) => marp_wire::to_bytes(reply).len(),
            Inner::UpdateState(agent) => marp_wire::to_bytes(agent).len(),
            Inner::ReadState(agent) => marp_wire::to_bytes(agent).len(),
        };
        std::hint::black_box(inner);
        marp_wire::to_bytes(&self.msg).len()
    }
}

/// Mean nanoseconds of `op` over enough repeats to fill a millisecond
/// or so; `op`'s result is kept from the optimizer.
fn time_ns<R>(repeats: u32, mut op: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..repeats {
        std::hint::black_box(op());
    }
    start.elapsed().as_nanos() as f64 / f64::from(repeats)
}

fn fixture_agent(i: u32) -> AgentId {
    AgentId::new((i % 7) as NodeId, SimTime::from_millis(u64::from(i)), i)
}

/// A lock table whose key-0 queue is `depth` agents deep.
fn fixture_lock_table(depth: u32) -> LockTable {
    let mut table = LockTable::new();
    for i in 0..depth {
        let at = SimTime::from_millis(u64::from(i));
        table.request(0, fixture_agent(i), at, Duration::from_secs(30), 0);
    }
    table
}

/// `LockTable::request` (a new agent joining the queue) and `snapshot`,
/// each at queue depth `depth`: mean ns per call.
fn locktable_ns(depth: u32) -> (f64, f64) {
    let full = fixture_lock_table(depth);
    let newcomer = fixture_agent(depth);
    let now = SimTime::from_secs(1);
    let request = time_ns(2_000, || {
        let mut table = full.clone();
        table.request(0, newcomer, now, Duration::from_secs(30), 0);
        table
    }) - time_ns(2_000, || full.clone());
    let snapshot = time_ns(2_000, || full.snapshot(0, now));
    (request.max(0.0), snapshot)
}

/// `VersionedStore::offer` of in-order commits over 16 keys: ns per record.
fn store_apply_ns() -> f64 {
    const RECORDS: u64 = 2_000;
    let per_store = time_ns(20, || {
        let mut store = VersionedStore::per_key();
        let mut next = [0u64; 16];
        for request in 0..RECORDS {
            let key = request % 16;
            next[key as usize] += 1;
            let record = CommitRecord {
                version: next[key as usize],
                key,
                value: request,
                agent: 7,
                request,
                committed_at: SimTime::from_millis(request),
            };
            store.offer(record, SimTime::from_millis(request));
        }
        store
    });
    per_store / RECORDS as f64
}

/// One majority `QuorumCall` at `n` servers, opened and voted to a verdict.
fn quorum_round_ns(n: u16) -> f64 {
    time_ns(20_000, || {
        let mut call: QuorumCall<u64> =
            QuorumCall::majority(std::hint::black_box(n), SimTime::ZERO);
        for node in 0..n {
            if call.offer_vote(node, true, u64::from(node)).is_some() {
                break;
            }
        }
        call.verdict()
    })
}

/// Drawing one request (gap and operation) from the scenario's source.
fn workload_gen_ns(scenario: &Scenario) -> f64 {
    const REQUESTS: u64 = 20_000;
    let arrival = ArrivalProcess::Exponential {
        mean_ms: scenario.mean_interarrival_ms,
    };
    let mix = OpMix::new(scenario.write_fraction, scenario.keys.clone())
        .with_fresh_reads(scenario.fresh_reads);
    let start = Instant::now();
    let mut source = WorkloadSource::new(&arrival, &mix, REQUESTS, scenario.seed);
    let mut drawn = 0u64;
    while let Some(request) = marp_replica::RequestSource::next_request(&mut source) {
        std::hint::black_box(request);
        drawn += 1;
    }
    start.elapsed().as_nanos() as f64 / drawn as f64
}

/// ATT of every completed write of one run, by arrival time.
fn att_by_arrival(trace: &TraceLog) -> Vec<(SimTime, f64)> {
    trace
        .records()
        .iter()
        .filter_map(|record| match record.event {
            TraceEvent::UpdateCompleted { arrived, .. } => Some((
                arrived,
                record.at.saturating_since(arrived).as_secs_f64() * 1e3,
            )),
            _ => None,
        })
        .collect()
}

/// `lab.max_rate_wps`: climb the ladder on the paper's 5-replica
/// scenario, pooling [`LADDER_SEEDS`] seeds per rung.
fn max_rate_wps(base_seed: u64, notes: &mut Vec<String>) -> f64 {
    const SERVERS: usize = 5;
    let rates: Vec<f64> = ladder::LADDER_MEAN_MS
        .iter()
        .map(|mean_ms| SERVERS as f64 * 1e3 / mean_ms)
        .collect();
    let climb = ladder::max_sustained_rate(&rates, |rate| {
        let mean_ms = SERVERS as f64 * 1e3 / rate;
        let mut pooled = Vec::new();
        for i in 0..LADDER_SEEDS {
            let scenario = Scenario::paper(SERVERS, mean_ms, base_seed.wrapping_add(101 * i));
            pooled.extend(att_by_arrival(&run_scenario_traced(&scenario).1));
        }
        pooled.sort_by_key(|&(arrived, _)| arrived);
        pooled.into_iter().map(|(_, att)| att).collect()
    });
    for (rate, verdict) in &climb.rungs {
        notes.push(format!("ladder: {rate:6.1} writes/s {verdict:?}"));
    }
    climb.best.unwrap_or(0.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Run the traced mode for `seconds`.
pub fn run(
    workload: &'static Workload,
    base_seed: u64,
    seconds: f64,
) -> Result<Report, BenchError> {
    let started = Instant::now();
    let mut layers = Layers {
        facts: Facts::empty_pool(),
        ..Layers::default()
    };
    for seed in workload.pass_seeds(base_seed) {
        // At least one seed; then as many as still fit.
        let elapsed = started.elapsed().as_secs_f64();
        if layers.seeds > 0 && elapsed + elapsed / layers.seeds as f64 > seconds {
            break;
        }
        layers.trace_seed(workload, seed)?;
    }

    let scenario = workload.scenario(base_seed);
    let marp = is_marp(&scenario);
    let n = scenario.n_servers;
    let facts = &layers.facts;
    let ledger = &layers.ledger;
    let run_ns = ledger.run.ns as f64;
    let ops = facts.acked() as f64;
    let commits = facts.completed as f64;
    let mut notes = vec![format!(
        "{}: traced seeds {}..+101x{} in {:.1} s; transparent (events, messages, bytes, bytes by kind, commits equal run_scenario's)",
        workload.name,
        base_seed,
        layers.seeds,
        started.elapsed().as_secs_f64()
    )];

    // The ledger: where the traced run's wall time went.
    let server_classes: Vec<Class> = Class::ALL
        .into_iter()
        .filter(|c| *c != Class::ClientProc)
        .collect();
    let server_self_ns: u64 = server_classes.iter().map(|c| ledger.handler(*c).ns).sum();
    let budget = [
        ("handler self", ledger.handler_self_ns()),
        ("ctx calls", ledger.ctx_ns()),
        ("transport route", ledger.route.ns),
        ("engine residual", ledger.engine_ns()),
    ];
    let mut total_share = 0.0;
    for (what, ns) in budget {
        let share = ns as f64 / run_ns;
        total_share += share;
        notes.push(format!(
            "budget: {what:<16} {:>10.3} ms {:>6.2} %",
            ns as f64 / 1e6,
            share * 100.0
        ));
    }
    if (total_share - 1.0).abs() > 1e-9 {
        return Err(BenchError::Ledger(format!(
            "budget rows sum to {total_share} of the traced run"
        )));
    }

    let mut metrics = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric::new(name, value, unit));
    };

    // sim
    let events = facts.events as f64;
    push("sim.events_per_op", events / ops, "count");
    push("sim.timer_share", facts.timers as f64 / events, "ratio");
    push(
        "sim.engine_self_share",
        ledger.engine_ns() as f64 / run_ns,
        "ratio",
    );
    push(
        "sim.engine_self_ns_per_event",
        ledger.engine_ns() as f64 / events,
        "ns",
    );
    push(
        "sim.send_ns_per_msg",
        ledger.ctx_call(CtxCall::Send).mean_ns(),
        "ns",
    );
    push(
        "sim.trace_ns_per_record",
        ledger.ctx_call(CtxCall::Trace).mean_ns(),
        "ns",
    );
    push(
        "sim.trace_records_per_op",
        ledger.ctx_call(CtxCall::Trace).count as f64 / ops,
        "count",
    );

    // net
    push("net.route_ns_per_msg", ledger.route.mean_ns(), "ns");
    push(
        "net.dropped_share",
        facts.dropped as f64 / facts.messages as f64,
        "ratio",
    );

    // wire
    let replayed = layers.replayed_bytes as f64;
    push(
        "wire.bytes_per_msg",
        facts.bytes as f64 / facts.messages as f64,
        "B",
    );
    push(
        "wire.decode_ns_per_byte",
        layers.decode_ns as f64 / replayed,
        "ns",
    );
    push(
        "wire.encode_ns_per_byte",
        layers.encode_ns as f64 / replayed,
        "ns",
    );

    // core: zero when the workload does not run MARP.
    let core = |value: f64| if marp { value } else { 0.0 };
    push(
        "core.handler_self_share",
        core(server_self_ns as f64 / run_ns),
        "ratio",
    );
    let mut class_shares = 0.0;
    for class in &server_classes {
        if *class == Class::Baseline {
            continue;
        }
        let tally = ledger.handler(*class);
        push(
            &format!("core.handler_us.{}", class.name()),
            core(tally.mean_ns() / 1e3),
            "us",
        );
        let share = tally.ns as f64 / run_ns;
        class_shares += share;
        push(
            &format!("core.handler_share.{}", class.name()),
            core(share),
            "ratio",
        );
    }
    let whole = server_self_ns as f64 / run_ns;
    if marp && (class_shares - whole).abs() > 0.01 * whole {
        return Err(BenchError::Ledger(format!(
            "core.handler_share.* sum to {class_shares}, core.handler_self_share is {whole}"
        )));
    }
    let agent_tag_bytes = facts.bytes_by_kind[1] as f64;
    push(
        "core.envelope_byte_share",
        core(agent_tag_bytes / facts.bytes as f64),
        "ratio",
    );
    push(
        "core.migrated_byte_share",
        core(facts.agent_bytes_migrated as f64 / facts.bytes as f64),
        "ratio",
    );
    push(
        "core.ll_info_ns",
        core(stats::mean(&layers.ll_info_ns)),
        "ns",
    );
    push(
        "core.ll_info_bytes",
        core(stats::mean(&layers.ll_info_bytes)),
        "B",
    );
    push(
        "core.aborted_claims_per_commit",
        core(facts.aborted_claims as f64 / commits),
        "count",
    );
    let phases = layers.queue_ms + layers.lock_ms + layers.commit_round_ms;
    let phase_shares = [
        ("core.queue_share", layers.queue_ms / phases),
        ("core.lock_share", layers.lock_ms / phases),
        ("core.commit_round_share", layers.commit_round_ms / phases),
    ];
    let phase_total: f64 = phase_shares.iter().map(|(_, share)| share).sum();
    if (phase_total - 1.0).abs() > 1e-9 || (phases - facts.att_sum_ms).abs() > 1e-6 * phases {
        return Err(BenchError::Ledger(format!(
            "virtual phases sum to {phases} ms ({phase_total} in shares) against an ATT sum of {} ms",
            facts.att_sum_ms
        )));
    }
    for (name, share) in phase_shares {
        push(name, core(share), "ratio");
    }

    // agent
    // Fewest migrations that take an agent from its home to a majority.
    let min_hops = (n + 2) / 2 - 1;
    let hops_per_op = facts.migrations as f64 / ops;
    push("agent.migrations_per_op", hops_per_op, "count");
    push(
        "agent.migrations_over_min",
        hops_per_op / min_hops as f64,
        "ratio",
    );
    push(
        "agent.state_bytes_per_hop",
        ratio(facts.agent_bytes_migrated as f64, layers.state_ships as f64),
        "B",
    );
    push("agent.resident_max", layers.resident_max as f64, "count");
    push(
        "agent.migrate_failed_per_op",
        layers.migrate_failed as f64 / ops,
        "count",
    );
    push(
        "agent.declared_unavailable",
        layers.declared_unavailable as f64,
        "count",
    );

    // replica
    let depth_p95 = if layers.ll_depths.is_empty() {
        0.0
    } else {
        let mut depths = layers.ll_depths.clone();
        depths.sort_by(f64::total_cmp);
        depths[(depths.len() * 95).div_ceil(100) - 1]
    };
    push("replica.ll_depth_p95", depth_p95, "count");
    push("replica.ul_len_max", layers.ul_len_max as f64, "count");
    push(
        "replica.client_handler_ns_per_event",
        ledger.handler(Class::ClientProc).mean_ns(),
        "ns",
    );
    push(
        "replica.retries_per_op",
        facts.retries as f64 / ops,
        "count",
    );
    let (request_ns, snapshot_ns) = locktable_ns((depth_p95 as u32).max(1));
    push("replica.locktable_ns.request", request_ns, "ns");
    push("replica.locktable_ns.snapshot", snapshot_ns, "ns");
    push("replica.store_apply_ns", store_apply_ns(), "ns");
    let read_pct = |q: f64| stats::percentile(&facts.read_ms, q).unwrap_or(0.0);
    push("replica.read_p50_ms", read_pct(0.50), "ms");
    push("replica.read_p95_ms", read_pct(0.95), "ms");

    // quorum, baselines, workload
    push("quorum.round_ns", quorum_round_ns(n as u16), "ns");
    let baseline = ledger.handler(Class::Baseline);
    let baselines = |value: f64| if marp { 0.0 } else { value };
    push(
        "baselines.handler_self_share",
        baselines(server_self_ns as f64 / run_ns),
        "ratio",
    );
    push(
        "baselines.handler_us_per_event",
        baselines(baseline.mean_ns() / 1e3),
        "us",
    );
    push(
        "workload.gen_ns_per_request",
        workload_gen_ns(&scenario),
        "ns",
    );

    // metrics + lab
    push(
        "metrics.audit_ns_per_record",
        layers.audit_ns as f64 / layers.trace_records as f64,
        "ns",
    );
    push(
        "lab.post_run_share",
        (layers.reference_s - layers.plain_run_s) / layers.reference_s,
        "ratio",
    );
    push(
        "lab.trace_overhead_share",
        run_ns / 1e9 / layers.plain_run_s - 1.0,
        "ratio",
    );
    push("lab.warmup_s", layers.warmup_s, "s");
    push(
        "lab.failed_share",
        facts.failed() as f64 / facts.issued as f64,
        "ratio",
    );
    let max_rate = if workload.name == "paper_n5" {
        max_rate_wps(base_seed, &mut notes)
    } else {
        0.0
    };
    push("lab.max_rate_wps", max_rate, "1/s");

    Ok(Report::checked(workload, facts, metrics, notes))
}
