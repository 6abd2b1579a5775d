//! Scenario descriptions and single-run execution.
//!
//! A [`Scenario`] is a complete, self-contained description of one
//! simulation run: protocol, cluster size, topology, workload, faults,
//! and seed. [`run_scenario`] executes it and returns the paper's
//! metrics, the consistency audit, kernel statistics, and client-side
//! latencies — everything the experiment binaries report.

use marp_baselines::{
    wrap_ac_client_request, wrap_mcv_client_request, wrap_pc_client_request,
    wrap_wv_client_request, AcConfig, AcNode, McvConfig, McvNode, PcConfig, PcNode, WvConfig,
    WvNode,
};
use marp_core::{
    build_cluster, wrap_client_request as wrap_marp_client_request, MailCounters, MarpConfig,
    MarpNode,
};
use marp_metrics::{AuditReport, InvariantMonitor, PaperMetrics, Samples};
use marp_net::{FaultPlan, LinkModel, SimTransport, Topology};
use marp_replica::ClientProcess;
use marp_sim::{NodeId, RunStats, SimRng, SimTime, Simulation, TraceLevel};
use marp_workload::{ArrivalProcess, KeyDist, OpMix, WorkloadSource};
use std::time::Duration;

/// Which replication protocol a scenario runs.
#[derive(Debug, Clone)]
pub enum ProtocolKind {
    /// The paper's mobile-agent protocol.
    Marp {
        /// Enable the §3.3 information-sharing boards (E10).
        gossip: bool,
        /// Itinerary ordering policy (E9).
        itinerary: marp_agent::ItineraryPolicy,
        /// Request batch size (E11).
        batch_max: usize,
    },
    /// Message-passing majority consensus voting.
    Mcv,
    /// Available Copy (write-all-available / read-one).
    AvailableCopy,
    /// Gifford weighted voting, one vote per replica, majority quorums.
    WeightedVoting,
    /// Primary copy sequencer.
    PrimaryCopy,
}

impl ProtocolKind {
    /// Default MARP configuration.
    pub fn marp() -> Self {
        ProtocolKind::Marp {
            gossip: true,
            itinerary: marp_agent::ItineraryPolicy::CostSorted,
            batch_max: 1,
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::Marp { .. } => "MARP",
            ProtocolKind::Mcv => "MCV",
            ProtocolKind::AvailableCopy => "AC",
            ProtocolKind::WeightedVoting => "WV",
            ProtocolKind::PrimaryCopy => "PC",
        }
    }
}

/// The network shape of a scenario.
#[derive(Debug, Clone)]
pub enum TopologyKind {
    /// Uniform LAN with the given one-way latency (the paper's
    /// testbed).
    Lan {
        /// One-way latency in ms.
        latency_ms: f64,
    },
    /// Clusters joined by slow links (servers spread round-robin).
    Wan {
        /// Number of clusters.
        clusters: usize,
        /// Intra-cluster one-way latency (ms).
        intra_ms: f64,
        /// Inter-cluster one-way latency (ms).
        inter_ms: f64,
    },
    /// Internet-like random-geometric spread.
    Geo {
        /// Square side expressed as one-way latency (ms).
        side_ms: f64,
        /// Per-hop latency floor (ms).
        floor_ms: f64,
    },
}

/// The per-message link model of a scenario.
#[derive(Debug, Clone, Copy)]
pub enum LinkKind {
    /// No jitter, infinite bandwidth.
    Ideal,
    /// The calibrated 1990s LAN (paper's prototype environment).
    Lan1990s,
    /// Wide-area: heavy jitter, low bandwidth.
    Wan,
}

impl LinkKind {
    fn model(&self) -> LinkModel {
        match self {
            LinkKind::Ideal => LinkModel::ideal(),
            LinkKind::Lan1990s => LinkModel::lan_1990s(),
            LinkKind::Wan => LinkModel::wan(),
        }
    }
}

/// A complete description of one run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Replica servers.
    pub n_servers: usize,
    /// Clients attached to each server.
    pub clients_per_server: usize,
    /// Mean request inter-arrival time per client (ms) — the paper's
    /// x-axis.
    pub mean_interarrival_ms: f64,
    /// Requests each client issues.
    pub requests_per_client: u64,
    /// Fraction of requests that are writes (the paper's figures use
    /// 1.0).
    pub write_fraction: f64,
    /// Key distribution.
    pub keys: KeyDist,
    /// Issue consistent (`ReadFresh`) reads instead of plain local
    /// reads (MARP serves them with read agents; see E13).
    pub fresh_reads: bool,
    /// Bursty (two-state MMPP) arrivals instead of plain exponential —
    /// the workload for the adaptive-batching experiment E14.
    pub bursty: bool,
    /// MARP only: adapt the batch size to the commit backlog (E14).
    pub adaptive_batching: bool,
    /// MARP only: delta-encode the Locking Table across migrations
    /// (prune snapshots the destination already knows). Disable to
    /// measure the full-table shipping cost.
    pub lt_delta: bool,
    /// Network shape.
    pub topology: TopologyKind,
    /// Link model.
    pub link: LinkKind,
    /// Fault schedule, if any.
    pub faults: Option<FaultPlan>,
    /// Client retry: `(timeout, max_attempts)` for idempotent resends
    /// of unanswered requests. `None` (the default) keeps the paper's
    /// fire-once clients; the chaos harness turns it on so no loss can
    /// hide behind a client that never asked twice. Only protocols with
    /// request deduplication (MARP) should enable this — the baselines
    /// would double-apply a resend.
    pub client_retry: Option<(Duration, u32)>,
    /// MARP only: regenerate agents for batches whose commits never
    /// arrived (on by default). Disabled by the chaos harness's
    /// ablation arm to demonstrate that without regeneration,
    /// acknowledged availability collapses into lost work.
    pub regeneration: bool,
    /// Master seed.
    pub seed: u64,
    /// Virtual-time horizon; `None` = auto (generous multiple of the
    /// expected workload duration).
    pub horizon: Option<Duration>,
}

impl Scenario {
    /// The paper's Figure 2–4 configuration: `n` servers on a 1990s
    /// LAN, one write-only exponential client per server.
    pub fn paper(n_servers: usize, mean_interarrival_ms: f64, seed: u64) -> Self {
        Scenario {
            protocol: ProtocolKind::marp(),
            n_servers,
            clients_per_server: 1,
            mean_interarrival_ms,
            requests_per_client: 40,
            write_fraction: 1.0,
            keys: KeyDist::Single,
            fresh_reads: false,
            bursty: false,
            adaptive_batching: false,
            lt_delta: true,
            topology: TopologyKind::Lan { latency_ms: 1.0 },
            link: LinkKind::Lan1990s,
            faults: None,
            client_retry: None,
            regeneration: true,
            seed,
            horizon: None,
        }
    }

    /// Switch the protocol.
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    fn n_clients(&self) -> usize {
        self.n_servers * self.clients_per_server
    }

    fn auto_horizon(&self) -> Duration {
        let workload_ms = self.mean_interarrival_ms * self.requests_per_client as f64;
        let ms = (workload_ms * 4.0 + 60_000.0).min(30_000_000.0);
        Duration::from_millis(ms as u64)
    }

    /// Build the full topology: servers first, then clients colocated
    /// next to their servers (0.1 ms away).
    fn build_topology(&self) -> Topology {
        let n = self.n_servers;
        let total = n + self.n_clients();
        let servers: Topology = match &self.topology {
            TopologyKind::Lan { latency_ms } => {
                Topology::uniform_lan(n, Duration::from_micros((latency_ms * 1e3) as u64))
            }
            TopologyKind::Wan {
                clusters,
                intra_ms,
                inter_ms,
            } => {
                let mut sizes = vec![n / clusters; *clusters];
                for slot in sizes.iter_mut().take(n % clusters) {
                    *slot += 1;
                }
                Topology::clustered_wan(
                    &sizes,
                    Duration::from_micros((intra_ms * 1e3) as u64),
                    Duration::from_micros((inter_ms * 1e3) as u64),
                )
            }
            TopologyKind::Geo { side_ms, floor_ms } => {
                let mut rng = SimRng::derive(self.seed, "geo-topology");
                Topology::random_geometric(
                    n,
                    Duration::from_micros((side_ms * 1e3) as u64),
                    Duration::from_micros((floor_ms * 1e3) as u64),
                    &mut rng,
                )
            }
        };
        // Extend with client nodes: client k attaches to server k % n.
        let near = Duration::from_micros(100);
        let mut lat = Vec::with_capacity(total * total);
        let server_of = |node: usize| -> usize {
            if node < n {
                node
            } else {
                (node - n) % n
            }
        };
        for a in 0..total {
            for b in 0..total {
                let value = if a == b {
                    Duration::ZERO
                } else {
                    let sa = server_of(a);
                    let sb = server_of(b);
                    let mut base = servers.latency(sa as NodeId, sb as NodeId);
                    if a >= n {
                        base += near;
                    }
                    if b >= n {
                        base += near;
                    }
                    if base.is_zero() {
                        near
                    } else {
                        base
                    }
                };
                lat.push(value);
            }
        }
        Topology::from_matrix(total, lat)
    }
}

/// Everything measured in one run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The paper's ALT/ATT/PRK metrics.
    pub metrics: PaperMetrics,
    /// Consistency audit over the trace.
    pub audit: AuditReport,
    /// Kernel statistics (messages, bytes, events).
    pub stats: RunStats,
    /// Server→agent mail counters summed over the MARP servers (all
    /// zero for the message-passing baselines).
    pub mail: MailCounters,
    /// Client-observed read latencies (ms).
    pub client_read_ms: Samples,
    /// Client-observed write latencies (ms).
    pub client_write_ms: Samples,
    /// Requests issued by clients.
    pub issued: u64,
    /// Idempotent resends clients sent (0 unless `client_retry` is on).
    pub retries: u64,
    /// Requests a client gave up on after exhausting its retry budget —
    /// losses are never silent.
    pub abandoned: u64,
    /// Writes acknowledged to a client.
    pub acked_writes: u64,
    /// Acknowledged writes no replica ever applied — an exactly-once
    /// violation (must be empty; the chaos harness asserts it).
    pub lost_acked_writes: Vec<u64>,
}

/// Execute one scenario to completion.
pub fn run_scenario(scenario: &Scenario) -> RunOutcome {
    run_scenario_traced(scenario).0
}

/// Execute one scenario and also hand back the recorded trace, for the
/// observability pipeline (`--trace-out`, `marp-trace`, span analysis).
pub fn run_scenario_traced(scenario: &Scenario) -> (RunOutcome, marp_sim::TraceLog) {
    let n = scenario.n_servers;
    let topo = scenario.build_topology();
    let mut transport = SimTransport::new(
        topo.clone(),
        scenario.link.model(),
        SimRng::derive(scenario.seed, "link-jitter"),
    );
    if let Some(plan) = &scenario.faults {
        transport = transport.with_schedule(plan.net_schedule());
    }
    let mut sim = Simulation::new(Box::new(transport), TraceLevel::Protocol);

    // Protocol timeouts must respect the deployment's physical round
    // trips — a LAN-tuned ack timeout on a 200 ms WAN link would abort
    // every claim before its acks can return.
    let max_latency = topo.max_latency();

    // Servers.
    let client_wrap = match &scenario.protocol {
        ProtocolKind::Marp {
            gossip,
            itinerary,
            batch_max,
        } => {
            let mut cfg = MarpConfig::new(n).scaled_to_latency(max_latency);
            cfg.gossip = *gossip;
            cfg.itinerary = *itinerary;
            cfg.batch.max_batch = *batch_max;
            cfg.adaptive_batching = scenario.adaptive_batching;
            cfg.lt_delta = scenario.lt_delta;
            cfg.regeneration = scenario.regeneration;
            build_cluster(&mut sim, &cfg, &topo);
            wrap_marp_client_request
        }
        ProtocolKind::Mcv => {
            let cfg = McvConfig::new(n).scaled_to_latency(max_latency);
            for me in 0..n as NodeId {
                sim.add_process(Box::new(McvNode::new(me, cfg)));
            }
            wrap_mcv_client_request
        }
        ProtocolKind::AvailableCopy => {
            let cfg = AcConfig::new(n).scaled_to_latency(max_latency);
            for me in 0..n as NodeId {
                sim.add_process(Box::new(AcNode::new(me, cfg)));
            }
            wrap_ac_client_request
        }
        ProtocolKind::WeightedVoting => {
            let cfg = WvConfig::uniform(n).scaled_to_latency(max_latency);
            for me in 0..n as NodeId {
                sim.add_process(Box::new(WvNode::new(me, cfg.clone())));
            }
            wrap_wv_client_request
        }
        ProtocolKind::PrimaryCopy => {
            for me in 0..n as NodeId {
                sim.add_process(Box::new(PcNode::new(me, PcConfig::new(n))));
            }
            wrap_pc_client_request
        }
    };

    // Clients.
    let mean = scenario.mean_interarrival_ms;
    let arrival = if scenario.bursty {
        // Calm/burst phases averaging out near the configured mean, with
        // bursts five times denser than the calm baseline.
        ArrivalProcess::Bursty {
            calm_mean_ms: mean * 1.8,
            burst_mean_ms: mean / 5.0,
            hold_calm_ms: mean * 30.0,
            hold_burst_ms: mean * 10.0,
        }
    } else {
        ArrivalProcess::Exponential { mean_ms: mean }
    };
    let mix = OpMix::new(scenario.write_fraction, scenario.keys.clone())
        .with_fresh_reads(scenario.fresh_reads);
    let mut client_nodes = Vec::new();
    for k in 0..scenario.n_clients() {
        let server = (k % n) as NodeId;
        let source = WorkloadSource::new(
            &arrival,
            &mix,
            scenario.requests_per_client,
            marp_sim::splitmix64(scenario.seed ^ (k as u64 + 0x1234)),
        );
        let mut process = ClientProcess::new(server, Box::new(source), client_wrap);
        if let Some((timeout, max_attempts)) = scenario.client_retry {
            process = process.with_retry(timeout, max_attempts);
        }
        let client = sim.add_process(Box::new(process));
        client_nodes.push(client);
    }

    // Faults.
    if let Some(plan) = &scenario.faults {
        plan.schedule_controls(&mut sim);
    }

    let horizon = scenario.horizon.unwrap_or_else(|| scenario.auto_horizon());
    let stats = sim.run_until(SimTime::ZERO + horizon);

    // Harvest client stats.
    let mut client_read_ms = Samples::new();
    let mut client_write_ms = Samples::new();
    let mut issued = 0;
    let mut retries = 0;
    let mut abandoned = 0;
    let mut acked = Vec::new();
    for &client in &client_nodes {
        let proc = sim
            .process::<ClientProcess>(client)
            .expect("client process");
        issued += proc.stats.issued;
        retries += proc.stats.retries;
        abandoned += proc.stats.abandoned;
        acked.extend_from_slice(&proc.stats.acked_writes);
        for d in &proc.stats.read_latencies {
            client_read_ms.push(d.as_secs_f64() * 1e3);
        }
        for d in &proc.stats.write_latencies {
            client_write_ms.push(d.as_secs_f64() * 1e3);
        }
    }

    let mut mail = MailCounters::default();
    for server in 0..n as NodeId {
        if let Some(node) = sim.process::<MarpNode>(server) {
            mail += node.mail();
        }
    }

    let trace = sim.into_trace();
    let mut metrics = PaperMetrics::default();
    // MARP orders commits per object key (keyed store), so its audit
    // checks order preservation and denseness per key; the dense
    // *global*-version baselines (MCV, PC) get the strict global
    // audit; the LWW/per-key baselines (AC, WV) get the relaxed one.
    let mut monitor = match scenario.protocol {
        ProtocolKind::Marp { .. } => InvariantMonitor::keyed(n),
        ProtocolKind::Mcv | ProtocolKind::PrimaryCopy => InvariantMonitor::strict(0),
        ProtocolKind::AvailableCopy | ProtocolKind::WeightedVoting => InvariantMonitor::relaxed(),
    };
    for record in trace.records() {
        metrics.observe(record);
        monitor.observe(record);
    }
    // The durability cross-check: every write acknowledged to a client
    // must have been applied by at least one replica.
    let lost_acked_writes: Vec<u64> = acked
        .iter()
        .copied()
        .filter(|&id| !monitor.request_committed(id))
        .collect();
    let audit = monitor.report();

    let outcome = RunOutcome {
        metrics,
        audit,
        stats,
        mail,
        client_read_ms,
        client_write_ms,
        issued,
        retries,
        abandoned,
        acked_writes: acked.len() as u64,
        lost_acked_writes,
    };
    (outcome, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_runs_clean() {
        let mut scenario = Scenario::paper(3, 40.0, 7);
        scenario.requests_per_client = 5;
        let outcome = run_scenario(&scenario);
        outcome.audit.assert_ok();
        assert_eq!(outcome.metrics.completed, 15);
        assert!(outcome.metrics.mean_alt_ms().unwrap() > 0.0);
        assert!(outcome.metrics.mean_att_ms().unwrap() >= outcome.metrics.mean_alt_ms().unwrap());
        assert_eq!(outcome.issued, 15);
        assert_eq!(outcome.client_write_ms.len(), 15);
        assert_eq!(outcome.acked_writes, 15);
        assert!(outcome.lost_acked_writes.is_empty());
        assert_eq!(outcome.retries, 0);
        assert_eq!(outcome.abandoned, 0);
    }

    #[test]
    fn client_retry_is_harmless_on_a_healthy_cluster() {
        let mut scenario = Scenario::paper(3, 40.0, 7);
        scenario.requests_per_client = 5;
        scenario.client_retry = Some((Duration::from_secs(2), 5));
        let outcome = run_scenario(&scenario);
        outcome.audit.assert_ok();
        assert_eq!(outcome.metrics.completed, 15);
        assert_eq!(outcome.acked_writes, 15);
        assert_eq!(outcome.abandoned, 0);
        assert!(outcome.lost_acked_writes.is_empty());
    }

    #[test]
    fn all_baselines_run_clean() {
        for protocol in [
            ProtocolKind::Mcv,
            ProtocolKind::AvailableCopy,
            ProtocolKind::WeightedVoting,
            ProtocolKind::PrimaryCopy,
        ] {
            let mut scenario = Scenario::paper(3, 40.0, 8).with_protocol(protocol.clone());
            scenario.requests_per_client = 4;
            let outcome = run_scenario(&scenario);
            outcome.audit.assert_ok();
            assert_eq!(
                outcome.metrics.completed,
                12,
                "protocol {} lost updates",
                protocol.label()
            );
        }
    }

    /// Also: every span a fault-free run opens, it closes, and it closes
    /// no span it did not open — so a kind whose `SpanEnd` is never
    /// emitted, or is emitted for the wrong identity, fails here. The
    /// last row serves fresh reads, for `SpanKind::Read`.
    #[test]
    fn every_protocol_opens_a_request_span_where_each_write_completes() {
        let mut fresh_reads = Scenario::paper(3, 40.0, 8);
        fresh_reads.write_fraction = 0.5;
        fresh_reads.fresh_reads = true;
        let mut rows = [
            ProtocolKind::marp(),
            ProtocolKind::Mcv,
            ProtocolKind::AvailableCopy,
            ProtocolKind::WeightedVoting,
            ProtocolKind::PrimaryCopy,
        ]
        .map(|protocol| Scenario::paper(3, 40.0, 8).with_protocol(protocol))
        .to_vec();
        rows.push(fresh_reads);
        let (mut uncovered, mut open, mut orphans, mut kinds) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for mut scenario in rows {
            scenario.requests_per_client = 3;
            let label = scenario.protocol.label();
            let (outcome, trace) = run_scenario_traced(&scenario);
            let answered = outcome.client_write_ms.len() + outcome.client_read_ms.len();
            assert_eq!(answered, 9, "{label}");
            assert_eq!(outcome.metrics.completed, outcome.acked_writes, "{label}");
            let spans = marp_obs::SpanSet::from_trace(&trace);
            let missing = spans.uncovered_writes(&trace);
            if !missing.is_empty() {
                uncovered.push((label, missing.len()));
            }
            open.extend(spans.incomplete().map(|s| (label, s.kind)));
            if spans.unmatched_ends > 0 {
                orphans.push((label, spans.unmatched_ends));
            }
            kinds.extend(spans.spans().iter().map(|s| s.kind));
        }
        assert_eq!(
            uncovered,
            [],
            "(protocol, writes with no request span at `home`)"
        );
        assert_eq!(open, [], "(protocol, kind of a span that never closed)");
        assert_eq!(orphans, [], "(protocol, ends of spans never opened)");
        assert!(kinds.contains(&marp_sim::SpanKind::Read), "no read span");
    }

    #[test]
    fn topology_extends_with_clients() {
        let scenario = Scenario::paper(3, 10.0, 1);
        let topo = scenario.build_topology();
        assert_eq!(topo.len(), 6);
        // Client 3 sits next to server 0.
        assert_eq!(topo.latency(3, 0), Duration::from_micros(100));
        // Client-to-client via their servers.
        assert!(topo.latency(3, 4) >= Duration::from_micros(200));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ProtocolKind::marp().label(), "MARP");
        assert_eq!(ProtocolKind::Mcv.label(), "MCV");
    }
}
