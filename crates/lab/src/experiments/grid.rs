//! The twelve experiments that are one table of pooled sweep points:
//! rows of scenarios × [`PAPER_SEEDS`] → pooled metrics → cells.
//!
//! Each is a [`Grid`] — data — and [`Grid::run`] is the one runner: the
//! whole grid goes to a single [`run_sweep`], so the fan-out keeps every
//! core busy for the whole table instead of three seeds at a time, every
//! run is audited, and the `--trace-out` representative is one of the
//! table's own rows rather than a second spelling of it.

use super::marp;
use crate::{run_sweep, LinkKind, ProtocolKind, RunOutcome, Scenario, TopologyKind, PAPER_SEEDS};
use marp_agent::ItineraryPolicy;
use marp_metrics::{fmt_ms, fmt_pct, theorem3_visits, PaperMetrics, Samples, Table};
use marp_net::FaultPlan;
use marp_sim::SimTime;
use marp_workload::KeyDist;
use std::time::Duration;

/// The mean inter-arrival sweep of the paper's figures (ms).
const PAPER_SWEEP_MS: [f64; 9] = [5.0, 10.0, 15.0, 25.0, 35.0, 45.0, 60.0, 80.0, 100.0];

/// One table row.
struct Row {
    /// Its label cells.
    lead: Vec<String>,
    /// The configurations (seed ignored) measured in it, each run at
    /// every paper seed. They share the grid's columns evenly, in order:
    /// one point fills them all, the figures' three fill one each.
    points: Vec<Scenario>,
}

fn row(lead: Vec<String>, point: Scenario) -> Row {
    Row {
        lead,
        points: vec![point],
    }
}

/// One experiment as data.
pub(super) struct Grid {
    title: &'static str,
    /// Headers of the label cells.
    lead: &'static [&'static str],
    cells: Vec<Cell>,
    rows: Vec<Row>,
    /// Printed after the table; empty or newline-terminated.
    footer: String,
    /// Label cells of the row whose last point `--trace-out` records.
    traced: &'static [&'static str],
}

/// One point's runs at every paper seed, audited and pooled.
#[derive(Default)]
struct Pooled {
    metrics: PaperMetrics,
    messages: u64,
    bytes: u64,
    issued: u64,
    abandoned: u64,
    client_read_ms: Samples,
    client_write_ms: Samples,
}

impl Pooled {
    fn of(outcomes: &[RunOutcome]) -> Pooled {
        let mut pooled = Pooled::default();
        for outcome in outcomes {
            outcome.audit.assert_ok();
            pooled.metrics.merge(&outcome.metrics);
            pooled.messages += outcome.stats.messages_sent;
            pooled.bytes += outcome.stats.bytes_sent;
            pooled.issued += outcome.issued;
            pooled.abandoned += outcome.abandoned;
            pooled.client_read_ms.merge(&outcome.client_read_ms);
            pooled.client_write_ms.merge(&outcome.client_write_ms);
        }
        pooled
    }

    fn per_update(&self, total: u64) -> f64 {
        total as f64 / self.metrics.completed.max(1) as f64
    }
}

/// A column a pooled point can fill: its header and its value.
type Cell = (&'static str, fn(&mut Pooled) -> String);

const ALT: Cell = ("ALT (ms)", |p| fmt_ms(p.metrics.mean_alt_ms()));
const ATT: Cell = ("ATT (ms)", |p| fmt_ms(p.metrics.mean_att_ms()));
const ATT_P95: Cell = ("p95 ATT (ms)", |p| fmt_ms(p.metrics.att_ms.quantile(0.95)));
const MSGS: Cell = ("msgs/update", |p| {
    format!("{:.1}", p.per_update(p.messages))
});
const BYTES: Cell = ("bytes/update", |p| format!("{:.0}", p.per_update(p.bytes)));
const MIGRATIONS: Cell = ("migrations/agent", |p| {
    format!(
        "{:.2}",
        p.metrics.mean_migrations_per_agent().unwrap_or(0.0)
    )
});
const AGENTS: Cell = ("agents", |p| p.metrics.agents.to_string());
const ABORTED: Cell = ("aborted claims", |p| p.metrics.aborted_claims.to_string());
const MIN_VISITS: Cell = ("observed min", |p| {
    p.metrics.visits.keys().min().map_or(0, |&k| k).to_string()
});
const MAX_VISITS: Cell = ("observed max", |p| {
    p.metrics.visits.keys().max().map_or(0, |&k| k).to_string()
});
const MEAN_VISITS: Cell = ("mean visits", |p| {
    format!("{:.2}", p.metrics.mean_visits().unwrap_or(0.0))
});
const READ_P50: Cell = ("read p50 (ms)", |p| fmt_ms(p.client_read_ms.quantile(0.5)));
const READ_MEAN: Cell = ("read mean (ms)", |p| fmt_ms(p.client_read_ms.mean()));
const WRITE_MEAN: Cell = ("write mean (ms)", |p| fmt_ms(p.client_write_ms.mean()));
/// Every byte sent, over completed reads plus writes.
const BYTES_PER_OP: Cell = ("bytes/op", |p| {
    let ops = p.client_read_ms.len() + p.client_write_ms.len();
    format!("{:.0}", p.bytes as f64 / ops.max(1) as f64)
});
const ISSUED: Cell = ("issued", |p| p.issued.to_string());
const COMPLETED: Cell = ("completed", |p| p.metrics.completed.to_string());
const ABANDONED: Cell = ("abandoned", |p| p.abandoned.to_string());
const ARRIVED: Cell = ("arrived", |p| p.metrics.writes_arrived.to_string());
/// [`Pooled::of`] has asserted it.
const AUDIT: Cell = ("audit", |_| "clean".to_string());

impl Grid {
    /// Run every point at every paper seed in one sweep and render the
    /// table.
    pub(super) fn run(&self) -> String {
        let scenarios: Vec<Scenario> = self
            .rows
            .iter()
            .flat_map(|row| &row.points)
            .flat_map(|point| {
                PAPER_SEEDS.iter().map(move |&seed| Scenario {
                    seed,
                    ..point.clone()
                })
            })
            .collect();
        let outcomes = run_sweep(&scenarios, None);
        let mut pooled = outcomes.chunks(PAPER_SEEDS.len()).map(Pooled::of);
        let headers = self.lead.iter().copied();
        let headers: Vec<&str> = headers.chain(self.cells.iter().map(|c| c.0)).collect();
        let mut table = Table::new(self.title, &headers);
        for row in &self.rows {
            let mut line = row.lead.clone();
            for cells in self.cells.chunks(self.cells.len() / row.points.len()) {
                let mut point = pooled.next().expect("one chunk of runs per point");
                line.extend(cells.iter().map(|cell| (cell.1)(&mut point)));
            }
            table.row(line);
        }
        format!("{}\n{}", table.render(), self.footer)
    }

    /// The run `--trace-out` records: the traced row's
    /// last point at the first paper seed — one of the table's own runs.
    pub(super) fn representative(&self) -> Scenario {
        let row = self
            .rows
            .iter()
            .find(|row| row.lead == self.traced)
            .unwrap_or_else(|| panic!("{}: no row labelled {:?}", self.title, self.traced));
        Scenario {
            seed: PAPER_SEEDS[0],
            ..row.points.last().expect("a row has a point").clone()
        }
    }
}

/// The paper's configuration with another request count per client.
fn paper(n_servers: usize, mean_ms: f64, requests_per_client: u64) -> Scenario {
    Scenario {
        requests_per_client,
        ..Scenario::paper(n_servers, mean_ms, 0)
    }
}

/// Figures 2 and 3: the paper's sweep for N = 3, 4, 5, one cell each.
fn figure(title: &'static str, cell: Cell) -> Grid {
    Grid {
        title,
        lead: &["mean arrival (ms)"],
        cells: ["3 servers", "4 servers", "5 servers"]
            .map(|n| (n, cell.1))
            .to_vec(),
        rows: PAPER_SWEEP_MS
            .iter()
            .map(|&mean| Row {
                lead: vec![format!("{mean:.0}")],
                points: [3, 4, 5].map(|n| Scenario::paper(n, mean, 0)).to_vec(),
            })
            .collect(),
        footer: format!(
            "(each point pools {} seeds; audits clean)\n",
            PAPER_SEEDS.len()
        ),
        traced: &["25"],
    }
}

pub(super) fn fig2_alt() -> Grid {
    figure("Figure 2 — ALT (ms) vs mean inter-arrival time", ALT)
}

pub(super) fn fig3_att() -> Grid {
    figure("Figure 3 — ATT (ms) vs mean inter-arrival time", ATT)
}

pub(super) fn fig4_prk() -> Grid {
    Grid {
        title: "Figure 4 — PRK (%) for N = 5 servers",
        lead: &["mean arrival (ms)"],
        cells: vec![
            ("K=3", |p| fmt_pct(p.metrics.prk(3))),
            ("K=4", |p| fmt_pct(p.metrics.prk(4))),
            ("K=5", |p| fmt_pct(p.metrics.prk(5))),
        ],
        rows: PAPER_SWEEP_MS
            .iter()
            .map(|&mean| row(vec![format!("{mean:.0}")], Scenario::paper(5, mean, 0)))
            .collect(),
        footer: "(minimum possible K is (N+1)/2 = 3 — Theorem 3)\n".into(),
        traced: &["25"],
    }
}

/// The paper's §1 claim: mobile agents vs message passing as wide-area
/// latency grows. MARP, MCV and primary copy on a two-cluster WAN.
pub(super) fn e5_wan_comparison() -> Grid {
    let mut rows = Vec::new();
    for inter_ms in [10.0, 25.0, 50.0, 100.0, 200.0] {
        for protocol in [
            ProtocolKind::marp(),
            ProtocolKind::Mcv,
            ProtocolKind::PrimaryCopy,
        ] {
            let lead = vec![format!("{inter_ms:.0}"), protocol.label().to_string()];
            // Light load: the comparison is per-update latency and
            // message cost on long links, not queueing behaviour.
            let mut point = paper(6, 2000.0, 12).with_protocol(protocol);
            point.topology = TopologyKind::Wan {
                clusters: 2,
                intra_ms: 2.0,
                inter_ms,
            };
            point.link = LinkKind::Wan;
            rows.push(row(lead, point));
        }
    }
    Grid {
        title: "E5 — update latency and messages vs WAN latency (N = 6, 2 clusters)",
        lead: &["inter-cluster (ms)", "protocol"],
        cells: vec![ATT, MSGS, BYTES],
        rows,
        footer: String::new(),
        traced: &["50", "MARP"],
    }
}

/// Scalability: MARP as the replica count grows. The aggregate write
/// rate grows with n too (one client per server), so large clusters see
/// both longer journeys and more contention — the paper's wide-area
/// scaling concern.
pub(super) fn e6_scalability() -> Grid {
    Grid {
        title: "E6 — MARP vs replica count (mean arrival 60 ms per server)",
        lead: &["servers"],
        cells: vec![ALT, ATT, MSGS, MIGRATIONS],
        rows: [3, 5, 7, 9, 11]
            .map(|n| row(vec![n.to_string()], paper(n, 60.0, 15)))
            .into(),
        footer: String::new(),
        traced: &["7"],
    }
}

/// Behaviour under the paper's fault model: fail-stop crashes with
/// recovery and short transient outages. MARP keeps committing with a
/// majority alive and recovering replicas catch up; the primary-copy
/// baseline stalls when its primary dies.
pub(super) fn e7_faults() -> Grid {
    let faulted = |protocol: ProtocolKind, crash_node: u16| {
        let lead = vec![protocol.label().to_string(), crash_node.to_string()];
        // Moderate load: the experiment isolates fault behaviour, not
        // the contention backlog a crash leaves behind.
        let mut point = Scenario::paper(5, 100.0, 0);
        point.horizon = Some(Duration::from_secs(180));
        // Client retry rides on MARP's server-side request dedup; the
        // baselines have no dedup, so a resend would double-apply.
        if matches!(protocol, ProtocolKind::Marp { .. }) {
            point.client_retry = Some((Duration::from_secs(2), 8));
        }
        point.faults = Some(
            FaultPlan::new(5)
                .detect_delay(Duration::from_millis(100))
                // One long crash with recovery...
                .crash(crash_node, SimTime::from_secs(1), Duration::from_secs(20))
                // ...and a short transient outage elsewhere.
                .transient(
                    (crash_node + 1) % 5,
                    SimTime::from_secs(2),
                    Duration::from_millis(400),
                ),
        );
        row(lead, point.with_protocol(protocol))
    };
    Grid {
        title: "E7 — crash (20 s) + transient outage (0.4 s), N = 5",
        lead: &["protocol", "crashed node"],
        cells: vec![ISSUED, COMPLETED, ABANDONED, ARRIVED, ATT, AUDIT],
        rows: vec![
            faulted(ProtocolKind::marp(), 4),
            faulted(ProtocolKind::marp(), 0),
            faulted(ProtocolKind::Mcv, 4),
            faulted(ProtocolKind::AvailableCopy, 4),
            faulted(ProtocolKind::PrimaryCopy, 4),
            // Crash the primary itself: PC stalls, MARP does not.
            faulted(ProtocolKind::PrimaryCopy, 0),
        ],
        footer: "(requests accepted by a crashed-and-lost node are re-dispatched by its recovery;\n \
                 the horizon bounds how many stragglers finish in time;\n \
                 MARP rows run with client retry — a nonzero abandoned column would mean a client\n \
                 gave up loudly, never a silent loss)\n"
            .into(),
        traced: &["MARP", "4"],
    }
}

/// Theorem 3 validation: the winning agent's visit count always lies in
/// [`theorem3_visits`]; report the observed distribution.
pub(super) fn e8_theorem3() -> Grid {
    Grid {
        title: "E8 — winning-agent visit distribution (mean arrival 5 ms, heavy contention)",
        lead: &["servers", "bound [min,max]"],
        cells: vec![MIN_VISITS, MAX_VISITS, MEAN_VISITS],
        rows: [3usize, 5, 7]
            .map(|n| {
                let (min, max) = theorem3_visits(n).into_inner();
                let lead = vec![n.to_string(), format!("[{min}, {max}]")];
                row(lead, paper(n, 5.0, 30))
            })
            .into(),
        footer: "(the audit asserts every grant is inside the bound)\n".into(),
        traced: &["5", "[3, 5]"],
    }
}

/// Itinerary-policy ablation on a heterogeneous (Internet-like)
/// topology, at two load levels.
///
/// The paper's cost-sorted USL is a *journey-time* optimization: greedy
/// nearest-next tours are short, which dominates when agents rarely
/// contend. Under contention it backfires — agents from different homes
/// visit servers in different orders (locally-greedy lock ordering), so
/// they block each other more than a fixed global ring order would.
pub(super) fn e9_itinerary() -> Grid {
    let mut rows = Vec::new();
    for (load, mean_ms) in [("light (3 s)", 3000.0), ("heavy (0.1 s)", 100.0)] {
        for (label, policy) in [
            ("cost-sorted (paper)", ItineraryPolicy::CostSorted),
            ("fixed ring", ItineraryPolicy::FixedOrder),
            ("random", ItineraryPolicy::Random { seed: 99 }),
        ] {
            let mut point = paper(5, mean_ms, 12).with_protocol(marp(true, policy, 1));
            point.topology = TopologyKind::Geo {
                side_ms: 60.0,
                floor_ms: 3.0,
            };
            point.link = LinkKind::Wan;
            rows.push(row(vec![load.to_string(), label.to_string()], point));
        }
    }
    Grid {
        title: "E9 — itinerary policy on a random-geometric WAN (N = 5)",
        lead: &["load", "policy"],
        cells: vec![ALT, ATT],
        rows,
        footer: "At light load the greedy cost-sorted tour minimizes journey time (the\n\
                 paper's rationale); under contention a fixed global visiting order\n\
                 wins because agents stop blocking each other in opposite orders.\n"
            .into(),
        traced: &["heavy (0.1 s)", "cost-sorted (paper)"],
    }
}

/// Information-sharing ablation: the paper's §3.3 gossip boards on vs
/// off, across contention levels.
pub(super) fn e10_gossip() -> Grid {
    let mut rows = Vec::new();
    for mean in [5.0, 15.0, 45.0] {
        for (label, gossip) in [("on", true), ("off", false)] {
            let protocol = marp(gossip, ItineraryPolicy::CostSorted, 1);
            let point = Scenario::paper(5, mean, 0).with_protocol(protocol);
            rows.push(row(vec![format!("{mean:.0}"), label.to_string()], point));
        }
    }
    Grid {
        title: "E10 — gossip boards on/off (N = 5)",
        lead: &["mean arrival (ms)", "gossip"],
        cells: vec![ALT, ABORTED, MEAN_VISITS],
        rows,
        footer: String::new(),
        traced: &["15", "on"],
    }
}

/// Request batching ablation: agents per dispatch vs per-request
/// latency and message cost.
pub(super) fn e11_batching() -> Grid {
    Grid {
        title: "E11 — batch size (N = 5, mean arrival 5 ms)",
        lead: &["batch"],
        cells: vec![AGENTS, ATT, MSGS],
        rows: [1, 2, 4, 8, 16]
            .map(|batch_max| {
                let protocol = marp(true, ItineraryPolicy::CostSorted, batch_max);
                let point = paper(5, 5.0, 48).with_protocol(protocol);
                row(vec![batch_max.to_string()], point)
            })
            .into(),
        footer: String::new(),
        traced: &["4"],
    }
}

/// The paper's §5 argument: MARP's read-one rule makes reads cheap for
/// read-dominated workloads, versus quorum reads under weighted voting.
pub(super) fn e13_read_mix() -> Grid {
    let mut rows = Vec::new();
    for write_fraction in [0.01, 0.05, 0.2, 0.5] {
        for (label, fresh, protocol) in [
            ("MARP", false, ProtocolKind::marp()),
            ("MARP (fresh)", true, ProtocolKind::marp()),
            ("WV", false, ProtocolKind::WeightedVoting),
        ] {
            let mut point = paper(5, 20.0, 60).with_protocol(protocol);
            point.write_fraction = write_fraction;
            point.fresh_reads = fresh;
            point.keys = KeyDist::Uniform { keys: 16 };
            let lead = vec![format!("{write_fraction:.2}"), label.to_string()];
            rows.push(row(lead, point));
        }
    }
    Grid {
        title: "E13 — read/write mixes (N = 5, mean arrival 20 ms)",
        lead: &["write fraction", "protocol"],
        cells: vec![READ_P50, READ_MEAN, WRITE_MEAN, BYTES_PER_OP],
        rows,
        footer: String::new(),
        traced: &["0.20", "MARP (fresh)"],
    }
}

/// Adaptive batching under bursty arrivals (the §5 "flexible and
/// adaptive replication scheme" hint).
///
/// A bursty (two-state MMPP) workload alternates calm periods with
/// dense bursts. A fixed batch of 1 drowns in per-request agents during
/// bursts; a fixed large batch adds needless latency in calm periods;
/// the adaptive node watches its commit backlog and coalesces only when
/// it helps.
pub(super) fn e14_adaptive() -> Grid {
    let arm = |label: &str, batch_max, adaptive| {
        let protocol = marp(true, ItineraryPolicy::CostSorted, batch_max);
        let mut point = paper(5, 12.0, 60).with_protocol(protocol);
        point.bursty = true;
        point.adaptive_batching = adaptive;
        row(vec![label.to_string()], point)
    };
    Grid {
        title: "E14 — bursty arrivals (N = 5, MMPP around 12 ms mean)",
        lead: &["batching"],
        cells: vec![ATT, ATT_P95, AGENTS, MSGS],
        rows: vec![
            arm("fixed 1", 1, false),
            arm("fixed 8", 8, false),
            arm("adaptive", 1, true),
        ],
        footer: String::new(),
        traced: &["adaptive"],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_grid_has_its_traced_row_and_shares_its_columns_evenly() {
        for grid in [
            fig2_alt(),
            fig3_att(),
            fig4_prk(),
            e5_wan_comparison(),
            e6_scalability(),
            e7_faults(),
            e8_theorem3(),
            e9_itinerary(),
            e10_gossip(),
            e11_batching(),
            e13_read_mix(),
            e14_adaptive(),
        ] {
            assert_eq!(grid.representative().seed, PAPER_SEEDS[0]);
            for row in &grid.rows {
                assert_eq!(row.lead.len(), grid.lead.len(), "{}", grid.title);
                assert_eq!(grid.cells.len() % row.points.len(), 0, "{}", grid.title);
            }
        }
    }

    #[test]
    fn a_row_with_several_points_gives_each_its_share_of_the_columns() {
        let mut small = paper(3, 30.0, 3);
        small.seed = 9;
        let grid = Grid {
            title: "t",
            lead: &["x"],
            cells: vec![("a", COMPLETED.1), ("b", ISSUED.1)],
            rows: vec![Row {
                lead: vec!["r".into()],
                points: vec![small.clone(), paper(3, 30.0, 2)],
            }],
            footer: "done\n".into(),
            traced: &["r"],
        };
        // 3 servers x 3 requests x 3 seeds, then 3 x 2 x 3 issued.
        let expected = "## t\n  x   a   b\n  -  --  --\n  r  27  18\n\ndone\n";
        assert_eq!(grid.run(), expected);
        assert_eq!(grid.representative().requests_per_client, 2);
    }
}
