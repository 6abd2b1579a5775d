//! The six workloads: what each one is, why it is there, and how many
//! seeds one pass pools.
//!
//! Every workload is an open loop: one `ClientProcess` per server issues
//! requests at exponentially distributed intervals whatever the cluster
//! answers, under the `Lan1990s` link model (1 ms one-way between
//! servers, 0.1 ms client links) — the injected delay is part of each
//! definition. Latency is client-observed, issue to acknowledgement, in
//! virtual time.

use marp_lab::{ProtocolKind, Scenario};
use marp_net::FaultPlan;
use marp_sim::SimTime;
use marp_workload::KeyDist;
use std::time::Duration;

/// One benchmark workload.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
    /// Seeds pooled per pass: as many as make the virtual-clock metrics
    /// steady from one `--seed` to the next within the run's time.
    pub seeds: u64,
    /// No fault is injected, so every issued write must complete.
    pub fault_free: bool,
    build: fn(u64) -> Scenario,
}

impl Workload {
    /// The scenario for one seed.
    pub fn scenario(&self, seed: u64) -> Scenario {
        (self.build)(seed)
    }

    /// The seeds one pass runs for `--seed base`: `base, base+101, …`
    /// (the stride of the repo's `PAPER_SEEDS`).
    pub fn pass_seeds(&self, base: u64) -> impl Iterator<Item = u64> {
        (0..self.seeds).map(move |i| base.wrapping_add(101 * i))
    }
}

fn paper_n5(seed: u64) -> Scenario {
    Scenario::paper(5, 25.0, seed)
}

fn cliff_n9(seed: u64) -> Scenario {
    let mut s = Scenario::paper(9, 10.0, seed);
    s.requests_per_client = 6;
    s
}

fn keys16_n5(seed: u64) -> Scenario {
    let mut s = Scenario::paper(5, 10.0, seed);
    s.requests_per_client = 200;
    s.keys = KeyDist::Uniform { keys: 16 };
    s
}

fn readmix_n5(seed: u64) -> Scenario {
    let mut s = Scenario::paper(5, 5.0, seed);
    s.requests_per_client = 1000;
    s.keys = KeyDist::Uniform { keys: 16 };
    s.write_fraction = 0.1;
    s.fresh_reads = true;
    s
}

fn mcv_n5(seed: u64) -> Scenario {
    let mut s = Scenario::paper(5, 400.0, seed).with_protocol(ProtocolKind::Mcv);
    s.requests_per_client = 400;
    s
}

/// Servers are nodes 0–4 and client `k` is node `5 + k`, attached to
/// server `k`; the links of clients 0 and 2 go down, both directions.
fn clientcut_n5(seed: u64) -> Scenario {
    let at = SimTime::from_millis(500);
    let cut = Duration::from_secs(2);
    let mut plan = FaultPlan::new(10);
    for (client, server) in [(5, 0), (7, 2)] {
        plan = plan
            .link_outage(client, server, at, cut)
            .link_outage(server, client, at, cut);
    }
    let mut s = Scenario::paper(5, 200.0, seed);
    s.faults = Some(plan);
    s.client_retry = Some((Duration::from_secs(2), 8));
    s
}

/// All workloads, in report order.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "paper_n5",
        why: "The paper's headline point (5 replicas, one key, 200 writes/s offered against ~100 sustainable): the lock convoy; core LlInfo mail does most of the work.",
        seeds: 32,
        fault_free: true,
        build: paper_n5,
    },
    Workload {
        name: "cliff_n9",
        why: "ROADMAP item 1's cliff: 9 replicas draining a burst on one key, hundreds of KB and messages per commit; the workload a mail-shrinking or convoy fix must move.",
        seeds: 12,
        fault_free: true,
        build: cliff_n9,
    },
    Workload {
        name: "keys16_n5",
        why: "Same layers, almost no contention (16 uniform keys): agent hops, per-key replica structures and client intake dominate; a convoy fix should not move it.",
        seeds: 10,
        fault_free: true,
        build: keys16_n5,
    },
    Workload {
        name: "readmix_n5",
        why: "90% fresh reads beside 10% writes over 16 keys: read agents and local store reads; a write-path gain that taxes reads shows here.",
        seeds: 16,
        fault_free: true,
        build: readmix_n5,
    },
    Workload {
        name: "mcv_n5",
        why: "Control: the message-passing baseline bypasses core and agent, so core changes predict no change and sim/net/wire gains show undiluted.",
        seeds: 32,
        fault_free: true,
        build: mcv_n5,
    },
    Workload {
        name: "clientcut_n5",
        why: "Fault path on a schedule: two clients lose their server link for 2 s while arrivals continue; drops, client resend and server dedup; p95 is the time without service.",
        seeds: 64,
        fault_free: false,
        build: clientcut_n5,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
