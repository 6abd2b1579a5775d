//! Whole-trace byte identity: an FNV-1a 64 digest of
//! `marp_obs::encode_trace` for a few recorded runs, one per path a
//! refactor is most likely to disturb — a MARP convoy, the MCV
//! baseline, keyed fresh reads beside writes, and clients cut off and
//! resending. `results --check` compares tables and sweeps, which do
//! not see span or custom records; this compares every record.
//!
//! A change meant to leave traces alone must leave every digest alone.
//! A deliberate change to a trace: run the test and paste the lines
//! its failure prints.

use marp_lab::{run_scenario_traced, ProtocolKind, Scenario};
use marp_net::FaultPlan;
use marp_sim::SimTime;
use marp_workload::KeyDist;
use std::time::Duration;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn marp_convoy() -> Scenario {
    Scenario::paper(5, 200.0, 101)
}

fn mcv() -> Scenario {
    Scenario::paper(5, 200.0, 101).with_protocol(ProtocolKind::Mcv)
}

fn keyed_fresh_reads() -> Scenario {
    let mut s = Scenario::paper(5, 20.0, 101);
    s.requests_per_client = 30;
    s.keys = KeyDist::Uniform { keys: 16 };
    s.write_fraction = 0.5;
    s.fresh_reads = true;
    s
}

/// Servers are nodes 0–4 and client `k` is node `5 + k`: the links of
/// clients 0 and 2 go down, both directions, while they keep writing.
fn client_cut() -> Scenario {
    let (at, cut) = (SimTime::from_millis(500), Duration::from_secs(2));
    let mut plan = FaultPlan::new(10);
    for (client, server) in [(5, 0), (7, 2)] {
        plan = plan
            .link_outage(client, server, at, cut)
            .link_outage(server, client, at, cut);
    }
    let mut s = Scenario::paper(5, 200.0, 101);
    s.requests_per_client = 20;
    s.faults = Some(plan);
    s.client_retry = Some((Duration::from_secs(2), 8));
    s
}

/// A recorded run and the digest its trace is pinned to.
struct Row {
    name: &'static str,
    scenario: fn() -> Scenario,
    digest: u64,
}

const ROWS: [Row; 4] = [
    Row {
        name: "marp_convoy",
        scenario: marp_convoy,
        digest: 0xfa9cd680acfbecb2,
    },
    Row {
        name: "mcv",
        scenario: mcv,
        digest: 0x9eeaaf08e6aefd00,
    },
    Row {
        name: "keyed_fresh_reads",
        scenario: keyed_fresh_reads,
        digest: 0x2f35a6f6c09b72a3,
    },
    Row {
        name: "client_cut",
        scenario: client_cut,
        digest: 0x3abe0c3b91f73b11,
    },
];

#[test]
fn recorded_traces_keep_their_digests() {
    let mut drifted = Vec::new();
    for row in ROWS {
        let (outcome, trace) = run_scenario_traced(&(row.scenario)());
        let name = row.name;
        assert!(outcome.audit.violations.is_empty(), "{name}: audit");
        let digest = fnv1a64(&marp_obs::encode_trace(&trace));
        if digest != row.digest {
            drifted.push(format!(
                "    Row {{ name: \"{name}\", scenario: {name}, digest: {digest:#018x} }},"
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "trace digests moved; if intended, paste into ROWS:\n{}",
        drifted.join("\n")
    );
}
