//! Internet-scale replication: the deployment the paper motivates.
//!
//! Six replicas spread across two continents (a clustered WAN), serving
//! a read-dominated workload — the scenario where MARP's local reads
//! and travelling-agent updates are designed to shine. The example
//! contrasts MARP with message-passing majority consensus voting on the
//! identical topology and workload.
//!
//! Run with: `cargo run --release --example internet_replicas`

use marp_lab::{run_scenario, LinkKind, ProtocolKind, Scenario, TopologyKind};
use marp_metrics::{fmt_ms, Table};
use marp_workload::KeyDist;

fn scenario(protocol: ProtocolKind) -> Scenario {
    let mut s = Scenario::paper(6, 25.0, 2026).with_protocol(protocol);
    s.topology = TopologyKind::Wan {
        clusters: 2,
        intra_ms: 2.0,
        inter_ms: 70.0, // transatlantic
    };
    s.link = LinkKind::Wan;
    s.write_fraction = 0.10; // read-dominated, as the paper assumes
    s.keys = KeyDist::Zipf { keys: 64, s: 0.9 };
    s.requests_per_client = 80;
    s
}

fn main() {
    let mut table = Table::new(
        "Two-continent deployment, 90% reads (N = 6)",
        &[
            "protocol",
            "read mean (ms)",
            "write mean (ms)",
            "updates",
            "msgs total",
        ],
    );
    for protocol in [ProtocolKind::marp(), ProtocolKind::Mcv] {
        let label = protocol.label();
        let outcome = run_scenario(&scenario(protocol));
        outcome.audit.assert_ok();
        table.row(vec![
            label.to_string(),
            fmt_ms(outcome.client_read_ms.clone().mean()),
            fmt_ms(outcome.client_write_ms.clone().mean()),
            outcome.metrics.completed.to_string(),
            outcome.stats.messages_sent.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reads are served by the nearby replica in both protocols (read-one);\n\
         updates pay the ocean crossing — the agent carries the conversation\n\
         across once per server instead of running multi-round message\n\
         exchanges over the long links."
    );
}

#[test]
fn runs() {
    main();
}
