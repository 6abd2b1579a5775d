//! Protocol shoot-out: MARP vs every message-passing baseline on the
//! identical cluster and workload.
//!
//! Five replicas, one write-heavy client per server, a 1990s LAN — the
//! paper's prototype environment. For each protocol the example reports
//! update latency, message and byte cost per update, and whether the
//! consistency audit passed.
//!
//! Run with: `cargo run --release --example protocol_comparison`

use marp_lab::{run_scenario, ProtocolKind, Scenario};
use marp_metrics::{fmt_ms, Table};

fn main() {
    let protocols = [
        ProtocolKind::marp(),
        ProtocolKind::Mcv,
        ProtocolKind::AvailableCopy,
        ProtocolKind::WeightedVoting,
        ProtocolKind::PrimaryCopy,
    ];
    let mut table = Table::new(
        "Five protocols, same cluster (N = 5, mean arrival 20 ms, write-only)",
        &[
            "protocol",
            "ATT (ms)",
            "updates",
            "msgs/update",
            "bytes/update",
            "audit",
        ],
    );
    for protocol in protocols {
        let label = protocol.label();
        let mut scenario = Scenario::paper(5, 20.0, 99).with_protocol(protocol);
        scenario.requests_per_client = 30;
        let outcome = run_scenario(&scenario);
        let completed = outcome.metrics.completed.max(1);
        table.row(vec![
            label.to_string(),
            fmt_ms(outcome.metrics.mean_att_ms()),
            outcome.metrics.completed.to_string(),
            format!(
                "{:.1}",
                outcome.stats.messages_sent as f64 / completed as f64
            ),
            format!("{:.0}", outcome.stats.bytes_sent as f64 / completed as f64),
            if outcome.audit.ok() {
                "clean"
            } else {
                "VIOLATED"
            }
            .to_string(),
        ]);
        outcome.audit.assert_ok();
    }
    println!("{}", table.render());
    println!(
        "Notes: AC is cheapest but only eventually consistent (LWW) and\n\
         partition-unsafe; PC is cheap but stalls if the primary dies;\n\
         MARP and MCV both guarantee one globally ordered update stream —\n\
         MARP pays migrations instead of vote rounds."
    );
}

#[test]
fn runs() {
    main();
}
