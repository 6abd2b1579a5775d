//! Consistent reads via read agents — the §5 "generic method" extension.
//!
//! MARP's plain reads are local and may lag the latest commit; the
//! `ReadFresh` operation dispatches a *read agent* that travels a
//! majority of replicas and returns the freshest value, giving clients a
//! per-operation choice between latency and freshness. This example
//! measures all three access paths side by side on one cluster.
//!
//! Run with: `cargo run --release --example consistent_reads`

use marp_lab::{run_scenario, ProtocolKind, Scenario};
use marp_metrics::{fmt_ms, Table};
use marp_workload::KeyDist;

fn main() {
    let mut table = Table::new(
        "Read paths on a 5-replica LAN (10% writes)",
        &[
            "access path",
            "read p50 (ms)",
            "read mean (ms)",
            "guarantee",
        ],
    );
    for (label, fresh, guarantee) in [
        ("local read (paper)", false, "may lag in-flight commits"),
        ("read agent (majority)", true, "sees every completed write"),
    ] {
        let mut scenario = Scenario::paper(5, 25.0, 7).with_protocol(ProtocolKind::marp());
        scenario.write_fraction = 0.10;
        scenario.fresh_reads = fresh;
        scenario.keys = KeyDist::Uniform { keys: 8 };
        scenario.requests_per_client = 60;
        let outcome = run_scenario(&scenario);
        outcome.audit.assert_ok();
        let mut reads = outcome.client_read_ms.clone();
        table.row(vec![
            label.to_string(),
            fmt_ms(reads.quantile(0.5)),
            fmt_ms(reads.mean()),
            guarantee.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "The read agent pays ~ceil((N+1)/2) migrations instead of one local\n\
         lookup; both paths run on the same agent runtime — the protocol is\n\
         the agent's behaviour, exactly the genericity the paper claims."
    );
}

#[test]
fn runs() {
    main();
}
