//! Every consistent protocol must agree on *what* was committed, even
//! if they serialize concurrent writes differently: the set of applied
//! requests equals the set of issued requests, and each protocol's
//! replicas agree among themselves.

use marp_lab::{run_scenario, ProtocolKind, Scenario};

fn base(protocol: ProtocolKind) -> Scenario {
    let mut s = Scenario::paper(5, 25.0, 404).with_protocol(protocol);
    s.requests_per_client = 10;
    s
}

#[test]
fn all_protocols_complete_the_same_request_set() {
    let expected = 50u64;
    for protocol in [
        ProtocolKind::marp(),
        ProtocolKind::Mcv,
        ProtocolKind::AvailableCopy,
        ProtocolKind::WeightedVoting,
        ProtocolKind::PrimaryCopy,
    ] {
        let label = protocol.label();
        let outcome = run_scenario(&base(protocol));
        outcome.audit.assert_ok();
        assert_eq!(
            outcome.metrics.completed, expected,
            "{label}: completed {} of {expected}",
            outcome.metrics.completed
        );
        assert_eq!(outcome.metrics.incomplete(), 0, "{label}: lost requests");
    }
}

#[test]
fn consistent_protocols_commit_exactly_one_version_per_request() {
    for protocol in [
        ProtocolKind::marp(),
        ProtocolKind::Mcv,
        ProtocolKind::PrimaryCopy,
    ] {
        let label = protocol.label();
        let outcome = run_scenario(&base(protocol));
        outcome.audit.assert_ok();
        assert_eq!(
            outcome.audit.committed_versions, 50,
            "{label}: {} versions for 50 requests",
            outcome.audit.committed_versions
        );
    }
}

#[test]
fn message_cost_ranking_is_stable() {
    // A qualitative shape check (not absolute numbers): the optimistic
    // write-all protocol uses fewer messages per update than the
    // quorum-based ones, and the consistent protocols all terminate.
    let mut costs = Vec::new();
    for protocol in [
        ProtocolKind::AvailableCopy,
        ProtocolKind::Mcv,
        ProtocolKind::marp(),
    ] {
        let label = protocol.label();
        let outcome = run_scenario(&base(protocol));
        costs.push((
            label,
            outcome.stats.messages_sent as f64 / outcome.metrics.completed.max(1) as f64,
        ));
    }
    let ac = costs[0].1;
    let mcv = costs[1].1;
    let marp = costs[2].1;
    assert!(ac < mcv, "AC ({ac:.1}) should undercut MCV ({mcv:.1})");
    assert!(ac < marp, "AC ({ac:.1}) should undercut MARP ({marp:.1})");
}
