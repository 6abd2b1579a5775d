//! Cross-crate consistency fuzzing: MARP clusters across sizes, loads
//! and seeds — every run must complete all writes, stay totally
//! ordered, and respect the Theorem 3 visit bounds — and the MCV
//! baseline under the contention the paper's figures run it at.

use marp_lab::{run_scenario, run_sweep, ProtocolKind, Scenario};

#[test]
fn marp_is_consistent_across_sizes_and_loads() {
    let mut scenarios = Vec::new();
    for &n in &[3usize, 4, 5, 7] {
        for &mean_ms in &[6.0, 30.0, 90.0] {
            for &seed in &[11u64, 22] {
                let mut s = Scenario::paper(n, mean_ms, seed);
                s.requests_per_client = 8;
                scenarios.push(s);
            }
        }
    }
    let outcomes = run_sweep(&scenarios, None);
    for (scenario, outcome) in scenarios.iter().zip(&outcomes) {
        outcome.audit.assert_ok();
        let expected = (scenario.n_servers * 8) as u64;
        assert_eq!(
            outcome.metrics.completed,
            expected,
            "n={} mean={} seed={}: {} of {} completed",
            scenario.n_servers,
            scenario.mean_interarrival_ms,
            scenario.seed,
            outcome.metrics.completed,
            expected
        );
        // No duplicate completions without faults.
        assert_eq!(outcome.audit.duplicate_completions, 0);
    }
}

#[test]
fn heavy_contention_single_key_is_still_totally_ordered() {
    let mut s = Scenario::paper(5, 2.0, 77); // brutal: 2 ms mean arrivals
    s.requests_per_client = 20;
    let outcome = run_scenario(&s);
    outcome.audit.assert_ok();
    assert_eq!(outcome.metrics.completed, 100);
    assert_eq!(outcome.audit.committed_versions, 100);
}

#[test]
fn ties_actually_occur_and_resolve_on_even_clusters() {
    // Even cluster sizes need 3-of-4 tops, making stuck configurations
    // (2/2 splits) common; the tie rule must fire and stay safe.
    let mut tie_wins = 0;
    for seed in [1u64, 2, 3, 4, 5] {
        let mut s = Scenario::paper(4, 3.0, seed);
        s.requests_per_client = 15;
        let outcome = run_scenario(&s);
        outcome.audit.assert_ok();
        assert_eq!(outcome.metrics.completed, 60);
        tie_wins += outcome.audit.tie_grants;
    }
    assert!(
        tie_wins > 0,
        "expected at least one tie-rule win across five contended runs"
    );
}

#[test]
fn every_replica_converges_to_the_same_final_version() {
    let mut s = Scenario::paper(5, 10.0, 5);
    s.requests_per_client = 10;
    let outcome = run_scenario(&s);
    outcome.audit.assert_ok();
    // 5 clients × 10 writes = 50 versions; the audit already checked
    // that each version has a single owner and applications are dense
    // and in order at every node, so equality of counts implies full
    // convergence.
    assert_eq!(outcome.audit.committed_versions, 50);
}

#[test]
fn adaptive_batching_survives_bursts_and_coalesces() {
    let mut s = Scenario::paper(5, 10.0, 31);
    s.bursty = true;
    s.adaptive_batching = true;
    s.requests_per_client = 30;
    let outcome = run_scenario(&s);
    outcome.audit.assert_ok();
    assert_eq!(outcome.metrics.completed, 150);
    // Coalescing happened: strictly fewer agents than requests.
    assert!(
        outcome.metrics.agents < 150,
        "adaptive batching never coalesced ({} agents)",
        outcome.metrics.agents
    );
}

/// MCV at the paper's 25 ms mean with 400 writes per client: on these
/// seeds a replica voted with the version it had *applied*, below a
/// commit it held buffered behind a gap — whose `Apply` had already
/// released its promise — and a round whose majority paired it with a
/// replica lacking the newer version reused a taken version.
#[test]
fn mcv_never_commits_two_writes_at_one_version() {
    let scenarios: Vec<Scenario> = [5461, 24954, 25156, 5036, 5050, 5072, 5109]
        .into_iter()
        .map(|seed| {
            let mut s = Scenario::paper(5, 25.0, seed).with_protocol(ProtocolKind::Mcv);
            s.requests_per_client = 400;
            s
        })
        .collect();
    let outcomes = run_sweep(&scenarios, None);
    for (scenario, outcome) in scenarios.iter().zip(&outcomes) {
        assert!(
            outcome.audit.ok(),
            "seed {}: {:?}",
            scenario.seed,
            outcome.audit.violations
        );
        assert_eq!(
            outcome.acked_writes, outcome.issued,
            "seed {}: {} of {} writes acked",
            scenario.seed, outcome.acked_writes, outcome.issued
        );
    }
}
