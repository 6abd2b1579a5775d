//! The two-key × two-agent schedule families.
//!
//! The keyed store gives every object key its own dense version chain
//! and its own FIFO lock queue, so two writers fall into one of two
//! regimes the checker must cover separately:
//!
//! * **conflicting** (the default [`ModelSpec`]): both writers target
//!   key 1 and race for one lock queue — the Theorem 1–3 adversarial
//!   case, now audited per key.
//! * **disjoint** ([`ModelSpec::distinct_keys`]): writer `k` targets
//!   key `k + 1`; the agents must never interfere, and each key's
//!   chain must stay dense on its own.
//!
//! Both families replay through the canonical drain and through the
//! crash-driven agent-loss schedule, and the schedule text format
//! round-trips the key regime (omitted when off, so the existing
//! corpus stays byte-identical).

use marp_mcheck::{agent_loss_schedule, from_text, replay, to_text, Chaos, Family, ModelSpec};

fn two_key_spec(distinct: bool) -> ModelSpec {
    let mut spec = ModelSpec::new(Family::Marp, 3, 2);
    spec.distinct_keys = distinct;
    spec
}

#[test]
fn conflicting_family_commits_both_writes_cleanly() {
    let spec = two_key_spec(false);
    let outcome = replay(&spec, &[]);
    assert_eq!(outcome.completed, 2, "both writes must commit");
    assert!(
        outcome.all_violations().is_empty(),
        "conflicting writers broke an invariant: {:?}",
        outcome.all_violations()
    );
}

#[test]
fn disjoint_family_commits_both_writes_cleanly() {
    let spec = two_key_spec(true);
    let outcome = replay(&spec, &[]);
    assert_eq!(outcome.completed, 2, "both writes must commit");
    assert!(
        outcome.all_violations().is_empty(),
        "disjoint-key writers broke an invariant: {:?}",
        outcome.all_violations()
    );
}

/// Agent-loss needs a victim that is on the migration path but is no
/// writer's home: crashing a writer's home destroys its dispatch
/// registry along with the resident agent, and [`OneShotWriter`]
/// deliberately never retries (real clients do — see the PR-6 crash
/// harness), so the write would be stranded for reasons the two-key
/// family is not about. With 5 replicas the majority is 3 visits, so
/// agents homed at 0 and 1 both migrate through node 2, which hosts
/// nobody's registry.
fn agent_loss_spec(distinct: bool) -> ModelSpec {
    let mut spec = ModelSpec::new(Family::Marp, 5, 2);
    spec.distinct_keys = distinct;
    spec
}

#[test]
fn disjoint_family_survives_agent_loss_with_regeneration() {
    // Crash a replica while an agent is resident there. The agent dies
    // with the host; regeneration must still land both writes, each on
    // its own key's chain.
    let spec = agent_loss_spec(true);
    let schedule = agent_loss_schedule(&spec, 2);
    let outcome = replay(&spec, &schedule);
    assert_eq!(outcome.completed, 2, "a write died with its agent");
    assert!(
        outcome.all_violations().is_empty(),
        "regeneration broke a per-key invariant: {:?}",
        outcome.all_violations()
    );
}

#[test]
fn conflicting_family_survives_agent_loss_with_regeneration() {
    let spec = agent_loss_spec(false);
    let schedule = agent_loss_schedule(&spec, 2);
    let outcome = replay(&spec, &schedule);
    assert_eq!(outcome.completed, 2, "a write died with its agent");
    assert!(
        outcome.all_violations().is_empty(),
        "regeneration broke an invariant: {:?}",
        outcome.all_violations()
    );
}

#[test]
fn distinct_keys_header_roundtrips_and_defaults_off() {
    let disjoint = two_key_spec(true);
    let text = to_text(&disjoint, &[], "two-key family");
    assert!(text.contains("distinct-keys 1"));
    let (parsed, _) = from_text(&text).expect("parses");
    assert!(parsed.distinct_keys);

    // The conflicting default omits the header line entirely, so every
    // schedule in the existing corpus parses to the same spec it always
    // did and re-renders byte-identically.
    let conflicting = two_key_spec(false);
    let text = to_text(&conflicting, &[], "two-key family");
    assert!(!text.contains("distinct-keys"));
    let (parsed, _) = from_text(&text).expect("parses");
    assert!(!parsed.distinct_keys);
}

#[test]
fn corpus_schedules_still_replay_clean() {
    // The checked-in regression corpus predates the keyed store; its
    // schedules must parse (no headers lost), replay, and stay clean —
    // except the seeded-bug counterexample, which must still violate.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/schedules");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("corpus dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("read schedule");
        let (spec, steps) = from_text(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let outcome = replay(&spec, &steps);
        if spec.chaos != Chaos::None {
            assert!(outcome.violates(&[]), "{name}: seeded bug no longer caught");
        } else {
            assert!(
                outcome.all_violations().is_empty(),
                "{name}: {:?}",
                outcome.all_violations()
            );
            assert_eq!(outcome.completed, spec.agents, "{name}");
        }
        seen += 1;
    }
    assert!(seen >= 4, "corpus shrank: only {seen} schedules found");
}
