//! Golden-file and determinism tests for the marp-prof aggregator on a
//! small 3-replica MARP scenario.
//!
//! The simulation is deterministic and the profile folds into sorted
//! maps with fixed-precision rendering, so every output form (table,
//! collapsed stacks, JSON, diff) is byte-stable. If a deliberate
//! protocol or profiler change shifts the output, regenerate with:
//!
//! ```text
//! BLESS=1 cargo test -p marp-lab --test profile_golden
//! ```

use marp_lab::{run_scenario_traced, Scenario};
use marp_obs::{
    CriticalPathReport, Diagnosis, Journeys, Json, MetricsRegistry, Profile, ProfileDiff,
    SweepDiff, SweepReport,
};
use marp_sim::TraceLog;
use marp_workload::KeyDist;
use std::path::PathBuf;

fn small_run(seed: u64) -> TraceLog {
    let mut scenario = Scenario::paper(3, 40.0, seed);
    scenario.requests_per_client = 2;
    run_scenario_traced(&scenario).1
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}"))
}

fn check_golden(name: &str, produced: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, produced).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with BLESS=1 to create it");
    assert_eq!(
        produced, golden,
        "{name} drifted from the golden file; if intentional, re-bless with BLESS=1"
    );
}

#[test]
fn collapsed_stacks_match_golden_file() {
    let profile = Profile::from_trace(&small_run(7));
    check_golden("profile_3replica.collapsed.txt", &profile.collapsed());
}

#[test]
fn profile_json_matches_golden_file() {
    let profile = Profile::from_trace(&small_run(7));
    check_golden("profile_3replica.json", &profile.to_json().render());
}

#[test]
fn diff_output_matches_golden_file() {
    // Same scenario at two seeds: a realistic "two runs of the same
    // workload" diff with small share movements.
    let before = Profile::from_trace(&small_run(7));
    let after = Profile::from_trace(&small_run(8));
    let diff = ProfileDiff::between(&before, &after);
    check_golden("profile_3replica.diff.json", &diff.to_json().render());
}

#[test]
fn text_reports_match_golden_files() {
    let trace = small_run(7);
    check_golden(
        "critical_3replica.txt",
        &CriticalPathReport::from_trace(&trace).render(),
    );
    check_golden(
        "profile_3replica.txt",
        &Profile::from_trace(&trace).render(),
    );
    check_golden(
        "metrics_3replica.csv",
        &MetricsRegistry::from_trace(&trace).to_csv(),
    );
    check_golden(
        "journey_3replica.txt",
        &Journeys::from_trace(&trace).render(),
    );
}

#[test]
fn read_agents_never_drive_the_live_agent_gauge_negative() {
    let mut scenario = Scenario::paper(5, 20.0, 101);
    scenario.requests_per_client = 30;
    scenario.keys = KeyDist::Uniform { keys: 16 };
    scenario.write_fraction = 0.5;
    scenario.fresh_reads = true;
    let registry = MetricsRegistry::from_trace(&run_scenario_traced(&scenario).1);
    let live = registry.samples.iter().map(|s| s.live_agents);
    assert_eq!(live.min(), Some(0), "{} samples", registry.samples.len());
}

fn recorded_sweep(name: &str) -> SweepReport {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    let text = std::fs::read_to_string(path).unwrap();
    SweepReport::from_json(&Json::parse(&text).unwrap()).unwrap()
}

#[test]
fn sweep_diff_of_the_recorded_sweeps_matches_golden_files() {
    let diff = SweepDiff::between(
        &recorded_sweep("sweep_smoke.json"),
        &recorded_sweep("sweep_n3_n5_n9.json"),
    );
    check_golden("sweep_diff_smoke_n3_n5_n9.txt", &diff.render());
    check_golden("sweep_diff_smoke_n3_n5_n9.json", &diff.to_json().render());
}

/// What `marp-trace diagnose results/sweep_n3_n5_n9.json` prints (the
/// table, then the findings) and the JSON it writes beside it.
#[test]
fn diagnosis_of_the_recorded_sweep_matches_golden_files() {
    let report = recorded_sweep("sweep_n3_n5_n9.json");
    let diagnosis = Diagnosis::from_sweep(&report);
    check_golden(
        "diagnose_sweep_n3_n5_n9.txt",
        &(report.render() + &diagnosis.render()),
    );
    check_golden(
        "diagnosis_sweep_n3_n5_n9.json",
        &diagnosis.to_json().render(),
    );
}

#[test]
fn same_trace_profiles_byte_identically_twice() {
    let trace = small_run(7);
    let a = Profile::from_trace(&trace);
    let b = Profile::from_trace(&trace);
    assert_eq!(a.render(), b.render());
    assert_eq!(a.collapsed(), b.collapsed());
    assert_eq!(a.to_json().render(), b.to_json().render());
    let diff_ab = ProfileDiff::between(&a, &b);
    let diff_ba = ProfileDiff::between(&b, &a);
    assert_eq!(diff_ab.to_json().render(), diff_ba.to_json().render());
}

/// docs/OBSERVABILITY.md shows what the tools print by quoting these
/// goldens: every line of its `text` blocks is a line of some golden
/// file here, or `...` where a quote is cut.
#[test]
fn observability_md_quotes_only_golden_lines() {
    let dir = golden_path("");
    let mut golden_lines = std::collections::HashSet::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        golden_lines.extend(text.lines().map(String::from));
    }
    let doc = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/OBSERVABILITY.md");
    let doc = std::fs::read_to_string(doc).unwrap();
    let (mut in_text, mut quoted, mut strays) = (false, 0, Vec::new());
    for (number, line) in doc.lines().enumerate() {
        if in_text && line.starts_with("```") {
            in_text = false;
        } else if in_text {
            quoted += 1;
            if line != "..." && !golden_lines.contains(line) {
                strays.push(format!("docs/OBSERVABILITY.md:{}: {line}", number + 1));
            }
        } else if line == "```text" {
            in_text = true;
        }
    }
    assert!(quoted > 0, "no text block quotes a golden");
    assert!(
        strays.is_empty(),
        "lines no golden in crates/lab/tests/golden/ holds:\n{}",
        strays.join("\n")
    );
}
