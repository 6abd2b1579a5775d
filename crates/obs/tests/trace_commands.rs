//! `marp-trace` run as a binary on small hand-built traces: `validate`
//! counts the spans a run left open, and `diff` folds two traces into
//! profiles. `diff --fail-steeper` runs on the recorded sweeps.

use marp_obs::{perfetto_export, save_trace, Profile, ProfileDiff};
use marp_sim::{SimTime, SpanKey, TraceEvent, TraceLog};
use std::path::PathBuf;
use std::process::{Command, Output};

fn results(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name)
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("trace_commands_{name}"))
}

fn marp_trace(args: &[&PathBuf]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_marp-trace"))
        .args(args)
        .output()
        .unwrap()
}

/// One committed write with its request span closed, and an agent whose
/// dispatch span never closes.
fn one_write_one_open_agent() -> TraceLog {
    let mut log = TraceLog::new();
    let request = SpanKey::request(1, 0);
    let dispatch = SpanKey::dispatch(7);
    log.push(SimTime::from_millis(1), 0, request.start(None));
    log.push(SimTime::from_millis(2), 0, dispatch.start(None));
    log.push(SimTime::from_millis(2), 0, request.link_to(dispatch));
    log.push(
        SimTime::from_millis(9),
        0,
        TraceEvent::UpdateCompleted {
            request: 1,
            home: 0,
            arrived: SimTime::from_millis(1),
            dispatched: SimTime::from_millis(2),
            locked: SimTime::from_millis(5),
            visits: 2,
        },
    );
    log.push(SimTime::from_millis(9), 0, request.end());
    log
}

#[test]
fn validate_counts_the_spans_left_open_and_passes() {
    let (trace, json) = (scratch("open.bin"), scratch("open.json"));
    let log = one_write_one_open_agent();
    save_trace(&trace, &log).unwrap();
    std::fs::write(&json, perfetto_export(&log).render()).unwrap();
    let out = marp_trace(&[&PathBuf::from("validate"), &json, &trace]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "ok: 2 span event(s) in JSON, 1 committed write(s) all covered, \
         2 span(s) reconstructed (1 left open, 0 unmatched end(s))\n"
    );
}

#[test]
fn diff_of_two_traces_is_the_diff_of_their_profiles() {
    let (before, after) = (scratch("before.bin"), scratch("after.bin"));
    let mut longer = one_write_one_open_agent();
    longer.push(SimTime::from_millis(12), 0, SpanKey::dispatch(7).end());
    save_trace(&before, &one_write_one_open_agent()).unwrap();
    save_trace(&after, &longer).unwrap();
    let out = marp_trace(&[&PathBuf::from("diff"), &before, &after]);
    assert!(out.status.success(), "{out:?}");
    let expected = ProfileDiff::between(
        &Profile::from_trace(&one_write_one_open_agent()),
        &Profile::from_trace(&longer),
    );
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected.render());
}

/// `marp-trace diff --fail-steeper <metrics> <before> <after>`.
fn fail_steeper(metrics: &str, before: &PathBuf, after: &PathBuf) -> Output {
    let (diff, flag) = (PathBuf::from("diff"), PathBuf::from("--fail-steeper"));
    marp_trace(&[&diff, &flag, &PathBuf::from(metrics), before, after])
}

fn stderr(out: &Output) -> &str {
    std::str::from_utf8(&out.stderr).unwrap()
}

#[test]
fn fail_steeper_fails_on_a_risen_exponent_and_names_it() {
    let (smoke, full) = (results("sweep_smoke.json"), results("sweep_n3_n5_n9.json"));
    let out = fail_steeper("lock-wait-ms", &smoke, &full);
    assert!(!out.status.success(), "{out:?}");
    assert_eq!(
        stderr(&out),
        "marp-trace: diff: steeper growth: lock-wait-ms exponent Some(0.0164) -> Some(2.3708)\n"
    );
    // The table is printed before the verdict, as without the flag.
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../lab/tests/golden/sweep_diff_smoke_n3_n5_n9.txt");
    let table = std::fs::read_to_string(golden).unwrap();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), table);
}

#[test]
fn fail_steeper_passes_a_sweep_against_itself() {
    let full = results("sweep_n3_n5_n9.json");
    let out = fail_steeper("lock-wait-ms,bytes,migrated-bytes", &full, &full);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(stderr(&out), "");
}

#[test]
fn fail_steeper_refuses_an_unknown_metric() {
    let smoke = results("sweep_smoke.json");
    let out = fail_steeper("bytes,no-such-metric", &smoke, &smoke);
    assert!(!out.status.success(), "{out:?}");
    assert_eq!(
        stderr(&out),
        "marp-trace: diff: --fail-steeper: no sweep metric 'no-such-metric'\n"
    );
}

#[test]
fn fail_steeper_refuses_a_pair_of_traces() {
    let trace = scratch("steeper.bin");
    save_trace(&trace, &one_write_one_open_agent()).unwrap();
    let out = fail_steeper("bytes", &trace, &trace);
    assert!(!out.status.success(), "{out:?}");
    assert_eq!(
        stderr(&out),
        "marp-trace: diff: --fail-steeper gates sweeps, not traces\n"
    );
}
