//! `marp-trace` run as a binary on small hand-built traces: `validate`
//! counts the spans a run left open, and `diff` folds two traces into
//! profiles.

use marp_obs::{perfetto_export_string, save_trace, Profile, ProfileDiff};
use marp_sim::{SimTime, SpanKey, TraceEvent, TraceLog};
use std::path::PathBuf;
use std::process::{Command, Output};

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
    std::fs::write(&json, perfetto_export_string(&log)).unwrap();
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
