//! Golden-file and structural tests for the Perfetto exporter on a
//! small 3-replica MARP scenario.
//!
//! The simulation is deterministic and the exporter emits sorted maps,
//! so the JSON is byte-stable. If a deliberate protocol or exporter
//! change shifts the output, regenerate with:
//!
//! ```text
//! BLESS=1 cargo test -p marp-lab --test perfetto_golden
//! ```

use marp_lab::{run_scenario_traced, Scenario};
use marp_obs::{perfetto_export, Json, SpanSet};
use marp_sim::{TraceEvent, TraceLog};
use std::path::PathBuf;

fn small_run() -> TraceLog {
    let mut scenario = Scenario::paper(3, 40.0, 7);
    scenario.requests_per_client = 2;
    run_scenario_traced(&scenario).1
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/perfetto_3replica.json")
}

#[test]
fn export_matches_golden_file() {
    let exported = perfetto_export(&small_run()).render();
    let path = golden_path();
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &exported).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run with BLESS=1 to create it");
    assert_eq!(
        exported, golden,
        "Perfetto export drifted from the golden file; if intentional, \
         re-bless with BLESS=1"
    );
}

#[test]
fn export_covers_every_committed_write_with_both_track_kinds() {
    let trace = small_run();
    let text = perfetto_export(&trace).render();
    let doc = Json::parse(&text).expect("export must be valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();

    // Both processes are present: pid 1 = nodes, pid 2 = agents.
    let pid_present = |pid: f64| {
        events.iter().any(|e| {
            e.get("pid").and_then(Json::as_num) == Some(pid)
                && e.get("ph").and_then(Json::as_str) == Some("X")
        })
    };
    assert!(pid_present(1.0), "no complete span on a node track");
    assert!(pid_present(2.0), "no complete span on an agent track");

    // Every committed write has a completed request span in the export.
    let set = SpanSet::from_trace(&trace);
    assert_eq!(
        set.uncovered_writes(&trace),
        [],
        "committed writes lost their request spans"
    );
    let mut commits = 0;
    for rec in trace.records() {
        if let TraceEvent::UpdateCompleted { request, home, .. } = rec.event {
            commits += 1;
            let id = marp_sim::span_id(marp_sim::SpanKind::Request, request, u64::from(home));
            let span = set.get(id).expect("covered");
            assert!(span.end.is_some(), "request {request} span never closed");
            let rendered = format!("\"id\":\"{:#x}\"", id);
            assert!(
                text.contains(&rendered),
                "request {request} span missing from export"
            );
        }
    }
    assert_eq!(commits, 6, "3 servers x 2 requests should all commit");
}
