//! Chrome `trace_event` / Perfetto JSON export.
//!
//! The output loads directly in `chrome://tracing` or
//! <https://ui.perfetto.dev>: process 1 holds one track per replica
//! node, process 2 one track per agent (or per baseline coordination
//! round surrogate). Completed spans become `"X"` (complete) events,
//! spans that never closed become `"i"` (instant) markers, and span
//! links become `"s"`/`"f"` flow arrows.

use crate::json::Json;
use crate::spans::{Span, SpanSet};
use marp_sim::{agent_key_parts, SimTime, SpanKind, TraceLog};
use std::collections::BTreeMap;

const PID_NODES: f64 = 1.0;
const PID_AGENTS: f64 = 2.0;

fn ts_us(at: SimTime) -> f64 {
    at.as_nanos() as f64 / 1_000.0
}

/// Which track a span is drawn on.
fn track(span: &Span, agent_tids: &mut BTreeMap<u64, u64>) -> (f64, f64) {
    match span.kind {
        // Node-anchored phases: the request pending at its accepting
        // replica, and consistent reads (anchored at the home).
        SpanKind::Request | SpanKind::Read => (PID_NODES, f64::from(span.start_node)),
        // Agent-anchored phases: `a` is the agent key (or the baseline's
        // round surrogate).
        SpanKind::Dispatch
        | SpanKind::Migrate
        | SpanKind::LockAcquire
        | SpanKind::UpdateQuorum
        | SpanKind::Commit => {
            let next = agent_tids.len() as u64;
            let tid = *agent_tids.entry(span.a).or_insert(next);
            (PID_AGENTS, tid as f64)
        }
    }
}

fn meta(name: &str, pid: f64, tid: Option<f64>, label: String) -> Json {
    let mut pairs = vec![
        (String::from("name"), Json::Str(String::from(name))),
        (String::from("ph"), Json::Str(String::from("M"))),
        (String::from("pid"), Json::Num(pid)),
        (
            String::from("args"),
            Json::obj([("name", Json::Str(label))]),
        ),
    ];
    if let Some(tid) = tid {
        pairs.push((String::from("tid"), Json::Num(tid)));
    }
    Json::Obj(pairs.into_iter().collect())
}

fn span_args(span: &Span) -> Json {
    Json::obj([
        ("id", Json::Str(format!("{:#x}", span.id))),
        ("parent", Json::Str(format!("{:#x}", span.parent))),
        ("a", Json::Num(span.a as f64)),
        ("b", Json::Num(span.b as f64)),
        ("start_node", Json::Num(f64::from(span.start_node))),
    ])
}

/// Export a trace as a Chrome trace_event JSON document.
pub fn export(trace: &TraceLog) -> Json {
    let set = SpanSet::from_trace(trace);
    let mut events: Vec<Json> = Vec::new();
    let mut agent_tids: BTreeMap<u64, u64> = BTreeMap::new();
    let mut node_tids: BTreeMap<u64, ()> = BTreeMap::new();

    for span in set.spans() {
        let (pid, tid) = track(span, &mut agent_tids);
        if pid == PID_NODES {
            node_tids.insert(tid as u64, ());
        }
        let common = [
            (
                String::from("name"),
                Json::Str(String::from(span.kind.name())),
            ),
            (String::from("cat"), Json::Str(String::from("span"))),
            (String::from("pid"), Json::Num(pid)),
            (String::from("tid"), Json::Num(tid)),
            (String::from("ts"), Json::Num(ts_us(span.start))),
            (String::from("args"), span_args(span)),
        ];
        match span.end {
            Some(end) => {
                let mut pairs: BTreeMap<String, Json> = common.into_iter().collect();
                pairs.insert(String::from("ph"), Json::Str(String::from("X")));
                pairs.insert(
                    String::from("dur"),
                    Json::Num((ts_us(end) - ts_us(span.start)).max(0.001)),
                );
                events.push(Json::Obj(pairs));
            }
            None => {
                let mut pairs: BTreeMap<String, Json> = common.into_iter().collect();
                pairs.insert(String::from("ph"), Json::Str(String::from("i")));
                pairs.insert(String::from("s"), Json::Str(String::from("t")));
                events.push(Json::Obj(pairs));
            }
        }
    }

    // Flow arrows for span links: start at the source span's opening,
    // finish at the target span's opening.
    for (index, &(from, to)) in set.links().iter().enumerate() {
        let (Some(src), Some(dst)) = (set.get(from), set.get(to)) else {
            continue;
        };
        let mut tids = agent_tids.clone();
        let (src_pid, src_tid) = track(src, &mut tids);
        let (dst_pid, dst_tid) = track(dst, &mut tids);
        events.push(Json::obj([
            ("name", Json::Str(String::from("link"))),
            ("cat", Json::Str(String::from("link"))),
            ("ph", Json::Str(String::from("s"))),
            ("id", Json::Num(index as f64)),
            ("pid", Json::Num(src_pid)),
            ("tid", Json::Num(src_tid)),
            ("ts", Json::Num(ts_us(src.start))),
        ]));
        events.push(Json::obj([
            ("name", Json::Str(String::from("link"))),
            ("cat", Json::Str(String::from("link"))),
            ("ph", Json::Str(String::from("f"))),
            ("bp", Json::Str(String::from("e"))),
            ("id", Json::Num(index as f64)),
            ("pid", Json::Num(dst_pid)),
            ("tid", Json::Num(dst_tid)),
            ("ts", Json::Num(ts_us(dst.start))),
        ]));
    }

    // Track naming metadata.
    let mut metadata = vec![
        meta(
            "process_name",
            PID_NODES,
            None,
            String::from("replica nodes"),
        ),
        meta("process_name", PID_AGENTS, None, String::from("agents")),
    ];
    for &node in node_tids.keys() {
        metadata.push(meta(
            "thread_name",
            PID_NODES,
            Some(node as f64),
            format!("node {node}"),
        ));
    }
    for (&key, &tid) in &agent_tids {
        let (home, seq) = agent_key_parts(key);
        metadata.push(meta(
            "thread_name",
            PID_AGENTS,
            Some(tid as f64),
            format!("agent {home}/{seq}"),
        ));
    }
    metadata.extend(events);

    Json::obj([
        ("traceEvents", Json::Arr(metadata)),
        ("displayTimeUnit", Json::Str(String::from("ms"))),
    ])
}

/// Render the export directly to a JSON string.
pub fn export_string(trace: &TraceLog) -> String {
    export(trace).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::{span_id, NodeId, TraceEvent};

    fn start(log: &mut TraceLog, at: u64, node: NodeId, kind: SpanKind, a: u64, b: u64) {
        log.push(
            SimTime::from_millis(at),
            node,
            TraceEvent::SpanStart {
                id: span_id(kind, a, b),
                parent: 0,
                kind,
                a,
                b,
            },
        );
    }

    fn end(log: &mut TraceLog, at: u64, node: NodeId, kind: SpanKind, a: u64, b: u64) {
        log.push(
            SimTime::from_millis(at),
            node,
            TraceEvent::SpanEnd {
                id: span_id(kind, a, b),
                kind,
            },
        );
    }

    #[test]
    fn export_produces_valid_json_with_both_processes() {
        let mut log = TraceLog::new();
        start(&mut log, 1, 0, SpanKind::Request, 100, 0);
        start(&mut log, 2, 0, SpanKind::Dispatch, 7, 0);
        log.push(
            SimTime::from_millis(2),
            0,
            TraceEvent::SpanLink {
                from: span_id(SpanKind::Request, 100, 0),
                to: span_id(SpanKind::Dispatch, 7, 0),
            },
        );
        end(&mut log, 9, 0, SpanKind::Request, 100, 0);
        // Dispatch never closes -> instant marker.
        let text = export_string(&log);
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let ph = |p: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some(p))
                .count()
        };
        assert_eq!(ph("X"), 1, "one complete span");
        assert_eq!(ph("i"), 1, "one unmatched start");
        assert_eq!(ph("s"), 1, "flow start");
        assert_eq!(ph("f"), 1, "flow finish");
        assert!(ph("M") >= 4, "process + thread metadata");
        // The request span sits on the node process, the dispatch span
        // on the agent process.
        let pid_of = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(|v| v.as_str()) == Some(name))
                .and_then(|e| e.get("pid"))
                .and_then(|p| p.as_num())
                .unwrap()
        };
        assert_eq!(pid_of("request"), 1.0);
        assert_eq!(pid_of("dispatch"), 2.0);
    }

    #[test]
    fn timestamps_are_microseconds() {
        let mut log = TraceLog::new();
        start(&mut log, 3, 0, SpanKind::Request, 1, 0);
        end(&mut log, 5, 0, SpanKind::Request, 1, 0);
        let doc = export(&log);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(span.get("ts").unwrap().as_num(), Some(3000.0));
        assert_eq!(span.get("dur").unwrap().as_num(), Some(2000.0));
    }
}
