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
use marp_sim::{agent_key_parts, SimTime, TraceLog};
use std::collections::{BTreeMap, BTreeSet};

const PID_NODES: f64 = 1.0;
const PID_AGENTS: f64 = 2.0;

fn ts_us(at: SimTime) -> f64 {
    at.as_nanos() as f64 / 1_000.0
}

fn text(s: &str) -> Json {
    Json::Str(String::from(s))
}

fn meta(name: &str, pid: f64, tid: Option<f64>, label: String) -> Json {
    let mut pairs = vec![
        (String::from("name"), text(name)),
        (String::from("ph"), text("M")),
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
    let mut agent_tids: BTreeMap<u64, u64> = BTreeMap::new();
    let mut node_tids: BTreeSet<u64> = BTreeSet::new();
    // The track each span is drawn on, aligned with `set.spans()`: its
    // agent's (or baseline round's) track, else its starting node's.
    let tracks: Vec<(f64, f64)> = set
        .spans()
        .iter()
        .map(|span| {
            if span.kind.names_agent() {
                let next = agent_tids.len() as u64;
                (PID_AGENTS, *agent_tids.entry(span.a).or_insert(next) as f64)
            } else {
                node_tids.insert(u64::from(span.start_node));
                (PID_NODES, f64::from(span.start_node))
            }
        })
        .collect();

    let mut events: Vec<Json> = Vec::new();
    for (span, &(pid, tid)) in set.spans().iter().zip(&tracks) {
        let (ph, (last_key, last)) = match span.end {
            Some(end) => (
                "X",
                (
                    "dur",
                    Json::Num((ts_us(end) - ts_us(span.start)).max(0.001)),
                ),
            ),
            None => ("i", ("s", text("t"))),
        };
        events.push(Json::obj([
            ("name", text(span.kind.name())),
            ("cat", text("span")),
            ("ph", text(ph)),
            ("pid", Json::Num(pid)),
            ("tid", Json::Num(tid)),
            ("ts", Json::Num(ts_us(span.start))),
            ("args", span_args(span)),
            (last_key, last),
        ]));
    }

    // Flow arrows for span links: start at the source span's opening,
    // finish at the target span's opening.
    for (index, &(from, to)) in set.links().iter().enumerate() {
        let (Some(src), Some(dst)) = (set.index_of(from), set.index_of(to)) else {
            continue;
        };
        let ((src_pid, src_tid), (dst_pid, dst_tid)) = (tracks[src], tracks[dst]);
        events.push(Json::obj([
            ("name", text("link")),
            ("cat", text("link")),
            ("ph", text("s")),
            ("id", Json::Num(index as f64)),
            ("pid", Json::Num(src_pid)),
            ("tid", Json::Num(src_tid)),
            ("ts", Json::Num(ts_us(set.spans()[src].start))),
        ]));
        events.push(Json::obj([
            ("name", text("link")),
            ("cat", text("link")),
            ("ph", text("f")),
            ("bp", text("e")),
            ("id", Json::Num(index as f64)),
            ("pid", Json::Num(dst_pid)),
            ("tid", Json::Num(dst_tid)),
            ("ts", Json::Num(ts_us(set.spans()[dst].start))),
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
    for &node in &node_tids {
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
        ("displayTimeUnit", text("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::{span_id, NodeId, SpanKind, TraceEvent};

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
        let text = export(&log).render();
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
