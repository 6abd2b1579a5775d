//! Flamegraph-style span aggregation (`marp-trace aggregate`).
//!
//! Folds a trace's reconstructed span trees into a deterministic
//! profile: for every root-to-span *kind path* (e.g.
//! `dispatch;migrate`), the number of spans, inclusive and exclusive
//! time, and the serialized agent-state bytes shipped while that span
//! was the active migration. The same stats are also grouped per
//! emitting node, so the report can say not just *which phase* grew but
//! *where*.
//!
//! All times are integer nanoseconds of virtual time and every map is a
//! `BTreeMap`, so two aggregations of the same trace render
//! byte-identical text and JSON — the property the golden tests pin.

use crate::json::{object, table, Field, Json, Unit};
use crate::spans::{Span, SpanSet};
use marp_sim::{SpanKind, TraceEvent, TraceLog};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated statistics for one kind path (or one `(node, path)`
/// cell).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Spans folded into this cell.
    pub count: u64,
    /// Spans that never closed (counted, but contribute zero time).
    pub open: u64,
    /// Total inclusive time (span duration), ns.
    pub incl_ns: u64,
    /// Inclusive time minus child span time (clamped at zero), ns.
    pub excl_ns: u64,
    /// Serialized agent-state bytes attributed to this cell.
    pub bytes: u64,
}

impl PathStats {
    fn fold(&mut self, incl_ns: u64, excl_ns: u64, open: bool) {
        self.count += 1;
        self.open += u64::from(open);
        self.incl_ns += incl_ns;
        self.excl_ns += excl_ns;
    }
}

/// A path's stats, each once for the table (times in ms) and the JSON
/// document (in ns).
#[rustfmt::skip]
const STATS: [Field<PathStats>; 5] = [
    ("count",   "count",    7, Unit::Count, |s| Some(s.count as f64)),
    ("open",    "open",     5, Unit::Count, |s| Some(s.open as f64)),
    ("incl_ns", "incl_ms", 12, Unit::Ns,    |s| Some(s.incl_ns as f64)),
    ("excl_ns", "excl_ms", 12, Unit::Ns,    |s| Some(s.excl_ns as f64)),
    ("bytes",   "bytes",   12, Unit::Count, |s| Some(s.bytes as f64)),
];

/// A full profile of one trace.
#[derive(Debug, Default, PartialEq)]
pub struct Profile {
    /// Stats per kind path, e.g. `"dispatch;migrate"`.
    pub by_path: BTreeMap<String, PathStats>,
    /// Stats per `(start node, kind path)`.
    pub by_node: BTreeMap<(u32, String), PathStats>,
    /// Sum of root-span inclusive time, ns.
    pub total_ns: u64,
    /// `SpanEnd` records without a matching start.
    pub unmatched_ends: u64,
}

impl Profile {
    /// Aggregate a recorded trace.
    pub fn from_trace(trace: &TraceLog) -> Self {
        let set = SpanSet::from_trace(trace);
        let spans = set.spans();

        // Root-to-span kind path per span, memoized over the parent
        // chain. Spans sit in trace order so a parent's path is always
        // computed before its children's; a dangling parent id (trace
        // truncated before the parent's start, or a child emitted ahead
        // of its parent) makes the span its own root.
        let mut paths: Vec<String> = Vec::with_capacity(spans.len());
        for (idx, span) in spans.iter().enumerate() {
            let path = match set.index_of(span.parent) {
                Some(parent_idx) if parent_idx < idx => {
                    format!("{};{}", paths[parent_idx], span.kind.name())
                }
                Some(_) | None => String::from(span.kind.name()),
            };
            paths.push(path);
        }

        // Inclusive minus direct-child time, clamped: children may
        // overlap or outlive the parent (cross-node clock of one
        // simulation is shared, but spans can be left open).
        let mut profile = Profile {
            unmatched_ends: set.unmatched_ends,
            ..Profile::default()
        };
        for (idx, span) in spans.iter().enumerate() {
            let incl = span
                .end
                .map(|end| end.as_nanos().saturating_sub(span.start.as_nanos()))
                .unwrap_or(0);
            let child_time: u64 = set
                .children_of(span.id)
                .filter_map(|c| {
                    c.end
                        .map(|end| end.as_nanos().saturating_sub(c.start.as_nanos()))
                })
                .sum();
            let excl = incl.saturating_sub(child_time);
            let open = span.end.is_none();
            profile.roll_up(&paths[idx], span, |s| s.fold(incl, excl, open));
            if span.parent == 0 || set.get(span.parent).is_none() {
                profile.total_ns += incl;
            }
        }

        // Byte attribution: each shipped agent state belongs to the
        // migration span of the same agent with the greatest start time
        // not after the shipment (`begin_migration` emits the shipment
        // and the span start at the same instant; retries re-ship into
        // the still-open span). With no migration span yet, the bytes
        // land on the agent's dispatch span path.
        let mut agent_spans: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (idx, span) in spans.iter().enumerate() {
            if matches!(span.kind, SpanKind::Migrate | SpanKind::Dispatch) {
                agent_spans.entry(span.a).or_default().push(idx);
            }
        }
        for rec in trace.records() {
            let TraceEvent::AgentStateShipped { agent, bytes } = rec.event else {
                continue;
            };
            let target = agent_spans
                .get(&agent)
                .into_iter()
                .flatten()
                .map(|&idx| (idx, &spans[idx]))
                .filter(|(_, s)| s.start <= rec.at)
                // Any migration beats the dispatch root; among
                // migrations, the latest-started one wins.
                .max_by_key(|(idx, s)| (s.kind == SpanKind::Migrate, s.start, *idx));
            let Some((idx, span)) = target else {
                continue;
            };
            profile.roll_up(&paths[idx], span, |s| s.bytes += bytes as u64);
        }

        profile
    }

    /// Apply `update` to the cells a span rolls up into: its path and
    /// its start node's row of that path.
    fn roll_up(&mut self, path: &str, span: &Span, update: impl Fn(&mut PathStats)) {
        let node = u32::from(span.start_node);
        update(self.by_path.entry(path.to_owned()).or_default());
        update(self.by_node.entry((node, path.to_owned())).or_default());
    }

    /// Sum of exclusive time across all paths, ns.
    pub fn total_excl_ns(&self) -> u64 {
        self.by_path.values().map(|s| s.excl_ns).sum()
    }

    /// Collapsed-stack text (`path value` per line, value = exclusive
    /// microseconds), the format flamegraph tooling consumes. Lines are
    /// sorted by path.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (path, stats) in &self.by_path {
            let _ = writeln!(out, "{path} {}", stats.excl_ns / 1_000);
        }
        out
    }

    /// Human-readable table: paths sorted by exclusive time descending
    /// (ties broken by path), then the per-node rollup.
    pub fn render(&self) -> String {
        let mut rows: Vec<(&str, &PathStats)> =
            self.by_path.iter().map(|(p, s)| (p.as_str(), s)).collect();
        rows.sort_by(|(pa, sa), (pb, sb)| sb.excl_ns.cmp(&sa.excl_ns).then(pa.cmp(pb)));
        let mut out = table(("path", 48), &STATS, rows);
        let _ = writeln!(
            out,
            "\ntotal {:.3} ms root time, {:.3} ms exclusive across {} path(s), {} unmatched end(s)",
            self.total_ns as f64 / 1e6,
            self.total_excl_ns() as f64 / 1e6,
            self.by_path.len(),
            self.unmatched_ends
        );
        let mut nodes: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (&(node, _), s) in &self.by_node {
            let cell = nodes.entry(node).or_default();
            cell.0 += s.excl_ns;
            cell.1 += s.bytes;
        }
        for (node, (excl, bytes)) in nodes {
            let _ = writeln!(
                out,
                "node {node}: {:.3} ms exclusive, {bytes} bytes shipped",
                excl as f64 / 1e6
            );
        }
        out
    }

    /// Serialize as deterministic JSON (schema `marp-prof/profile/v1`).
    pub fn to_json(&self) -> Json {
        let stats = |s: &PathStats| Json::Obj(object(&STATS, s));
        let by_path = self
            .by_path
            .iter()
            .map(|(path, s)| (path.clone(), stats(s)));
        let by_node = self.by_node.iter();
        let by_node = by_node.map(|((node, path), s)| (format!("{node}|{path}"), stats(s)));
        Json::obj([
            ("schema", Json::Str(String::from("marp-prof/profile/v1"))),
            ("total_ns", Json::Num(self.total_ns as f64)),
            ("unmatched_ends", Json::Num(self.unmatched_ends as f64)),
            ("by_path", Json::Obj(by_path.collect())),
            ("by_node", Json::Obj(by_node.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::{span_id, NodeId, SimTime, SpanId};

    fn start(
        log: &mut TraceLog,
        at: u64,
        node: NodeId,
        kind: SpanKind,
        a: u64,
        b: u64,
        parent: SpanId,
    ) {
        log.push(
            SimTime::from_millis(at),
            node,
            TraceEvent::SpanStart {
                id: span_id(kind, a, b),
                parent,
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

    /// One dispatch (0..10ms) with a migrate child (2..5ms).
    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new();
        let agent = 7u64;
        let dispatch = span_id(SpanKind::Dispatch, agent, 0);
        start(&mut log, 0, 0, SpanKind::Dispatch, agent, 0, 0);
        log.push(
            SimTime::from_millis(2),
            0,
            TraceEvent::AgentStateShipped { agent, bytes: 100 },
        );
        start(
            &mut log,
            2,
            0,
            SpanKind::Migrate,
            agent,
            (1 << 32) | 1,
            dispatch,
        );
        end(&mut log, 5, 1, SpanKind::Migrate, agent, (1 << 32) | 1);
        end(&mut log, 10, 1, SpanKind::Dispatch, agent, 0);
        log
    }

    #[test]
    fn inclusive_exclusive_and_paths() {
        let profile = Profile::from_trace(&sample_log());
        let dispatch = &profile.by_path["dispatch"];
        assert_eq!(dispatch.count, 1);
        assert_eq!(dispatch.incl_ns, 10_000_000);
        assert_eq!(dispatch.excl_ns, 7_000_000);
        let migrate = &profile.by_path["dispatch;migrate"];
        assert_eq!(migrate.incl_ns, 3_000_000);
        assert_eq!(migrate.excl_ns, 3_000_000);
        assert_eq!(profile.total_ns, 10_000_000);
        assert_eq!(profile.total_excl_ns(), 10_000_000);
    }

    #[test]
    fn shipped_bytes_attach_to_the_active_migration() {
        let profile = Profile::from_trace(&sample_log());
        // The shipment at t=2 belongs to the migration opened at t=2,
        // not the enclosing dispatch.
        assert_eq!(profile.by_path["dispatch;migrate"].bytes, 100);
        assert_eq!(profile.by_path["dispatch"].bytes, 0);
    }

    #[test]
    fn collapsed_output_is_sorted_and_in_microseconds() {
        let collapsed = Profile::from_trace(&sample_log()).collapsed();
        assert_eq!(collapsed, "dispatch 7000\ndispatch;migrate 3000\n");
    }

    #[test]
    fn open_spans_count_but_contribute_no_time() {
        let mut log = TraceLog::new();
        start(&mut log, 0, 0, SpanKind::Request, 1, 0, 0);
        let profile = Profile::from_trace(&log);
        let request = &profile.by_path["request"];
        assert_eq!(request.count, 1);
        assert_eq!(request.open, 1);
        assert_eq!(request.incl_ns, 0);
    }
}
