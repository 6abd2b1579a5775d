//! Span-tree reconstruction from a recorded trace.
//!
//! The protocol crates emit [`TraceEvent::SpanStart`] / [`TraceEvent::SpanEnd`]
//! pairs whose ids are derived deterministically from semantic identity
//! (see [`marp_sim::span_id`]), so the two halves of a span may come from
//! different nodes. This module stitches them back into [`Span`] records
//! and indexes the parent/child and link edges for the exporters and the
//! critical-path analyzer.

use marp_sim::{span_id, NodeId, SimTime, SpanId, SpanKind, TraceEvent, TraceLog};
use std::collections::HashMap;

/// One reconstructed causal span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span identity (see [`marp_sim::span_id`]).
    pub id: SpanId,
    /// Enclosing span, 0 for a root.
    pub parent: SpanId,
    /// Phase of the write this span covers.
    pub kind: SpanKind,
    /// First identity value (agent key or request id).
    pub a: u64,
    /// Second identity value (kind-specific).
    pub b: u64,
    /// When (and where) the span opened.
    pub start: SimTime,
    /// Node that emitted the start.
    pub start_node: NodeId,
    /// When the span closed, if it did.
    pub end: Option<SimTime>,
    /// Node that emitted the end, if any.
    pub end_node: Option<NodeId>,
}

impl Span {
    /// Duration in virtual milliseconds, if the span completed.
    pub fn duration_ms(&self) -> Option<f64> {
        self.end
            .map(|end| end.as_millis_f64() - self.start.as_millis_f64())
    }
}

/// All spans of one run, with the link edges between them.
#[derive(Debug, Default)]
pub struct SpanSet {
    spans: Vec<Span>,
    by_id: HashMap<SpanId, usize>,
    children: HashMap<SpanId, Vec<usize>>,
    links: Vec<(SpanId, SpanId)>,
    /// `SpanEnd` records whose start was never seen (e.g. the trace was
    /// truncated, or a duplicate end from a disposed clone).
    pub unmatched_ends: u64,
}

impl SpanSet {
    /// Reconstruct every span from the trace. A duplicate `SpanStart`
    /// for an id keeps the first occurrence; a duplicate `SpanEnd`
    /// keeps the first close (later ones count as unmatched).
    pub fn from_trace(trace: &TraceLog) -> Self {
        let mut set = SpanSet::default();
        for rec in trace.records() {
            match rec.event {
                TraceEvent::SpanStart {
                    id,
                    parent,
                    kind,
                    a,
                    b,
                } => {
                    if set.by_id.contains_key(&id) {
                        continue;
                    }
                    let idx = set.spans.len();
                    set.by_id.insert(id, idx);
                    set.children.entry(parent).or_default().push(idx);
                    set.spans.push(Span {
                        id,
                        parent,
                        kind,
                        a,
                        b,
                        start: rec.at,
                        start_node: rec.node,
                        end: None,
                        end_node: None,
                    });
                }
                TraceEvent::SpanEnd { id, kind: _ } => match set.by_id.get(&id) {
                    Some(&idx) if set.spans[idx].end.is_none() => {
                        set.spans[idx].end = Some(rec.at);
                        set.spans[idx].end_node = Some(rec.node);
                    }
                    Some(&_idx) => set.unmatched_ends += 1,
                    None => set.unmatched_ends += 1,
                },
                TraceEvent::SpanLink { from, to } => set.links.push((from, to)),
                TraceEvent::MsgDropped { .. }
                | TraceEvent::NodeDown(..)
                | TraceEvent::NodeUp(..)
                | TraceEvent::RequestArrived { .. }
                | TraceEvent::ReadServed { .. }
                | TraceEvent::AgentDispatched { .. }
                | TraceEvent::AgentMigrated { .. }
                | TraceEvent::AgentMigrateFailed { .. }
                | TraceEvent::AgentStateShipped { .. }
                | TraceEvent::ReplicaDeclaredUnavailable { .. }
                | TraceEvent::LockRequested { .. }
                | TraceEvent::LockGranted { .. }
                | TraceEvent::UpdateSent { .. }
                | TraceEvent::UpdateAcked { .. }
                | TraceEvent::WinAborted { .. }
                | TraceEvent::CommitApplied { .. }
                | TraceEvent::AgentDisposed { .. }
                | TraceEvent::UpdateCompleted { .. }
                | TraceEvent::Custom { .. } => {}
            }
        }
        set
    }

    /// All spans in start order (trace emission order).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Look a span up by id.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        self.by_id.get(&id).map(|&idx| &self.spans[idx])
    }

    /// Direct children of a span (spans whose `parent` is `id`).
    pub fn children_of(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        self.children
            .get(&id)
            .into_iter()
            .flatten()
            .map(|&idx| &self.spans[idx])
    }

    /// All link edges `(from, to)` in emission order.
    pub fn links(&self) -> &[(SpanId, SpanId)] {
        &self.links
    }

    /// Targets of links whose source is `from`.
    pub fn linked_from(&self, from: SpanId) -> impl Iterator<Item = SpanId> + '_ {
        self.links
            .iter()
            .filter(move |&&(f, _)| f == from)
            .map(|&(_, t)| t)
    }

    /// Spans that never closed.
    pub fn incomplete(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.end.is_none())
    }

    /// Committed writes with no request span where they say they were
    /// accepted: `(request, home)` of every `UpdateCompleted` in `trace`
    /// (the trace this set was built from) whose
    /// `span_id(Request, request, home)` is not in the set, in trace
    /// order. Every protocol opens that span at the replica its client
    /// asked, so a non-empty answer is a wrong `home` or a lost span.
    pub fn uncovered_writes(&self, trace: &TraceLog) -> Vec<(u64, NodeId)> {
        trace
            .records()
            .iter()
            .filter_map(|rec| {
                let TraceEvent::UpdateCompleted { request, home, .. } = rec.event else {
                    return None;
                };
                Some((request, home))
            })
            .filter(|&(request, home)| {
                self.get(span_id(SpanKind::Request, request, u64::from(home)))
                    .is_none()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_start(
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

    fn push_end(log: &mut TraceLog, at: u64, node: NodeId, kind: SpanKind, a: u64, b: u64) {
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
    fn cross_node_halves_are_stitched() {
        let mut log = TraceLog::new();
        push_start(&mut log, 1, 0, SpanKind::Migrate, 7, 1, 0);
        push_end(&mut log, 5, 3, SpanKind::Migrate, 7, 1);
        let set = SpanSet::from_trace(&log);
        assert_eq!(set.spans().len(), 1);
        let span = &set.spans()[0];
        assert_eq!(span.start_node, 0);
        assert_eq!(span.end_node, Some(3));
        assert_eq!(span.duration_ms(), Some(4.0));
        assert_eq!(set.unmatched_ends, 0);
    }

    #[test]
    fn duplicate_ends_and_orphan_ends_are_tolerated() {
        let mut log = TraceLog::new();
        push_start(&mut log, 1, 0, SpanKind::Dispatch, 9, 0, 0);
        push_end(&mut log, 2, 0, SpanKind::Dispatch, 9, 0);
        push_end(&mut log, 3, 1, SpanKind::Dispatch, 9, 0); // zombie clone
        push_end(&mut log, 4, 1, SpanKind::Commit, 1, 1); // never started
        let set = SpanSet::from_trace(&log);
        assert_eq!(set.spans().len(), 1);
        assert_eq!(set.spans()[0].end, Some(SimTime::from_millis(2)));
        assert_eq!(set.unmatched_ends, 2);
    }

    #[test]
    fn children_and_links_are_indexed() {
        let mut log = TraceLog::new();
        let dispatch = span_id(SpanKind::Dispatch, 5, 0);
        push_start(&mut log, 0, 0, SpanKind::Request, 100, 0, 0);
        push_start(&mut log, 1, 0, SpanKind::Dispatch, 5, 0, 0);
        log.push(
            SimTime::from_millis(1),
            0,
            TraceEvent::SpanLink {
                from: span_id(SpanKind::Request, 100, 0),
                to: dispatch,
            },
        );
        push_start(&mut log, 2, 0, SpanKind::Migrate, 5, 1, dispatch);
        push_start(&mut log, 2, 0, SpanKind::LockAcquire, 5, 1, dispatch);
        let set = SpanSet::from_trace(&log);
        assert_eq!(set.children_of(dispatch).count(), 2);
        let linked: Vec<SpanId> = set
            .linked_from(span_id(SpanKind::Request, 100, 0))
            .collect();
        assert_eq!(linked, vec![dispatch]);
        assert_eq!(set.incomplete().count(), 4);
    }

    #[test]
    fn a_write_is_covered_by_the_request_span_at_its_home() {
        let mut log = TraceLog::new();
        push_start(&mut log, 0, 2, SpanKind::Request, 7, 2, 0);
        for (request, home) in [(7, 2), (7, 0), (8, 2)] {
            log.push(
                SimTime::from_millis(1),
                home,
                TraceEvent::UpdateCompleted {
                    request,
                    home,
                    arrived: SimTime::ZERO,
                    dispatched: SimTime::ZERO,
                    locked: SimTime::ZERO,
                    visits: 0,
                },
            );
        }
        let set = SpanSet::from_trace(&log);
        assert_eq!(set.uncovered_writes(&log), [(7, 0), (8, 2)]);
    }
}
