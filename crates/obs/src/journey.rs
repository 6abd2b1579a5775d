//! Plain-text per-agent journey timelines.
//!
//! Every agent-level trace event is folded into a chronological story of
//! that agent's life: dispatch, each migration hop, lock rounds, the
//! update quorum, commits, and disposal. Useful for eyeballing why one
//! write took the itinerary it did without loading the Perfetto UI.

use marp_sim::{agent_key_parts, AgentKey, TraceEvent, TraceLog};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Timelines for every agent that appears in a trace, keyed by agent key.
#[derive(Debug, Default)]
pub struct Journeys {
    agents: BTreeMap<AgentKey, Vec<String>>,
}

impl Journeys {
    /// Fold a trace into per-agent timelines.
    pub fn from_trace(trace: &TraceLog) -> Self {
        let mut journeys = Journeys::default();
        for rec in trace.records() {
            let at = rec.at.as_millis_f64();
            // Each arm names the agent the event belongs to; events with
            // no agent identity are listed explicitly and skipped.
            match rec.event {
                TraceEvent::AgentDispatched { agent, home, batch } => {
                    journeys.log(
                        agent,
                        at,
                        format!("dispatched from node {home} carrying {batch} request(s)"),
                    );
                }
                TraceEvent::AgentMigrated {
                    agent,
                    from,
                    to,
                    hops,
                } => {
                    journeys.log(agent, at, format!("migrated {from} -> {to} (hop {hops})"));
                }
                TraceEvent::AgentMigrateFailed { agent, from, to } => {
                    journeys.log(agent, at, format!("migration {from} -> {to} failed"));
                }
                TraceEvent::AgentStateShipped { agent, bytes } => {
                    journeys.log(agent, at, format!("shipped {bytes} byte(s) of state"));
                }
                TraceEvent::ReplicaDeclaredUnavailable { agent, node } => {
                    journeys.log(agent, at, format!("declared replica {node} unavailable"));
                }
                TraceEvent::LockRequested { agent, node } => {
                    journeys.log(
                        agent,
                        at,
                        format!("appended to locking list at node {node}"),
                    );
                }
                TraceEvent::LockGranted {
                    agent,
                    node,
                    visits,
                    via_tie,
                } => {
                    let how = if via_tie { "tie-break" } else { "majority" };
                    journeys.log(
                        agent,
                        at,
                        format!("lock granted at node {node} after {visits} visit(s) via {how}"),
                    );
                }
                TraceEvent::UpdateSent { agent, version } => {
                    journeys.log(agent, at, format!("broadcast UPDATE on top of v{version}"));
                }
                TraceEvent::UpdateAcked {
                    agent,
                    node,
                    positive,
                } => {
                    let verdict = if positive { "ack" } else { "nack" };
                    journeys.log(agent, at, format!("{verdict} from node {node}"));
                }
                TraceEvent::WinAborted { agent } => {
                    journeys.log(
                        agent,
                        at,
                        String::from("aborted claimed win, resuming lock rounds"),
                    );
                }
                TraceEvent::CommitApplied {
                    node,
                    version,
                    agent,
                    key,
                    request,
                } => {
                    journeys.log(
                        agent,
                        at,
                        format!("commit v{version} (key {key}, request {request}) applied at node {node}"),
                    );
                }
                TraceEvent::AgentDisposed { agent, born } => {
                    let lifetime = at - born.as_millis_f64();
                    journeys.log(agent, at, format!("disposed after {lifetime:.3} ms"));
                }
                TraceEvent::MsgDropped { .. }
                | TraceEvent::NodeDown(..)
                | TraceEvent::NodeUp(..)
                | TraceEvent::RequestArrived { .. }
                | TraceEvent::ReadServed { .. }
                | TraceEvent::UpdateCompleted { .. }
                | TraceEvent::SpanStart { .. }
                | TraceEvent::SpanEnd { .. }
                | TraceEvent::SpanLink { .. }
                | TraceEvent::Custom { .. } => {}
            }
        }
        journeys
    }

    fn log(&mut self, agent: AgentKey, at_ms: f64, line: String) {
        self.agents
            .entry(agent)
            .or_default()
            .push(format!("  {at_ms:>12.3} ms  {line}"));
    }

    /// Number of agents with at least one event.
    pub fn len(&self) -> usize {
        self.agents.len()
    }

    /// True when no agent events were present at all.
    pub fn is_empty(&self) -> bool {
        self.agents.is_empty()
    }

    /// Render every journey as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (&key, lines) in &self.agents {
            let (home, seq) = agent_key_parts(key);
            let _ = writeln!(out, "agent {home}/{seq}:");
            for line in lines {
                let _ = writeln!(out, "{line}");
            }
            out.push('\n');
        }
        if out.is_empty() {
            out.push_str("no agent events in trace\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::{agent_key, NodeId, SimTime};

    fn push(log: &mut TraceLog, at: u64, node: NodeId, event: TraceEvent) {
        log.push(SimTime::from_millis(at), node, event);
    }

    #[test]
    fn timeline_is_chronological_per_agent() {
        let mut log = TraceLog::new();
        let a = agent_key(0, 1);
        let b = agent_key(2, 1);
        push(
            &mut log,
            1,
            0,
            TraceEvent::AgentDispatched {
                agent: a,
                home: 0,
                batch: 2,
            },
        );
        push(
            &mut log,
            2,
            2,
            TraceEvent::AgentDispatched {
                agent: b,
                home: 2,
                batch: 1,
            },
        );
        push(
            &mut log,
            3,
            1,
            TraceEvent::AgentMigrated {
                agent: a,
                from: 0,
                to: 1,
                hops: 1,
            },
        );
        push(
            &mut log,
            4,
            1,
            TraceEvent::LockGranted {
                agent: a,
                node: 1,
                visits: 2,
                via_tie: false,
            },
        );
        push(
            &mut log,
            9,
            1,
            TraceEvent::AgentDisposed {
                agent: a,
                born: SimTime::from_millis(1),
            },
        );
        let journeys = Journeys::from_trace(&log);
        assert_eq!(journeys.len(), 2);
        let text = journeys.render();
        assert!(text.contains("agent 0/1:"));
        assert!(text.contains("agent 2/1:"));
        assert!(text.contains("migrated 0 -> 1 (hop 1)"));
        assert!(text.contains("disposed after 8.000 ms"));
        // Agent a's dispatch precedes its migration in the rendered text.
        let dispatched = text.find("dispatched from node 0").unwrap();
        let migrated = text.find("migrated 0 -> 1").unwrap();
        assert!(dispatched < migrated);
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let log = TraceLog::new();
        let journeys = Journeys::from_trace(&log);
        assert!(journeys.is_empty());
        assert!(journeys.render().contains("no agent events"));
    }
}
