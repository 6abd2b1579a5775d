//! The paper's evaluation metrics, derived from a run's trace.
//!
//! §4 defines three metrics:
//!
//! * **ALT** — "the average time required by a mobile agent to obtain
//!   the lock". We measure it per completed update as
//!   `locked − dispatched`.
//! * **ATT** — "the average total time required by a mobile agent to
//!   process an update request. This total latency includes the message
//!   passing delay for sending the UPDATE and COMMIT messages". We
//!   measure commit-broadcast time minus request arrival, so it also
//!   covers batching wait, which the paper's per-request view folds in.
//! * **PRK** — "the percentage of requests whose lock is obtained by
//!   visiting K number of servers".

use crate::stats::Samples;
use marp_sim::{TraceEvent, TraceLog, TraceRecord};
use std::collections::BTreeMap;

/// ALT/ATT/PRK extracted from one run.
#[derive(Debug, Clone, Default)]
pub struct PaperMetrics {
    /// Lock-acquisition latency samples (ms).
    pub alt_ms: Samples,
    /// End-to-end update latency samples (ms).
    pub att_ms: Samples,
    /// Requests whose lock needed exactly K server visits.
    pub visits: BTreeMap<u32, u64>,
    /// Write requests that arrived at servers.
    pub writes_arrived: u64,
    /// Updates completed.
    pub completed: u64,
    /// Agent migrations observed.
    pub migrations: u64,
    /// Agents dispatched.
    pub agents: u64,
    /// Claims aborted by the validation round.
    pub aborted_claims: u64,
}

impl PaperMetrics {
    /// Extract the metrics from a trace.
    pub fn from_trace(trace: &TraceLog) -> Self {
        let mut metrics = PaperMetrics::default();
        for record in trace.records() {
            metrics.observe(record);
        }
        metrics
    }

    /// Count one trace record, in trace order (a caller folding the
    /// trace for other readers too feeds each record here).
    pub fn observe(&mut self, record: &TraceRecord) {
        match record.event {
            TraceEvent::RequestArrived { write: true, .. } => {
                self.writes_arrived += 1;
            }
            TraceEvent::UpdateCompleted {
                arrived,
                dispatched,
                locked,
                visits,
                ..
            } => {
                self.completed += 1;
                let alt = locked.saturating_since(dispatched).as_secs_f64() * 1e3;
                let att = record.at.saturating_since(arrived).as_secs_f64() * 1e3;
                self.alt_ms.push(alt);
                self.att_ms.push(att);
                *self.visits.entry(visits).or_insert(0) += 1;
            }
            TraceEvent::AgentMigrated { .. } => self.migrations += 1,
            TraceEvent::AgentDispatched { .. } => self.agents += 1,
            TraceEvent::WinAborted { .. } => self.aborted_claims += 1,
            _ => {}
        }
    }

    /// Pool another run of the same configuration into this one (the
    /// figures average over seeds).
    pub fn merge(&mut self, other: &PaperMetrics) {
        // Exhaustive on purpose: a new field must say how it pools.
        let PaperMetrics {
            alt_ms,
            att_ms,
            visits,
            writes_arrived,
            completed,
            migrations,
            agents,
            aborted_claims,
        } = other;
        self.alt_ms.merge(alt_ms);
        self.att_ms.merge(att_ms);
        for (&k, &count) in visits {
            *self.visits.entry(k).or_insert(0) += count;
        }
        self.writes_arrived += writes_arrived;
        self.completed += completed;
        self.migrations += migrations;
        self.agents += agents;
        self.aborted_claims += aborted_claims;
    }

    /// Mean ALT in milliseconds.
    pub fn mean_alt_ms(&self) -> Option<f64> {
        self.alt_ms.mean()
    }

    /// Mean ATT in milliseconds.
    pub fn mean_att_ms(&self) -> Option<f64> {
        self.att_ms.mean()
    }

    /// PRK: the percentage of completed updates whose lock took exactly
    /// `k` visits.
    pub fn prk(&self, k: u32) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        let count = self.visits.get(&k).copied().unwrap_or(0);
        100.0 * count as f64 / self.completed as f64
    }

    /// Mean number of servers a winning agent visited.
    pub fn mean_visits(&self) -> Option<f64> {
        let total: u64 = self.visits.values().sum();
        let weighted: f64 = self.visits.iter().map(|(&k, &c)| k as f64 * c as f64).sum();
        (total > 0).then(|| weighted / total as f64)
    }

    /// Write requests that never completed (lost to faults, still in
    /// flight at the horizon, …).
    pub fn incomplete(&self) -> u64 {
        self.writes_arrived.saturating_sub(self.completed)
    }

    /// Mean migrations per dispatched agent.
    pub fn mean_migrations_per_agent(&self) -> Option<f64> {
        if self.agents == 0 {
            None
        } else {
            Some(self.migrations as f64 / self.agents as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::SimTime;

    fn trace_with(events: Vec<(SimTime, TraceEvent)>) -> TraceLog {
        let mut log = TraceLog::new();
        for (at, event) in events {
            log.push(at, 0, event);
        }
        log
    }

    #[test]
    fn alt_att_prk_from_synthetic_trace() {
        let trace = trace_with(vec![
            (
                SimTime::from_millis(0),
                TraceEvent::RequestArrived {
                    node: 0,
                    request: 1,
                    write: true,
                },
            ),
            (
                SimTime::from_millis(50),
                TraceEvent::UpdateCompleted {
                    request: 1,
                    home: 0,
                    arrived: SimTime::from_millis(0),
                    dispatched: SimTime::from_millis(10),
                    locked: SimTime::from_millis(40),
                    visits: 3,
                },
            ),
            (
                SimTime::from_millis(60),
                TraceEvent::UpdateCompleted {
                    request: 2,
                    home: 1,
                    arrived: SimTime::from_millis(20),
                    dispatched: SimTime::from_millis(20),
                    locked: SimTime::from_millis(50),
                    visits: 5,
                },
            ),
        ]);
        let m = PaperMetrics::from_trace(&trace);
        assert_eq!(m.completed, 2);
        assert_eq!(m.writes_arrived, 1);
        // ALTs: 30 and 30 ms.
        assert_eq!(m.mean_alt_ms(), Some(30.0));
        // ATTs: 50 and 40 ms.
        assert_eq!(m.mean_att_ms(), Some(45.0));
        assert_eq!(m.prk(3), 50.0);
        assert_eq!(m.prk(5), 50.0);
        assert_eq!(m.prk(4), 0.0);
    }

    #[test]
    fn span_events_do_not_perturb_the_metrics() {
        use marp_sim::{span_id, SpanKind};
        let base = trace_with(vec![(
            SimTime::from_millis(50),
            TraceEvent::UpdateCompleted {
                request: 1,
                home: 0,
                arrived: SimTime::from_millis(0),
                dispatched: SimTime::from_millis(10),
                locked: SimTime::from_millis(40),
                visits: 3,
            },
        )]);
        let with_spans = trace_with(vec![
            (
                SimTime::from_millis(0),
                TraceEvent::SpanStart {
                    id: span_id(SpanKind::Request, 1, 0),
                    parent: 0,
                    kind: SpanKind::Request,
                    a: 1,
                    b: 0,
                },
            ),
            (
                SimTime::from_millis(5),
                TraceEvent::SpanLink {
                    from: span_id(SpanKind::Request, 1, 0),
                    to: span_id(SpanKind::Dispatch, 9, 0),
                },
            ),
            (
                SimTime::from_millis(50),
                TraceEvent::UpdateCompleted {
                    request: 1,
                    home: 0,
                    arrived: SimTime::from_millis(0),
                    dispatched: SimTime::from_millis(10),
                    locked: SimTime::from_millis(40),
                    visits: 3,
                },
            ),
            (
                SimTime::from_millis(50),
                TraceEvent::SpanEnd {
                    id: span_id(SpanKind::Request, 1, 0),
                    kind: SpanKind::Request,
                },
            ),
        ]);
        let plain = PaperMetrics::from_trace(&base);
        let spanned = PaperMetrics::from_trace(&with_spans);
        assert_eq!(plain.completed, spanned.completed);
        assert_eq!(plain.mean_alt_ms(), spanned.mean_alt_ms());
        assert_eq!(plain.mean_att_ms(), spanned.mean_att_ms());
        assert_eq!(plain.visits, spanned.visits);
    }

    #[test]
    fn merge_pools_every_field() {
        let completion = |at: u64, visits: u32| {
            (
                SimTime::from_millis(at),
                TraceEvent::UpdateCompleted {
                    request: at,
                    home: 0,
                    arrived: SimTime::from_millis(0),
                    dispatched: SimTime::from_millis(0),
                    locked: SimTime::from_millis(at / 2),
                    visits,
                },
            )
        };
        let arrival = (
            SimTime::ZERO,
            TraceEvent::RequestArrived {
                node: 0,
                request: 1,
                write: true,
            },
        );
        let dispatch = TraceEvent::AgentDispatched {
            agent: 1,
            home: 0,
            batch: 1,
        };
        let hop = TraceEvent::AgentMigrated {
            agent: 1,
            from: 0,
            to: 1,
            hops: 1,
        };
        let first = PaperMetrics::from_trace(&trace_with(vec![
            arrival.clone(),
            (SimTime::ZERO, dispatch),
            (SimTime::ZERO, hop),
            completion(10, 3),
            completion(20, 5),
        ]));
        let second = PaperMetrics::from_trace(&trace_with(vec![
            arrival,
            (SimTime::ZERO, TraceEvent::WinAborted { agent: 1 }),
            completion(40, 5),
        ]));
        let mut pooled = first.clone();
        pooled.merge(&second);
        assert_eq!(pooled.alt_ms.values(), [5.0, 10.0, 20.0]);
        assert_eq!(pooled.att_ms.values(), [10.0, 20.0, 40.0]);
        assert_eq!(pooled.visits, BTreeMap::from([(3, 1), (5, 2)]));
        assert_eq!(pooled.writes_arrived, 2);
        assert_eq!(pooled.completed, 3);
        assert_eq!((pooled.migrations, pooled.agents), (1, 1));
        assert_eq!(pooled.aborted_claims, 1);
        assert_eq!(pooled.mean_visits(), Some(13.0 / 3.0));
        assert_eq!(PaperMetrics::default().mean_visits(), None);
    }

    #[test]
    fn empty_trace_yields_empty_metrics() {
        let m = PaperMetrics::from_trace(&TraceLog::new());
        assert_eq!(m.completed, 0);
        assert_eq!(m.mean_alt_ms(), None);
        assert_eq!(m.prk(3), 0.0);
        assert_eq!(m.incomplete(), 0);
    }

    #[test]
    fn migration_and_abort_counters() {
        let trace = trace_with(vec![
            (
                SimTime::from_millis(1),
                TraceEvent::AgentDispatched {
                    agent: 1,
                    home: 0,
                    batch: 1,
                },
            ),
            (
                SimTime::from_millis(2),
                TraceEvent::AgentMigrated {
                    agent: 1,
                    from: 0,
                    to: 1,
                    hops: 1,
                },
            ),
            (
                SimTime::from_millis(3),
                TraceEvent::AgentMigrated {
                    agent: 1,
                    from: 1,
                    to: 2,
                    hops: 2,
                },
            ),
            (SimTime::from_millis(4), TraceEvent::WinAborted { agent: 1 }),
        ]);
        let m = PaperMetrics::from_trace(&trace);
        assert_eq!(m.agents, 1);
        assert_eq!(m.migrations, 2);
        assert_eq!(m.aborted_claims, 1);
        assert_eq!(m.mean_migrations_per_agent(), Some(2.0));
    }
}
