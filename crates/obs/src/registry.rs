//! Per-node metrics registry.
//!
//! A [`MetricsRegistry`] is built by one exhaustive walk over a recorded
//! trace: counters for every traced event by kind (a message appears
//! only when dropped; `RunStats` counts the rest), latency histograms
//! ([`marp_metrics::LogHistogram`]) for the quantities the paper cares
//! about (lock wait, end-to-end commit, migrations per win), and a gauge
//! time-series sampled at a configurable virtual-time interval.

use marp_metrics::LogHistogram;
use marp_sim::{NodeId, SimTime, TraceEvent, TraceLog};
use std::collections::BTreeMap;
use std::time::Duration;

/// Counter and histogram store for one node.
#[derive(Debug, Default, Clone)]
pub struct NodeMetrics {
    /// Monotonic event counters, keyed by a stable metric name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Latency/size histograms, keyed by a stable metric name.
    pub histograms: BTreeMap<&'static str, LogHistogram>,
}

impl NodeMetrics {
    fn bump(&mut self, name: &'static str) {
        *self.counters.entry(name).or_insert(0) += 1;
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms
            .entry(name)
            .or_insert_with(LogHistogram::for_latency_ms)
            .record(value);
    }
}

/// One point of the sampled gauge time-series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSample {
    /// Virtual time of the sample.
    pub at: SimTime,
    /// Spans started but not yet ended at this instant.
    pub open_spans: i64,
    /// Update agents dispatched but not yet disposed.
    pub live_agents: i64,
    /// Writes arrived but not yet completed.
    pub pending_writes: i64,
}

/// The full registry: per-node stores plus the sampled series.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Per-node metrics, keyed by node id.
    pub nodes: BTreeMap<NodeId, NodeMetrics>,
    /// Gauge samples in time order.
    pub samples: Vec<GaugeSample>,
}

impl MetricsRegistry {
    /// Build a registry from a trace, sampling gauges every
    /// `sample_every` of virtual time (pass e.g. 100 ms; granularity
    /// below 1 ns is clamped to 1 ns).
    pub fn from_trace(trace: &TraceLog, sample_every: Duration) -> Self {
        let mut registry = MetricsRegistry::default();
        let step = (sample_every.as_nanos() as u64).max(1);
        let mut next_sample = SimTime::from_nanos(step);
        let mut open_spans: i64 = 0;
        let mut live_agents: i64 = 0;
        let mut pending_writes: i64 = 0;
        for rec in trace.records() {
            while rec.at >= next_sample {
                registry.samples.push(GaugeSample {
                    at: next_sample,
                    open_spans,
                    live_agents,
                    pending_writes,
                });
                next_sample = SimTime::from_nanos(next_sample.as_nanos() + step);
            }
            let node = registry.nodes.entry(rec.node).or_default();
            match rec.event {
                TraceEvent::MsgDropped { .. } => node.bump("msg.dropped"),
                TraceEvent::NodeDown(..) => node.bump("node.down"),
                TraceEvent::NodeUp(..) => node.bump("node.up"),
                TraceEvent::RequestArrived { write, .. } => {
                    if write {
                        node.bump("request.write");
                        pending_writes += 1;
                    } else {
                        node.bump("request.read");
                    }
                }
                TraceEvent::ReadServed { .. } => node.bump("read.served"),
                TraceEvent::AgentDispatched { batch, .. } => {
                    node.bump("agent.dispatched");
                    node.observe("agent.batch_size", batch as f64);
                    live_agents += 1;
                }
                TraceEvent::AgentMigrated { .. } => node.bump("agent.migrated"),
                TraceEvent::AgentMigrateFailed { .. } => node.bump("agent.migrate_failed"),
                TraceEvent::AgentStateShipped { bytes, .. } => {
                    node.bump("agent.state_shipped");
                    node.observe("agent.state_bytes", bytes as f64);
                }
                TraceEvent::ReplicaDeclaredUnavailable { .. } => {
                    node.bump("agent.replica_unavailable")
                }
                TraceEvent::LockRequested { .. } => node.bump("lock.requested"),
                TraceEvent::LockGranted {
                    via_tie, visits, ..
                } => {
                    node.bump("lock.granted");
                    if via_tie {
                        node.bump("lock.granted_via_tie");
                    }
                    node.observe("lock.visits_per_win", f64::from(visits.max(1)));
                }
                TraceEvent::UpdateSent { .. } => node.bump("update.sent"),
                TraceEvent::UpdateAcked { positive, .. } => {
                    if positive {
                        node.bump("update.acked");
                    } else {
                        node.bump("update.nacked");
                    }
                }
                TraceEvent::WinAborted { .. } => node.bump("update.retry"),
                TraceEvent::CommitApplied { .. } => node.bump("commit.applied"),
                TraceEvent::AgentDisposed { agent: _, born } => {
                    node.bump("agent.disposed");
                    node.observe(
                        "agent.lifetime_ms",
                        rec.at.as_millis_f64() - born.as_millis_f64(),
                    );
                    live_agents -= 1;
                }
                TraceEvent::UpdateCompleted {
                    arrived,
                    dispatched,
                    locked,
                    visits,
                    ..
                } => {
                    node.bump("update.completed");
                    pending_writes -= 1;
                    let now = rec.at.as_millis_f64();
                    node.observe("write.total_ms", now - arrived.as_millis_f64());
                    node.observe(
                        "write.lock_wait_ms",
                        locked.as_millis_f64() - dispatched.as_millis_f64(),
                    );
                    node.observe("write.migrations_per_win", f64::from(visits.max(1)));
                }
                TraceEvent::SpanStart { .. } => {
                    node.bump("span.start");
                    open_spans += 1;
                }
                TraceEvent::SpanEnd { .. } => {
                    node.bump("span.end");
                    open_spans -= 1;
                }
                TraceEvent::SpanLink { .. } => node.bump("span.link"),
                TraceEvent::Custom { .. } => node.bump("custom"),
            }
        }
        registry
    }

    /// Render the registry as CSV: one row per (node, metric), counters
    /// first, then histogram quantiles, then the gauge samples.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("section,node,metric,count,p50,p90,p99,p999,max_seen\n");
        for (&node, metrics) in &self.nodes {
            for (&name, &value) in &metrics.counters {
                out.push_str(&format!("counter,{node},{name},{value},,,,,\n"));
            }
            for (&name, hist) in &metrics.histograms {
                let q = |p: f64| {
                    hist.quantile(p)
                        .map(|v| format!("{v:.4}"))
                        .unwrap_or_default()
                };
                out.push_str(&format!(
                    "histogram,{node},{name},{},{},{},{},{},{}\n",
                    hist.total(),
                    q(0.5),
                    q(0.9),
                    q(0.99),
                    q(0.999),
                    q(1.0),
                ));
            }
        }
        for sample in &self.samples {
            out.push_str(&format!(
                "gauge,,t_ms={:.3},open_spans={},live_agents={},pending_writes={},,,\n",
                sample.at.as_millis_f64(),
                sample.open_spans,
                sample.live_agents,
                sample.pending_writes,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::{span_id, SpanKind};

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new();
        log.push(
            SimTime::from_millis(1),
            0,
            TraceEvent::RequestArrived {
                node: 0,
                request: 1,
                write: true,
            },
        );
        log.push(
            SimTime::from_millis(2),
            0,
            TraceEvent::AgentDispatched {
                agent: 7,
                home: 0,
                batch: 2,
            },
        );
        log.push(
            SimTime::from_millis(2),
            0,
            TraceEvent::SpanStart {
                id: span_id(SpanKind::Dispatch, 7, 0),
                parent: 0,
                kind: SpanKind::Dispatch,
                a: 7,
                b: 0,
            },
        );
        log.push(
            SimTime::from_millis(150),
            1,
            TraceEvent::AgentMigrated {
                agent: 7,
                from: 0,
                to: 1,
                hops: 1,
            },
        );
        log.push(
            SimTime::from_millis(320),
            0,
            TraceEvent::UpdateCompleted {
                request: 1,
                home: 0,
                arrived: SimTime::from_millis(1),
                dispatched: SimTime::from_millis(2),
                locked: SimTime::from_millis(200),
                visits: 3,
            },
        );
        log.push(
            SimTime::from_millis(321),
            0,
            TraceEvent::SpanEnd {
                id: span_id(SpanKind::Dispatch, 7, 0),
                kind: SpanKind::Dispatch,
            },
        );
        log
    }

    #[test]
    fn counters_land_on_the_emitting_node() {
        let registry = MetricsRegistry::from_trace(&sample_log(), Duration::from_millis(100));
        assert_eq!(registry.nodes[&0].counters["agent.dispatched"], 1);
        assert_eq!(registry.nodes[&1].counters["agent.migrated"], 1);
        assert_eq!(registry.nodes[&0].counters["span.start"], 1);
        assert_eq!(registry.nodes[&0].counters["span.end"], 1);
        let lock_wait = &registry.nodes[&0].histograms["write.lock_wait_ms"];
        assert_eq!(lock_wait.total(), 1);
        assert!(lock_wait.quantile(0.5).unwrap() > 150.0);
    }

    #[test]
    fn gauges_are_sampled_on_the_requested_grid() {
        let registry = MetricsRegistry::from_trace(&sample_log(), Duration::from_millis(100));
        // Samples at 100, 200, 300 ms (records end at 321 ms).
        assert_eq!(registry.samples.len(), 3);
        assert_eq!(registry.samples[0].at, SimTime::from_millis(100));
        assert_eq!(registry.samples[0].open_spans, 1);
        assert_eq!(registry.samples[0].live_agents, 1);
        assert_eq!(registry.samples[0].pending_writes, 1);
        assert_eq!(registry.samples[2].pending_writes, 1);
    }

    #[test]
    fn csv_has_counter_histogram_and_gauge_sections() {
        let registry = MetricsRegistry::from_trace(&sample_log(), Duration::from_millis(100));
        let csv = registry.to_csv();
        assert!(csv.starts_with("section,node,metric,count,p50,p90,p99,p999,max_seen"));
        assert!(csv.contains("counter,0,agent.dispatched,1"));
        assert!(csv.contains("histogram,0,write.total_ms,1"));
        assert!(csv.contains("gauge,,t_ms=100.000"));
        // Every row has the same number of columns as the header.
        let columns = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
        }
    }

    /// `for_latency_ms` buckets grow 5% per step, so a quantile is the
    /// lower bound of the bucket its sample landed in: within 5% below
    /// the true value.
    fn assert_within_bucket(q: f64, expected: f64) {
        assert!(
            q <= expected && q > expected / 1.05 - 1e-9,
            "quantile {q} not within one bucket below {expected}"
        );
    }

    #[test]
    fn histogram_percentiles_pin_a_known_uniform_distribution() {
        let mut hist = LogHistogram::for_latency_ms();
        for i in 1..=1000 {
            hist.record(i as f64);
        }
        assert_eq!(hist.total(), 1000);
        let p50 = hist.quantile(0.5).unwrap();
        let p99 = hist.quantile(0.99).unwrap();
        let p999 = hist.quantile(0.999).unwrap();
        assert_within_bucket(p50, 500.0);
        assert_within_bucket(p99, 990.0);
        assert_within_bucket(p999, 999.0);
        assert!(p50 <= p99 && p99 <= p999);
        assert!(p999 <= hist.quantile(1.0).unwrap());
    }

    #[test]
    fn histogram_percentiles_pin_a_heavy_tail() {
        // 990 fast samples at 1 ms, 10 stragglers at 1000 ms: the tail
        // is invisible at p50 but dominates p999.
        let mut hist = LogHistogram::for_latency_ms();
        for _ in 0..990 {
            hist.record(1.0);
        }
        for _ in 0..10 {
            hist.record(1000.0);
        }
        assert_within_bucket(hist.quantile(0.5).unwrap(), 1.0);
        assert_within_bucket(hist.quantile(0.999).unwrap(), 1000.0);
        // p99 sits right at the boundary: 990 of 1000 samples are fast.
        let p99 = hist.quantile(0.99).unwrap();
        assert!(p99 <= 1000.0);
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        // Empty histogram: no quantiles at all.
        let empty = LogHistogram::for_latency_ms();
        assert_eq!(empty.total(), 0);
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.quantile(0.999), None);

        // Single sample: every percentile is that sample's bucket.
        let mut single = LogHistogram::for_latency_ms();
        single.record(42.0);
        let p50 = single.quantile(0.5).unwrap();
        assert_eq!(single.quantile(0.99).unwrap(), p50);
        assert_eq!(single.quantile(0.999).unwrap(), p50);
        assert_within_bucket(p50, 42.0);

        // A sample below the histogram floor lands in the underflow
        // bucket and reports as 0.
        let mut tiny = LogHistogram::for_latency_ms();
        tiny.record(0.0001);
        assert_eq!(tiny.quantile(0.999), Some(0.0));
    }
}
