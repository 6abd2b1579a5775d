//! The virtual-clock facts of one `run_scenario` call, and their pool
//! over a pass's seeds. Everything here is a pure function of the seed:
//! two passes over the same seeds must pool to equal [`Facts`], or the
//! simulator has lost its determinism.

use marp_lab::RunOutcome;
use marp_sim::{RunStats, SimTime, TraceEvent, TraceLog};
use std::time::Duration;

/// What one run, or several pooled, did on the virtual clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Facts {
    /// Client-observed write latencies (ms), issue to acknowledgement.
    pub write_ms: Vec<f64>,
    /// Client-observed read latencies (ms).
    pub read_ms: Vec<f64>,
    /// Requests clients issued, reads and writes.
    pub issued: u64,
    /// Acknowledged writes no replica applied (must stay 0).
    pub lost_acked: u64,
    /// Client resends.
    pub retries: u64,
    /// Requests abandoned after the last resend.
    pub abandoned: u64,
    /// Writes that arrived at a server.
    pub writes_arrived: u64,
    /// Writes the protocol completed (`UpdateCompleted`).
    pub completed: u64,
    /// Sum of the paper's ALT over completed writes (ms).
    pub alt_sum_ms: f64,
    /// Sum of the paper's ATT over completed writes (ms).
    pub att_sum_ms: f64,
    /// Agent migrations.
    pub migrations: u64,
    /// Claims the validation round aborted.
    pub aborted_claims: u64,
    /// Simulation events.
    pub events: u64,
    /// Timer callbacks among them.
    pub timers: u64,
    /// Messages submitted to the transport.
    pub messages: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Bytes submitted to the transport.
    pub bytes: u64,
    /// The same by leading wire tag.
    pub bytes_by_kind: [u64; 16],
    /// Serialized agent state shipped in migrations.
    pub agent_bytes_migrated: u64,
    /// First write arrival to last write completion, summed over runs.
    pub busy: Duration,
    /// Every audit passed.
    pub audit_ok: bool,
}

impl Facts {
    /// The facts of one run: what `run_scenario` reports, plus the busy
    /// interval, which only the trace knows.
    pub fn of_run(outcome: &RunOutcome, trace: &TraceLog) -> Self {
        let stats: &RunStats = &outcome.stats;
        Facts {
            write_ms: outcome.client_write_ms.values().to_vec(),
            read_ms: outcome.client_read_ms.values().to_vec(),
            issued: outcome.issued,
            lost_acked: outcome.lost_acked_writes.len() as u64,
            retries: outcome.retries,
            abandoned: outcome.abandoned,
            writes_arrived: outcome.metrics.writes_arrived,
            completed: outcome.metrics.completed,
            alt_sum_ms: outcome.metrics.alt_ms.values().iter().sum(),
            att_sum_ms: outcome.metrics.att_ms.values().iter().sum(),
            migrations: outcome.metrics.migrations,
            aborted_claims: outcome.metrics.aborted_claims,
            audit_ok: outcome.audit.ok(),
            events: stats.events,
            timers: stats.timers_fired,
            messages: stats.messages_sent,
            dropped: stats.messages_dropped,
            bytes: stats.bytes_sent,
            bytes_by_kind: stats.bytes_by_kind,
            agent_bytes_migrated: stats.agent_bytes_migrated,
            busy: busy_interval(trace),
        }
    }

    /// Pool another run's facts into these.
    pub fn pool(&mut self, other: &Facts) {
        self.write_ms.extend_from_slice(&other.write_ms);
        self.read_ms.extend_from_slice(&other.read_ms);
        self.issued += other.issued;
        self.lost_acked += other.lost_acked;
        self.retries += other.retries;
        self.abandoned += other.abandoned;
        self.writes_arrived += other.writes_arrived;
        self.completed += other.completed;
        self.alt_sum_ms += other.alt_sum_ms;
        self.att_sum_ms += other.att_sum_ms;
        self.migrations += other.migrations;
        self.aborted_claims += other.aborted_claims;
        self.events += other.events;
        self.timers += other.timers;
        self.messages += other.messages;
        self.dropped += other.dropped;
        self.bytes += other.bytes;
        for (mine, theirs) in self.bytes_by_kind.iter_mut().zip(other.bytes_by_kind) {
            *mine += theirs;
        }
        self.agent_bytes_migrated += other.agent_bytes_migrated;
        self.busy += other.busy;
        self.audit_ok &= other.audit_ok;
    }

    /// An empty pool (`audit_ok` starts true).
    pub fn empty_pool() -> Self {
        Facts {
            audit_ok: true,
            ..Facts::default()
        }
    }

    /// Operations clients saw acknowledged.
    pub fn acked(&self) -> u64 {
        (self.write_ms.len() + self.read_ms.len()) as u64
    }

    /// Operations that failed: issued and never acknowledged (abandoned,
    /// rejected or unanswered at the horizon), or acknowledged and lost.
    pub fn failed(&self) -> u64 {
        self.issued - self.acked() + self.lost_acked
    }

    /// Every client-observed latency, writes then reads.
    pub fn op_ms(&self) -> Vec<f64> {
        let mut all = self.write_ms.clone();
        all.extend_from_slice(&self.read_ms);
        all
    }
}

/// First write arrival at a server to the last write completion.
fn busy_interval(trace: &TraceLog) -> Duration {
    let mut first: Option<SimTime> = None;
    let mut last = SimTime::ZERO;
    for record in trace.records() {
        match record.event {
            TraceEvent::RequestArrived { write: true, .. } if first.is_none() => {
                first = Some(record.at);
            }
            TraceEvent::UpdateCompleted { .. } => last = record.at,
            _ => {}
        }
    }
    first.map_or(Duration::ZERO, |first| last.saturating_since(first))
}
