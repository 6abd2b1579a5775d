//! Request batching.
//!
//! Paper §3.2: "Requests received from the client will be stored on each
//! individual replica server Si. After a pre-defined number of requests
//! have been received or periodically, a mobile agent will be created
//! and dispatched by Si for processing the requests." The batcher
//! implements exactly that dual trigger; batch size is ablation
//! experiment E11.

use crate::msg::WriteRequest;
use marp_sim::SimTime;
use std::time::Duration;

/// Dispatch when the oldest pending write has waited this long.
pub const MAX_WAIT: Duration = Duration::from_millis(50);

/// Batching configuration.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Dispatch as soon as this many writes are pending.
    pub max_batch: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            // The paper's figures are per-request latencies; a batch of
            // one makes every agent carry a single request, matching the
            // evaluation, while larger batches are the E11 sweep.
            max_batch: 1,
        }
    }
}

/// Accumulates write requests until a dispatch trigger fires.
#[derive(Debug)]
pub struct RequestBatcher {
    cfg: BatchConfig,
    pending: Vec<WriteRequest>,
    oldest_at: Option<SimTime>,
}

impl RequestBatcher {
    /// Empty batcher with the given config.
    pub fn new(cfg: BatchConfig) -> Self {
        RequestBatcher {
            cfg,
            pending: Vec::new(),
            oldest_at: None,
        }
    }

    /// Queue a write. Returns the full batch when the size trigger
    /// fires; otherwise `None` — if that left this write the only one
    /// pending, the owner arms a timer for [`RequestBatcher::due_in`]
    /// and calls [`RequestBatcher::take_if_due`] when it fires.
    pub fn push(&mut self, request: WriteRequest, now: SimTime) -> Option<Vec<WriteRequest>> {
        if self.pending.is_empty() {
            self.oldest_at = Some(now);
        }
        self.pending.push(request);
        if self.pending.len() >= self.cfg.max_batch {
            Some(self.drain())
        } else {
            None
        }
    }

    /// Take the batch if the oldest request has waited at least
    /// [`MAX_WAIT`].
    pub fn take_if_due(&mut self, now: SimTime) -> Option<Vec<WriteRequest>> {
        match self.oldest_at {
            Some(oldest) if now.saturating_since(oldest) >= MAX_WAIT => Some(self.drain()),
            _ => None,
        }
    }

    /// How long until the oldest pending write has waited [`MAX_WAIT`]
    /// (zero once it has); `None` while nothing is pending, when there
    /// is no deadline to arm.
    pub fn due_in(&self, now: SimTime) -> Option<Duration> {
        let waited = now.saturating_since(self.oldest_at?);
        Some(MAX_WAIT.saturating_sub(waited))
    }

    /// Unconditionally take whatever is pending.
    pub fn drain(&mut self) -> Vec<WriteRequest> {
        self.oldest_at = None;
        std::mem::take(&mut self.pending)
    }

    /// Number of queued writes.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Current size trigger.
    pub fn max_batch(&self) -> usize {
        self.cfg.max_batch
    }

    /// Adjust the size trigger at runtime (adaptive batching: coalesce
    /// harder when the system is backed up). Takes effect on the next
    /// push; a pending batch that already meets the new size is
    /// released by the next push or its deadline.
    pub fn set_max_batch(&mut self, max_batch: usize) {
        self.cfg.max_batch = max_batch.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, at: SimTime) -> WriteRequest {
        WriteRequest {
            id,
            client: 9,
            key: id,
            value: id * 2,
            arrived: at,
        }
    }

    #[test]
    fn size_trigger_dispatches_full_batch() {
        let mut batcher = RequestBatcher::new(BatchConfig { max_batch: 3 });
        let t = SimTime::from_millis(1);
        assert!(batcher.push(request(1, t), t).is_none());
        assert!(batcher.push(request(2, t), t).is_none());
        let batch = batcher.push(request(3, t), t).expect("full");
        assert_eq!(
            batch.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(batcher.is_empty());
    }

    #[test]
    fn batch_of_one_dispatches_immediately() {
        let mut batcher = RequestBatcher::new(BatchConfig::default());
        let t = SimTime::from_millis(5);
        assert_eq!(batcher.push(request(7, t), t).unwrap().len(), 1);
    }

    #[test]
    fn time_trigger_waits_for_max_wait() {
        let mut batcher = RequestBatcher::new(BatchConfig { max_batch: 100 });
        let t0 = SimTime::from_millis(10);
        batcher.push(request(1, t0), t0);
        assert!(batcher.take_if_due(SimTime::from_millis(55)).is_none());
        let batch = batcher.take_if_due(SimTime::from_millis(60)).expect("due");
        assert_eq!(batch.len(), 1);
        // Nothing pending → never due.
        assert!(batcher.take_if_due(SimTime::from_millis(199)).is_none());
    }

    #[test]
    fn the_deadline_counts_down_from_the_oldest_write() {
        let mut batcher = RequestBatcher::new(BatchConfig { max_batch: 100 });
        let at = SimTime::from_millis;
        assert_eq!(batcher.due_in(at(5)), None, "nothing pending, no deadline");
        batcher.push(request(1, at(10)), at(10));
        assert_eq!(batcher.due_in(at(10)), Some(MAX_WAIT));
        batcher.push(request(2, at(55)), at(55));
        assert_eq!(batcher.due_in(at(55)), Some(Duration::from_millis(5)));
        // Overdue is due now, and exactly then `take_if_due` agrees.
        assert_eq!(batcher.due_in(at(60)), Some(Duration::ZERO));
        assert_eq!(batcher.due_in(at(199)), Some(Duration::ZERO));
        assert_eq!(batcher.take_if_due(at(60)).map(|b| b.len()), Some(2));
        assert_eq!(batcher.due_in(at(60)), None);
    }

    #[test]
    fn age_is_measured_from_oldest() {
        let mut batcher = RequestBatcher::new(BatchConfig { max_batch: 100 });
        batcher.push(request(1, SimTime::from_millis(0)), SimTime::from_millis(0));
        batcher.push(
            request(2, SimTime::from_millis(49)),
            SimTime::from_millis(49),
        );
        let batch = batcher.take_if_due(SimTime::from_millis(50)).expect("due");
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn max_batch_is_adjustable() {
        let mut batcher = RequestBatcher::new(BatchConfig { max_batch: 1 });
        assert_eq!(batcher.max_batch(), 1);
        batcher.set_max_batch(3);
        assert_eq!(batcher.max_batch(), 3);
        let t = SimTime::ZERO;
        assert!(batcher.push(request(1, t), t).is_none());
        assert!(batcher.push(request(2, t), t).is_none());
        assert_eq!(batcher.push(request(3, t), t).unwrap().len(), 3);
        batcher.set_max_batch(0); // clamped to 1
        assert_eq!(batcher.max_batch(), 1);
    }

    #[test]
    fn drain_resets_age() {
        let mut batcher = RequestBatcher::new(BatchConfig { max_batch: 100 });
        batcher.push(request(1, SimTime::ZERO), SimTime::ZERO);
        assert_eq!(batcher.len(), 1);
        assert_eq!(batcher.drain().len(), 1);
        assert!(batcher.take_if_due(SimTime::from_secs(10)).is_none());
    }
}
