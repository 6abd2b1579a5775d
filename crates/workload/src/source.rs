//! [`WorkloadSource`] — an arrival process plus an operation mix,
//! bounded by request count, plugged straight into a
//! [`marp_replica::ClientProcess`].

use crate::arrival::{ArrivalGen, ArrivalProcess};
use crate::mix::{KeyDist, OpGen, OpMix};
use marp_replica::{Operation, RequestSource};
use marp_sim::SimRng;
use std::time::Duration;

/// A bounded stochastic request stream.
pub struct WorkloadSource {
    arrivals: ArrivalGen,
    ops: OpGen,
    remaining: u64,
}

impl WorkloadSource {
    /// Create a source emitting at most `count` requests.
    pub fn new(arrival: &ArrivalProcess, mix: &OpMix, count: u64, seed: u64) -> Self {
        WorkloadSource {
            arrivals: arrival.start(SimRng::derive(seed, "arrivals")),
            ops: mix.start(SimRng::derive(seed, "ops")),
            remaining: count,
        }
    }

    /// The paper's per-server workload for Figures 2–4: `count`
    /// write-only requests with exponential inter-arrival times.
    pub fn paper_writes(mean_interarrival_ms: f64, count: u64, seed: u64) -> Self {
        Self::new(
            &ArrivalProcess::Exponential {
                mean_ms: mean_interarrival_ms,
            },
            &OpMix::write_only(KeyDist::Single),
            count,
            seed,
        )
    }
}

impl RequestSource for WorkloadSource {
    fn next_request(&mut self) -> Option<(Duration, Operation)> {
        if self.remaining == 0 {
            return None;
        }
        let gap = self.arrivals.next_gap();
        self.remaining -= 1;
        Some((gap, self.ops.next_op()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_bound_is_respected() {
        let mut source = WorkloadSource::paper_writes(10.0, 5, 1);
        let mut seen = 0;
        while source.next_request().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 5);
        assert!(source.next_request().is_none());
    }

    #[test]
    fn paper_writes_are_write_only_single_key() {
        let mut source = WorkloadSource::paper_writes(10.0, 100, 2);
        while let Some((gap, op)) = source.next_request() {
            assert!(gap > Duration::ZERO);
            assert!(op.is_write());
            assert_eq!(op.key(), 0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let collect = |seed| {
            let mut source = WorkloadSource::paper_writes(5.0, 20, seed);
            let mut items = Vec::new();
            while let Some(item) = source.next_request() {
                items.push(item);
            }
            items
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }
}
