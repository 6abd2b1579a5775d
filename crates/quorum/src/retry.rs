//! Retry/backoff policy: how long to wait before attempt `k + 1`.

use std::time::Duration;

/// How the delay grows with the attempt count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Growth {
    /// `base * min(attempt, max_factor)`. With `max_factor = 1` the
    /// delay is constant (the migration-retry schedule).
    Linear {
        /// Cap on the multiplier.
        max_factor: u32,
    },
    /// `base * 2^min(attempt, max_doublings)`.
    Exponential {
        /// Cap on the exponent.
        max_doublings: u32,
    },
}

/// A pure, deterministic backoff schedule.
///
/// [`next_delay`](Self::next_delay) is a function of the attempt number
/// alone; the per-node stagger (which de-synchronizes retry storms
/// across nodes) is folded in at construction via
/// [`staggered`](Self::staggered), so two calls with the same policy
/// and attempt always yield the same delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Base delay, multiplied per [`Growth`].
    pub base: Duration,
    /// Growth mode.
    pub growth: Growth,
    /// Fixed additive offset (deterministic per-node stagger).
    pub stagger: Duration,
}

impl RetryPolicy {
    /// The workspace-wide coordinator default: 8 ms, growing linearly
    /// and capped at 16×. MCV and weighted voting back off with it, so
    /// changing it retunes both; on a topology slower than a LAN,
    /// [`with_min_base`](Self::with_min_base) lifts the base to the
    /// worst one-way latency (a retry sooner than one hop cannot
    /// observe a changed world).
    pub const COORDINATOR: RetryPolicy = RetryPolicy {
        base: Duration::from_millis(8),
        growth: Growth::Linear { max_factor: 16 },
        stagger: Duration::ZERO,
    };

    /// Linearly growing backoff with no stagger.
    pub fn linear(base: Duration, max_factor: u32) -> Self {
        RetryPolicy {
            base,
            growth: Growth::Linear { max_factor },
            stagger: Duration::ZERO,
        }
    }

    /// Exponentially growing backoff with no stagger.
    pub fn exponential(base: Duration, max_doublings: u32) -> Self {
        RetryPolicy {
            base,
            growth: Growth::Exponential { max_doublings },
            stagger: Duration::ZERO,
        }
    }

    /// A constant delay for every attempt (migration retries).
    pub fn fixed(delay: Duration) -> Self {
        RetryPolicy::linear(delay, 1)
    }

    /// Fold in a deterministic per-node stagger of
    /// `unit * (key % modulus)` (`modulus = 0` means no reduction:
    /// `unit * key`).
    pub fn staggered(mut self, unit: Duration, key: u64, modulus: u64) -> Self {
        let steps = if modulus == 0 { key } else { key % modulus };
        self.stagger = unit.saturating_mul(u32::try_from(steps).unwrap_or(u32::MAX));
        self
    }

    /// Raise the base delay to at least `floor` (latency scaling).
    pub fn with_min_base(mut self, floor: Duration) -> Self {
        self.base = self.base.max(floor);
        self
    }

    /// Delay before retrying after `attempt` failures. Monotone
    /// non-decreasing in `attempt` up to the growth cap, then constant.
    pub fn next_delay(&self, attempt: u32) -> Duration {
        let grown = match self.growth {
            Growth::Linear { max_factor } => self.base.saturating_mul(attempt.min(max_factor)),
            Growth::Exponential { max_doublings } => self.base.saturating_mul(
                1u32.checked_shl(attempt.min(max_doublings))
                    .unwrap_or(u32::MAX),
            ),
        };
        grown.saturating_add(self.stagger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_matches_the_legacy_coordinator_schedule() {
        // The schedule previously copy-pasted into MCV and weighted
        // voting: base * attempts.min(16) + 500µs * node.
        let policy = RetryPolicy::COORDINATOR.staggered(Duration::from_micros(500), 3, 0);
        assert_eq!(
            policy.next_delay(1),
            Duration::from_millis(8) + Duration::from_micros(1500)
        );
        assert_eq!(
            policy.next_delay(20),
            Duration::from_millis(8 * 16) + Duration::from_micros(1500)
        );
    }

    #[test]
    fn exponential_matches_the_legacy_repoll_schedule() {
        // The parked-agent re-poll: base * 2^min(round, 3) + (key % 8) ms.
        let policy = RetryPolicy::exponential(Duration::from_millis(25), 3).staggered(
            Duration::from_millis(1),
            13,
            8,
        );
        assert_eq!(policy.next_delay(0), Duration::from_millis(25 + 5));
        assert_eq!(policy.next_delay(1), Duration::from_millis(50 + 5));
        assert_eq!(policy.next_delay(3), Duration::from_millis(200 + 5));
        assert_eq!(policy.next_delay(9), Duration::from_millis(200 + 5));
    }

    #[test]
    fn fixed_ignores_the_attempt_count() {
        let policy = RetryPolicy::fixed(Duration::from_millis(500));
        assert_eq!(policy.next_delay(1), policy.next_delay(100));
    }

    #[test]
    fn the_coordinator_default_lifts_its_base_to_latency() {
        let lan = RetryPolicy::COORDINATOR.with_min_base(Duration::from_millis(2));
        assert_eq!(lan, RetryPolicy::COORDINATOR);
        let wan = RetryPolicy::COORDINATOR.with_min_base(Duration::from_millis(200));
        assert_eq!(wan.base, Duration::from_millis(200));
        assert_eq!(
            wan.with_min_base(Duration::from_millis(300)).base,
            Duration::from_millis(300)
        );
    }
}
