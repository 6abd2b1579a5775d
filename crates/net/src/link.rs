//! Per-message link delay models.
//!
//! The total delivery delay of one message is
//!
//! ```text
//! delay = base_latency · jitter_factor + size / bandwidth + per_message_overhead
//! ```
//!
//! where `base_latency` comes from the [`Topology`](crate::Topology),
//! jitter models Internet variance (the paper cites "long, variable
//! communication latency"), the bandwidth term penalizes large payloads —
//! crucially, a migrating agent is much larger than a plain protocol
//! message, which recreates the Aglets-era agent-transfer cost — and the
//! overhead term covers marshalling/stack traversal.

use marp_sim::dist::{LogNormal, Sample};
use marp_sim::SimRng;
use std::time::Duration;

/// How the base latency is perturbed per message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Jitter {
    /// No jitter: delay is exactly the base latency (plus size terms).
    None,
    /// Multiplicative log-normal jitter with median 1 and the given
    /// shape; heavier `sigma` → heavier tail of slow deliveries.
    LogNormal {
        /// Shape of the underlying normal (≥ 0).
        sigma: f64,
    },
}

impl Jitter {
    fn factor(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Jitter::None => 1.0,
            Jitter::LogNormal { sigma } => LogNormal::from_median(1.0, sigma).sample(rng),
        }
    }
}

/// A complete link delay model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Jitter applied to the propagation component.
    pub jitter: Jitter,
    /// Usable bandwidth in bytes/second; `None` means size-independent.
    pub bandwidth: Option<f64>,
    /// Fixed per-message overhead (marshalling, protocol stack).
    pub overhead: Duration,
    /// Delay for a node sending to itself (loopback).
    pub local_delay: Duration,
}

impl LinkModel {
    /// An idealized model: no jitter, infinite bandwidth, no overhead.
    pub fn ideal() -> Self {
        LinkModel {
            jitter: Jitter::None,
            bandwidth: None,
            overhead: Duration::ZERO,
            local_delay: Duration::ZERO,
        }
    }

    /// A model calibrated to the paper's testbed era: 10 Mbit/s LAN,
    /// ~0.3 ms per-message software overhead, mild jitter. Agent
    /// migrations (kilobytes of serialized state) cost noticeably more
    /// than small control messages, as with Aglets on JDK 1.1.
    pub fn lan_1990s() -> Self {
        LinkModel {
            jitter: Jitter::LogNormal { sigma: 0.12 },
            bandwidth: Some(10.0e6 / 8.0),
            overhead: Duration::from_micros(300),
            local_delay: Duration::from_micros(20),
        }
    }

    /// A wide-area model: heavier jitter tail and lower usable
    /// bandwidth, per the Internet behaviour the paper cites.
    pub fn wan() -> Self {
        LinkModel {
            jitter: Jitter::LogNormal { sigma: 0.35 },
            bandwidth: Some(1.5e6 / 8.0),
            overhead: Duration::from_micros(500),
            local_delay: Duration::from_micros(20),
        }
    }

    /// Compute the delivery delay of one message.
    pub fn delay(&self, base: Duration, size: usize, rng: &mut SimRng) -> Duration {
        let propagation = marp_sim::scale_duration(base, self.jitter.factor(rng));
        let transmission = match self.bandwidth {
            Some(bw) if bw > 0.0 => Duration::from_nanos((size as f64 / bw * 1e9) as u64),
            _ => Duration::ZERO,
        };
        propagation + transmission + self.overhead
    }

    /// Delay for a loopback message.
    pub fn local(&self) -> Duration {
        self.local_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_model_is_exact() {
        let model = LinkModel::ideal();
        let mut rng = SimRng::from_seed(1);
        assert_eq!(
            model.delay(Duration::from_millis(7), 1_000_000, &mut rng),
            Duration::from_millis(7)
        );
    }

    #[test]
    fn bandwidth_term_scales_with_size() {
        let model = LinkModel {
            jitter: Jitter::None,
            bandwidth: Some(1_000_000.0), // 1 MB/s
            overhead: Duration::ZERO,
            local_delay: Duration::ZERO,
        };
        let mut rng = SimRng::from_seed(2);
        let small = model.delay(Duration::ZERO, 1_000, &mut rng);
        let large = model.delay(Duration::ZERO, 100_000, &mut rng);
        assert_eq!(small, Duration::from_millis(1));
        assert_eq!(large, Duration::from_millis(100));
    }

    #[test]
    fn overhead_is_additive() {
        let model = LinkModel {
            jitter: Jitter::None,
            bandwidth: None,
            overhead: Duration::from_micros(250),
            local_delay: Duration::ZERO,
        };
        let mut rng = SimRng::from_seed(3);
        assert_eq!(
            model.delay(Duration::from_millis(1), 0, &mut rng),
            Duration::from_micros(1_250)
        );
    }

    #[test]
    fn lognormal_jitter_centers_on_base() {
        let model = LinkModel {
            jitter: Jitter::LogNormal { sigma: 0.3 },
            bandwidth: None,
            overhead: Duration::ZERO,
            local_delay: Duration::ZERO,
        };
        let mut rng = SimRng::from_seed(4);
        let base = Duration::from_millis(10);
        let mut delays: Vec<u64> = (0..10_001)
            .map(|_| marp_sim::duration_nanos(model.delay(base, 0, &mut rng)))
            .collect();
        delays.sort_unstable();
        let median = delays[delays.len() / 2];
        let base_ns = marp_sim::duration_nanos(base);
        let rel_err = (median as f64 - base_ns as f64).abs() / (base_ns as f64);
        assert!(rel_err < 0.05, "median = {median}, base = {base_ns}");
    }

    #[test]
    fn presets_have_sane_shapes() {
        let mut rng = SimRng::from_seed(6);
        let lan = LinkModel::lan_1990s();
        // A 4 KiB agent hop on a 2 ms LAN link should land in a
        // believable couple-of-ms window.
        let d = lan.delay(Duration::from_millis(2), 4096, &mut rng);
        assert!(
            d > Duration::from_millis(2) && d < Duration::from_millis(10),
            "{d:?}"
        );
        let wan = LinkModel::wan();
        let d = wan.delay(Duration::from_millis(80), 4096, &mut rng);
        assert!(d > Duration::from_millis(30), "{d:?}");
    }
}
