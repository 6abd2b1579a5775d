//! Network topologies.
//!
//! A [`Topology`] is a complete directed latency matrix over `n` nodes.
//! Three builders cover the environments the paper discusses: the LAN its
//! prototype ran on, a clustered wide-area network, and an Internet-like
//! random-geometric spread with long, heterogeneous latencies.

use marp_sim::{NodeId, SimRng};
use std::time::Duration;

/// A complete directed graph of one-way link latencies.
#[derive(Debug, Clone)]
pub struct Topology {
    n: usize,
    /// Row-major `n × n` base one-way latencies in nanoseconds.
    latency: Vec<u64>,
}

impl Topology {
    /// Build from an explicit latency matrix (row-major, `n × n`).
    pub fn from_matrix(n: usize, latencies: Vec<Duration>) -> Self {
        assert_eq!(latencies.len(), n * n, "matrix must be n × n");
        Topology {
            n,
            latency: latencies
                .into_iter()
                .map(marp_sim::duration_nanos)
                .collect(),
        }
    }

    /// A uniform LAN: every distinct pair has the same `base` latency.
    /// This models the paper's testbed (SUN workstations on one segment).
    pub fn uniform_lan(n: usize, base: Duration) -> Self {
        let base_ns = marp_sim::duration_nanos(base);
        let mut latency = vec![base_ns; n * n];
        for i in 0..n {
            latency[i * n + i] = 0;
        }
        Topology { n, latency }
    }

    /// Clusters of LANs joined by slow wide-area links: `sizes[k]` nodes
    /// in cluster `k`, `intra` latency inside a cluster, `inter` between
    /// clusters.
    pub fn clustered_wan(sizes: &[usize], intra: Duration, inter: Duration) -> Self {
        let n: usize = sizes.iter().sum();
        assert!(n > 0, "need at least one node");
        let mut cluster_of = Vec::with_capacity(n);
        for (k, &size) in sizes.iter().enumerate() {
            cluster_of.extend(std::iter::repeat_n(k, size));
        }
        let intra_ns = marp_sim::duration_nanos(intra);
        let inter_ns = marp_sim::duration_nanos(inter);
        let mut latency = vec![0u64; n * n];
        for i in 0..n {
            for j in 0..n {
                latency[i * n + j] = if i == j {
                    0
                } else if cluster_of[i] == cluster_of[j] {
                    intra_ns
                } else {
                    inter_ns
                };
            }
        }
        Topology { n, latency }
    }

    /// An Internet-like topology: nodes scattered uniformly on a square
    /// whose side corresponds to `side` of one-way latency; pair latency
    /// is the Euclidean distance plus a `floor` per-hop minimum. Latency
    /// is symmetric.
    pub fn random_geometric(n: usize, side: Duration, floor: Duration, rng: &mut SimRng) -> Self {
        assert!(n > 0, "need at least one node");
        let side_ns = marp_sim::duration_nanos(side) as f64;
        let floor_ns = marp_sim::duration_nanos(floor);
        let points: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.f64() * side_ns, rng.f64() * side_ns))
            .collect();
        let mut latency = vec![0u64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = points[i].0 - points[j].0;
                let dy = points[i].1 - points[j].1;
                let dist = (dx * dx + dy * dy).sqrt() as u64 + floor_ns;
                latency[i * n + j] = dist;
                latency[j * n + i] = dist;
            }
        }
        Topology { n, latency }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// One-way base latency from `a` to `b`.
    pub fn latency(&self, a: NodeId, b: NodeId) -> Duration {
        Duration::from_nanos(self.latency_nanos(a, b))
    }

    /// One-way base latency in raw nanoseconds.
    pub fn latency_nanos(&self, a: NodeId, b: NodeId) -> u64 {
        self.latency[usize::from(a) * self.n + usize::from(b)]
    }

    /// Overwrite one directed link's base latency.
    pub fn set_latency(&mut self, a: NodeId, b: NodeId, latency: Duration) {
        self.latency[usize::from(a) * self.n + usize::from(b)] = marp_sim::duration_nanos(latency);
    }

    /// Maximum one-way latency over distinct ordered pairs — the number
    /// protocol timeouts must respect.
    pub fn max_latency(&self) -> Duration {
        Duration::from_nanos(self.latency.iter().copied().max().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_lan_is_uniform() {
        let topo = Topology::uniform_lan(4, Duration::from_millis(2));
        for a in 0..4u16 {
            for b in 0..4u16 {
                let expected = if a == b {
                    Duration::ZERO
                } else {
                    Duration::from_millis(2)
                };
                assert_eq!(topo.latency(a, b), expected);
            }
        }
    }

    #[test]
    fn clustered_wan_distinguishes_intra_inter() {
        let topo =
            Topology::clustered_wan(&[2, 3], Duration::from_millis(1), Duration::from_millis(40));
        assert_eq!(topo.len(), 5);
        assert_eq!(topo.latency(0, 1), Duration::from_millis(1));
        assert_eq!(topo.latency(2, 4), Duration::from_millis(1));
        assert_eq!(topo.latency(0, 2), Duration::from_millis(40));
        assert_eq!(topo.latency(4, 1), Duration::from_millis(40));
        assert_eq!(topo.latency(3, 3), Duration::ZERO);
    }

    #[test]
    fn random_geometric_is_symmetric_and_bounded() {
        let mut rng = SimRng::from_seed(77);
        let side = Duration::from_millis(100);
        let floor = Duration::from_millis(5);
        let topo = Topology::random_geometric(8, side, floor, &mut rng);
        let max_possible = Duration::from_nanos(
            (marp_sim::duration_nanos(side) as f64 * std::f64::consts::SQRT_2) as u64
                + marp_sim::duration_nanos(floor),
        );
        for a in 0..8u16 {
            for b in 0..8u16 {
                assert_eq!(topo.latency(a, b), topo.latency(b, a));
                if a != b {
                    assert!(topo.latency(a, b) >= floor);
                    assert!(topo.latency(a, b) <= max_possible);
                } else {
                    assert_eq!(topo.latency(a, b), Duration::ZERO);
                }
            }
        }
    }

    #[test]
    fn random_geometric_is_seed_deterministic() {
        let build = |seed| {
            let mut rng = SimRng::from_seed(seed);
            Topology::random_geometric(
                5,
                Duration::from_millis(50),
                Duration::from_millis(1),
                &mut rng,
            )
        };
        let a = build(3);
        let b = build(3);
        for i in 0..5u16 {
            for j in 0..5u16 {
                assert_eq!(a.latency(i, j), b.latency(i, j));
            }
        }
    }

    #[test]
    fn set_latency_sets_one_direction() {
        let mut topo = Topology::uniform_lan(3, Duration::from_millis(10));
        topo.set_latency(0, 1, Duration::from_millis(50));
        assert_eq!(topo.latency(0, 1), Duration::from_millis(50));
        assert_eq!(topo.latency(1, 0), Duration::from_millis(10));
    }

    #[test]
    fn max_latency_is_the_worst_pair() {
        let mut topo = Topology::uniform_lan(3, Duration::from_millis(10));
        assert_eq!(topo.max_latency(), Duration::from_millis(10));
        topo.set_latency(0, 2, Duration::from_millis(90));
        assert_eq!(topo.max_latency(), Duration::from_millis(90));
    }

    #[test]
    fn from_matrix_roundtrip() {
        let lat = vec![
            Duration::ZERO,
            Duration::from_millis(3),
            Duration::from_millis(7),
            Duration::ZERO,
        ];
        let topo = Topology::from_matrix(2, lat);
        assert_eq!(topo.latency(0, 1), Duration::from_millis(3));
        assert_eq!(topo.latency(1, 0), Duration::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "n × n")]
    fn from_matrix_rejects_bad_shape() {
        let _ = Topology::from_matrix(2, vec![Duration::ZERO; 3]);
    }
}
