//! Property tests for the network substrate: topology invariants, link
//! delay monotonicity and delivery times.

use marp_net::{Jitter, LinkModel, SimTransport, Topology};
use marp_sim::{Delivery, NodeId, SimRng, SimTime, Transport};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    /// Random-geometric topologies are symmetric, zero on the diagonal,
    /// and floor-bounded off it.
    #[test]
    fn geometric_topology_invariants(
        n in 2usize..12,
        side_ms in 1u64..200,
        floor_ms in 0u64..20,
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::from_seed(seed);
        let topo = Topology::random_geometric(
            n,
            Duration::from_millis(side_ms),
            Duration::from_millis(floor_ms),
            &mut rng,
        );
        for a in 0..n as NodeId {
            prop_assert_eq!(topo.latency(a, a), Duration::ZERO);
            for b in 0..n as NodeId {
                prop_assert_eq!(topo.latency(a, b), topo.latency(b, a));
                if a != b {
                    prop_assert!(topo.latency(a, b) >= Duration::from_millis(floor_ms));
                }
            }
        }
    }

    /// Clustered WAN: intra < inter whenever configured that way, and
    /// every node belongs to exactly one cluster.
    #[test]
    fn clustered_wan_invariants(
        sizes in proptest::collection::vec(1usize..5, 1..5),
        intra_ms in 1u64..10,
        extra_ms in 1u64..200,
    ) {
        let inter_ms = intra_ms + extra_ms;
        let topo = Topology::clustered_wan(
            &sizes,
            Duration::from_millis(intra_ms),
            Duration::from_millis(inter_ms),
        );
        let n: usize = sizes.iter().sum();
        prop_assert_eq!(topo.len(), n);
        for a in 0..n as NodeId {
            for b in 0..n as NodeId {
                if a == b {
                    prop_assert_eq!(topo.latency(a, b), Duration::ZERO);
                } else {
                    let lat = topo.latency(a, b);
                    prop_assert!(
                        lat == Duration::from_millis(intra_ms)
                            || lat == Duration::from_millis(inter_ms)
                    );
                }
            }
        }
    }

    /// Link delay grows monotonically with message size under a finite
    /// bandwidth, and never undercuts the base latency.
    #[test]
    fn link_delay_monotone_in_size(
        base_ms in 0u64..100,
        small in 0usize..10_000,
        extra in 1usize..100_000,
        seed in any::<u64>(),
    ) {
        let model = LinkModel {
            jitter: Jitter::None,
            bandwidth: Some(1.0e6),
            overhead: Duration::from_micros(100),
            local_delay: Duration::ZERO,
        };
        let base = Duration::from_millis(base_ms);
        let mut rng = SimRng::from_seed(seed);
        let d_small = model.delay(base, small, &mut rng);
        let d_large = model.delay(base, small + extra, &mut rng);
        prop_assert!(d_small >= base);
        prop_assert!(d_large > d_small);
    }

    /// The transport never delivers into the past, for any topology and
    /// jitter configuration.
    #[test]
    fn transport_never_delivers_early(
        n in 2usize..8,
        sigma in 0.0f64..0.5,
        now_ms in 0u64..10_000,
        from in 0u16..8,
        to in 0u16..8,
        size in 0usize..100_000,
        seed in any::<u64>(),
    ) {
        let from = from % n as u16;
        let to = to % n as u16;
        let topo = Topology::uniform_lan(n, Duration::from_millis(5));
        let model = LinkModel {
            jitter: Jitter::LogNormal { sigma },
            bandwidth: Some(1.0e6),
            overhead: Duration::from_micros(200),
            local_delay: Duration::from_micros(10),
        };
        let mut transport = SimTransport::new(topo, model, SimRng::from_seed(seed));
        let now = SimTime::from_millis(now_ms);
        match transport.route(now, from, to, size) {
            Delivery::Deliver { at } => prop_assert!(at >= now),
            Delivery::Drop { .. } => prop_assert!(false, "no faults configured"),
        }
    }

}
