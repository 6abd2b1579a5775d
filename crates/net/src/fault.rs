//! Fault injection.
//!
//! The paper's system model (§2): processes are fail-stop, may recover,
//! and every other process learns of a failure within finite time; the
//! Internet additionally shows frequent short transient failures and rare
//! long ones, plus partitions that break the Available-Copy baseline.
//!
//! A [`FaultPlan`] declares all of that up front. At simulation build
//! time it is compiled into (a) kernel [`Control`] events — crashes,
//! recoveries, and the bounded-delay failure-detector notifications — and
//! (b) a time-sorted [`NetAction`] schedule consumed by the transport
//! (partitions, link outages, loss).

use marp_sim::{Control, NodeId, SimRng, SimTime, Simulation};
use std::time::Duration;

/// Time-triggered change to network behaviour, applied by the transport.
#[derive(Debug, Clone, PartialEq)]
pub enum NetAction {
    /// Split the nodes into groups; traffic only flows within a group.
    /// `groups[i]` is the group id of node `i`.
    Partition(Vec<u8>),
    /// Remove any active partition.
    HealPartition,
    /// Set the independent per-message loss probability.
    SetLoss(f64),
    /// Take the directed link `from → to` down.
    LinkDown(NodeId, NodeId),
    /// Bring the directed link `from → to` back up.
    LinkUp(NodeId, NodeId),
}

/// A declarative schedule of faults for one run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    n: usize,
    node_events: Vec<(SimTime, NodeId, bool)>,
    net_events: Vec<(SimTime, NetAction)>,
    detect_delay: Duration,
}

impl FaultPlan {
    /// An empty plan over `n` nodes with a 100 ms failure-detection
    /// bound.
    ///
    /// # Panics
    /// If `n` is zero. Every builder method below validates its inputs
    /// the same way — a fault aimed at a node that does not exist, a
    /// zero-length outage window, or a loss rate outside [0, 1] is a
    /// bug in the experiment, not a fault to inject, and is rejected at
    /// build time instead of silently scheduling controls for nobody.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FaultPlan over zero nodes");
        FaultPlan {
            n,
            node_events: Vec::new(),
            net_events: Vec::new(),
            detect_delay: Duration::from_millis(100),
        }
    }

    fn check_node(&self, node: NodeId) {
        assert!(
            usize::from(node) < self.n,
            "fault targets node {node} but the plan covers only {} nodes",
            self.n
        );
    }

    fn check_window(duration: Duration, what: &str) {
        assert!(
            duration > Duration::ZERO,
            "{what} window must have positive duration"
        );
    }

    /// Set the failure-detector notification bound (the paper's "finite
    /// time" in which all processes learn of a failure).
    pub fn detect_delay(mut self, delay: Duration) -> Self {
        self.detect_delay = delay;
        self
    }

    /// Crash `node` at `at` and recover it after `outage`.
    pub fn crash(mut self, node: NodeId, at: SimTime, outage: Duration) -> Self {
        self.check_node(node);
        Self::check_window(outage, "crash outage");
        self.node_events.push((at, node, false));
        self.node_events.push((at + outage, node, true));
        self
    }

    /// Crash `node` at `at` permanently.
    pub fn crash_forever(mut self, node: NodeId, at: SimTime) -> Self {
        self.check_node(node);
        self.node_events.push((at, node, false));
        self
    }

    /// A short transient outage (alias of [`FaultPlan::crash`], named for
    /// the paper's "frequent short transient failures").
    pub fn transient(self, node: NodeId, at: SimTime, outage: Duration) -> Self {
        self.crash(node, at, outage)
    }

    /// Partition the network into the given node groups for `duration`.
    /// Nodes not mentioned in any group go into an extra group of their
    /// own.
    pub fn partition(mut self, at: SimTime, duration: Duration, groups: &[&[NodeId]]) -> Self {
        Self::check_window(duration, "partition");
        for group in groups {
            for &node in *group {
                self.check_node(node);
            }
        }
        let mut assignment = vec![u8::MAX; self.n];
        for (gid, group) in groups.iter().enumerate() {
            for &node in *group {
                assignment[usize::from(node)] = gid as u8;
            }
        }
        // Unassigned nodes get singleton groups after the listed ones.
        let mut next = groups.len() as u8;
        for slot in &mut assignment {
            if *slot == u8::MAX {
                *slot = next;
                next = next.saturating_add(1);
            }
        }
        self.net_events.push((at, NetAction::Partition(assignment)));
        self.net_events
            .push((at + duration, NetAction::HealPartition));
        self
    }

    /// Set message loss probability from `at` onward.
    pub fn loss(mut self, at: SimTime, rate: f64) -> Self {
        assert!(
            rate.is_finite() && (0.0..=1.0).contains(&rate),
            "loss rate {rate} outside [0, 1]"
        );
        self.net_events.push((at, NetAction::SetLoss(rate)));
        self
    }

    /// Take the directed link `from → to` down for `duration`.
    pub fn link_outage(
        mut self,
        from: NodeId,
        to: NodeId,
        at: SimTime,
        duration: Duration,
    ) -> Self {
        self.check_node(from);
        self.check_node(to);
        Self::check_window(duration, "link outage");
        self.net_events.push((at, NetAction::LinkDown(from, to)));
        self.net_events
            .push((at + duration, NetAction::LinkUp(from, to)));
        self
    }

    /// Number of nodes this plan covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Compile node crash/recovery events (plus failure-detector
    /// notifications to every other node) into kernel controls.
    pub fn schedule_controls(&self, sim: &mut Simulation) {
        for &(at, node, up) in &self.node_events {
            sim.schedule_control(at, Control::SetNodeUp { node, up });
            let notify_at = at + self.detect_delay;
            for other in 0..self.n as NodeId {
                if other != node {
                    sim.schedule_control(
                        notify_at,
                        Control::Notify {
                            to: other,
                            about: node,
                            up,
                        },
                    );
                }
            }
        }
    }

    /// The transport-side schedule, sorted by time.
    pub fn net_schedule(&self) -> Vec<(SimTime, NetAction)> {
        let mut schedule = self.net_events.clone();
        schedule.sort_by_key(|(at, _)| *at);
        schedule
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.node_events.is_empty() && self.net_events.is_empty()
    }

    /// Generate a randomized fault plan from a seeded RNG and a
    /// [`ChaosProfile`]. Plans are valid by construction (every target
    /// node exists, every window is positive) and every injected fault
    /// heals before `CHAOS_ACTIVE + longest outage`, leaving a quiet
    /// convergence tail for the run to settle in. Failures are detected
    /// within the default 100 ms. The same `(n, seed,
    /// profile)` triple always yields the same plan, so any chaos-sweep
    /// failure is replayable from its seed alone.
    pub fn random(n: usize, seed: u64, profile: &ChaosProfile) -> Self {
        let mut plan = FaultPlan::new(n);
        let mut rng = SimRng::derive_indexed(seed, "chaos-plan", n as u64);
        let active_ms = CHAOS_ACTIVE.as_millis() as u64;
        let start_ms = |rng: &mut SimRng| SimTime::from_millis(rng.range_inclusive(200, active_ms));
        let window = |rng: &mut SimRng, (lo, hi): (Duration, Duration)| {
            let lo_ms = lo.as_millis().max(1) as u64;
            let hi_ms = (hi.as_millis() as u64).max(lo_ms);
            Duration::from_millis(rng.range_inclusive(lo_ms, hi_ms))
        };

        // Crashes: each node gets at most one outage window so a plan
        // never re-crashes a node that is already down.
        let crashes = rng.range_inclusive(profile.crashes.0 as u64, profile.crashes.1 as u64);
        let mut nodes: Vec<NodeId> = (0..n as NodeId).collect();
        rng.shuffle(&mut nodes);
        for &node in nodes.iter().take(crashes as usize) {
            let at = start_ms(&mut rng);
            let outage = window(&mut rng, profile.outage);
            plan = plan.crash(node, at, outage);
        }

        // At most one partition window: split the nodes into two
        // non-empty groups at random.
        if n >= 2 && rng.chance(profile.partition_chance) {
            let mut shuffled: Vec<NodeId> = (0..n as NodeId).collect();
            rng.shuffle(&mut shuffled);
            let cut = rng.range_inclusive(1, n as u64 - 1) as usize;
            let (a, b) = shuffled.split_at(cut);
            let at = start_ms(&mut rng);
            let dur = window(&mut rng, profile.partition_duration);
            plan = plan.partition(at, dur, &[a, b]);
        }

        // A bounded loss episode: raise the loss rate, then restore a
        // perfect network before the convergence tail.
        if rng.chance(profile.loss_chance) {
            let rate =
                profile.loss_rate.0 + (profile.loss_rate.1 - profile.loss_rate.0) * rng.f64();
            let at = start_ms(&mut rng);
            let dur = window(&mut rng, profile.loss_duration);
            plan = plan.loss(at, rate.clamp(0.0, 1.0)).loss(at + dur, 0.0);
        }

        // Directed link outages between distinct random nodes.
        let links =
            rng.range_inclusive(profile.link_outages.0 as u64, profile.link_outages.1 as u64);
        for _ in 0..links {
            if n < 2 {
                break;
            }
            let from = rng.below(n as u64) as NodeId;
            let mut to = rng.below(n as u64 - 1) as NodeId;
            if to >= from {
                to += 1;
            }
            let at = start_ms(&mut rng);
            let dur = window(&mut rng, profile.link_outage_duration);
            plan = plan.link_outage(from, to, at, dur);
        }
        plan
    }
}

/// The window in which a randomized plan's fault start times are drawn.
const CHAOS_ACTIVE: Duration = Duration::from_secs(20);

/// Tunable shape of a randomized fault plan: how many faults of each
/// kind to draw and from what ranges. All fault *start* times fall in
/// `[200 ms, CHAOS_ACTIVE]` (20 s); durations are drawn per fault, so
/// the last fault heals by `CHAOS_ACTIVE + max(outage, partition, loss,
/// link)` and the run has a quiet tail to converge in.
#[derive(Debug, Clone)]
pub struct ChaosProfile {
    /// Inclusive range of crash-with-recovery events (distinct nodes).
    pub crashes: (usize, usize),
    /// Crash outage duration range.
    pub outage: (Duration, Duration),
    /// Probability of a single two-way partition window.
    pub partition_chance: f64,
    /// Partition duration range.
    pub partition_duration: (Duration, Duration),
    /// Probability of a message-loss episode.
    pub loss_chance: f64,
    /// Loss-rate range for the episode.
    pub loss_rate: (f64, f64),
    /// Loss-episode duration range.
    pub loss_duration: (Duration, Duration),
    /// Inclusive range of directed link outages.
    pub link_outages: (usize, usize),
    /// Link outage duration range.
    pub link_outage_duration: (Duration, Duration),
}

impl ChaosProfile {
    /// Crash-heavy: one to three crash/recovery cycles, no network
    /// trouble. Exercises agent loss and regeneration in isolation.
    pub fn crashes() -> Self {
        ChaosProfile {
            crashes: (1, 3),
            outage: (Duration::from_secs(2), Duration::from_secs(12)),
            partition_chance: 0.0,
            partition_duration: (Duration::from_secs(2), Duration::from_secs(6)),
            loss_chance: 0.0,
            loss_rate: (0.0, 0.0),
            loss_duration: (Duration::from_secs(1), Duration::from_secs(5)),
            link_outages: (0, 0),
            link_outage_duration: (Duration::from_secs(1), Duration::from_secs(4)),
        }
    }

    /// Network-heavy: partitions, loss episodes and link outages, at
    /// most one crash. Exercises marooned agents and anti-entropy.
    pub fn network() -> Self {
        ChaosProfile {
            crashes: (0, 1),
            outage: (Duration::from_secs(2), Duration::from_secs(8)),
            partition_chance: 0.8,
            partition_duration: (Duration::from_secs(2), Duration::from_secs(8)),
            loss_chance: 0.6,
            loss_rate: (0.005, 0.03),
            loss_duration: (Duration::from_secs(2), Duration::from_secs(10)),
            link_outages: (0, 2),
            link_outage_duration: (Duration::from_secs(1), Duration::from_secs(4)),
        }
    }

    /// Everything at once: crashes on top of partitions, loss and link
    /// outages. The hostile end of the sweep.
    pub fn mixed() -> Self {
        ChaosProfile {
            crashes: (1, 2),
            outage: (Duration::from_secs(2), Duration::from_secs(10)),
            partition_chance: 0.5,
            partition_duration: (Duration::from_secs(2), Duration::from_secs(6)),
            loss_chance: 0.5,
            loss_rate: (0.005, 0.02),
            loss_duration: (Duration::from_secs(2), Duration::from_secs(8)),
            link_outages: (0, 2),
            link_outage_duration: (Duration::from_secs(1), Duration::from_secs(3)),
        }
    }

    /// The named profiles swept by `e15_chaos`, in order.
    pub fn all() -> Vec<(&'static str, ChaosProfile)> {
        vec![
            ("crashes", Self::crashes()),
            ("network", Self::network()),
            ("mixed", Self::mixed()),
        ]
    }

    /// Look up a profile by its sweep name.
    pub fn by_name(name: &str) -> Option<ChaosProfile> {
        Self::all()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_produces_down_then_up() {
        let plan = FaultPlan::new(3).crash(1, SimTime::from_millis(10), Duration::from_millis(5));
        assert_eq!(
            plan.node_events,
            vec![
                (SimTime::from_millis(10), 1, false),
                (SimTime::from_millis(15), 1, true)
            ]
        );
    }

    #[test]
    fn crash_forever_never_recovers() {
        let plan = FaultPlan::new(2).crash_forever(0, SimTime::from_millis(3));
        assert_eq!(plan.node_events, vec![(SimTime::from_millis(3), 0, false)]);
    }

    #[test]
    fn partition_assigns_all_nodes() {
        let plan = FaultPlan::new(5).partition(
            SimTime::from_millis(1),
            Duration::from_millis(9),
            &[&[0, 1], &[2, 3]],
        );
        let sched = plan.net_schedule();
        assert_eq!(sched.len(), 2);
        match &sched[0].1 {
            NetAction::Partition(groups) => {
                assert_eq!(groups[0], groups[1]);
                assert_eq!(groups[2], groups[3]);
                assert_ne!(groups[0], groups[2]);
                // Node 4 is isolated in its own group.
                assert_ne!(groups[4], groups[0]);
                assert_ne!(groups[4], groups[2]);
            }
            other => panic!("expected partition, got {other:?}"),
        }
        assert_eq!(sched[1].1, NetAction::HealPartition);
        assert_eq!(sched[1].0, SimTime::from_millis(10));
    }

    #[test]
    fn net_schedule_is_sorted() {
        let plan = FaultPlan::new(2)
            .loss(SimTime::from_millis(20), 0.5)
            .loss(SimTime::from_millis(5), 0.1);
        let sched = plan.net_schedule();
        assert_eq!(sched[0].0, SimTime::from_millis(5));
        assert_eq!(sched[1].0, SimTime::from_millis(20));
    }

    #[test]
    fn link_outage_pairs_down_up() {
        let plan =
            FaultPlan::new(2).link_outage(0, 1, SimTime::from_millis(2), Duration::from_millis(4));
        let sched = plan.net_schedule();
        assert_eq!(sched[0].1, NetAction::LinkDown(0, 1));
        assert_eq!(sched[1].1, NetAction::LinkUp(0, 1));
        assert_eq!(sched[1].0, SimTime::from_millis(6));
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::new(4).is_empty());
        assert!(!FaultPlan::new(4).crash_forever(0, SimTime::ZERO).is_empty());
    }

    #[test]
    #[should_panic(expected = "targets node 9")]
    fn crash_of_nonexistent_node_is_rejected() {
        let _ = FaultPlan::new(5).crash(9, SimTime::ZERO, Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_length_outage_is_rejected() {
        let _ = FaultPlan::new(5).crash(1, SimTime::ZERO, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_loss_is_rejected() {
        let _ = FaultPlan::new(5).loss(SimTime::ZERO, 1.5);
    }

    #[test]
    #[should_panic(expected = "targets node 7")]
    fn partition_of_nonexistent_node_is_rejected() {
        let _ =
            FaultPlan::new(5).partition(SimTime::ZERO, Duration::from_secs(1), &[&[0, 7], &[1, 2]]);
    }

    #[test]
    #[should_panic(expected = "targets node 5")]
    fn link_outage_of_nonexistent_node_is_rejected() {
        let _ = FaultPlan::new(5).link_outage(0, 5, SimTime::ZERO, Duration::from_secs(1));
    }

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        for (name, profile) in ChaosProfile::all() {
            for seed in [1u64, 2, 3, 77, 1000] {
                let a = FaultPlan::random(5, seed, &profile);
                let b = FaultPlan::random(5, seed, &profile);
                assert_eq!(
                    a.node_events, b.node_events,
                    "{name}/{seed} not deterministic"
                );
                assert_eq!(
                    a.net_schedule(),
                    b.net_schedule(),
                    "{name}/{seed} not deterministic"
                );
                // Validity is enforced by the builders; spot-check that
                // every crashed node also recovers (no silent forever-
                // crashes in randomized plans) and each node crashes at
                // most once.
                let mut down: Vec<NodeId> = Vec::new();
                for &(_, node, up) in &a.node_events {
                    if up {
                        down.retain(|&d| d != node);
                    } else {
                        assert!(!down.contains(&node), "{name}/{seed} re-crashed {node}");
                        down.push(node);
                    }
                }
                assert!(down.is_empty(), "{name}/{seed} left nodes down: {down:?}");
            }
        }
    }

    #[test]
    fn random_plans_differ_across_seeds() {
        let profile = ChaosProfile::mixed();
        let a = FaultPlan::random(5, 1, &profile);
        let b = FaultPlan::random(5, 2, &profile);
        assert!(
            a.node_events != b.node_events || a.net_schedule() != b.net_schedule(),
            "seeds 1 and 2 produced identical plans"
        );
    }

    #[test]
    fn profiles_resolve_by_name() {
        assert!(ChaosProfile::by_name("crashes").is_some());
        assert!(ChaosProfile::by_name("network").is_some());
        assert!(ChaosProfile::by_name("mixed").is_some());
        assert!(ChaosProfile::by_name("nope").is_none());
    }
}
