//! Property tests for the discrete-event kernel: event ordering,
//! determinism, and timer semantics under arbitrary schedules.

use bytes::Bytes;
use marp_sim::{
    impl_as_any, Context, FixedDelay, NodeId, Process, SimTime, Simulation, TimerId, TraceLevel,
};
use proptest::prelude::*;
use std::time::Duration;

/// Records the virtual time of everything it observes.
struct Recorder {
    deliveries: Vec<(SimTime, u8)>,
    timer_fires: Vec<(SimTime, u64)>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            deliveries: Vec::new(),
            timer_fires: Vec::new(),
        }
    }
}

impl Process for Recorder {
    fn on_message(&mut self, _from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        self.deliveries
            .push((ctx.now(), msg.first().copied().unwrap_or(0)));
    }
    fn on_timer(&mut self, _id: TimerId, tag: u64, ctx: &mut dyn Context) {
        self.timer_fires.push((ctx.now(), tag));
    }
    impl_as_any!();
}

/// Arms all the given timers at start.
struct TimerArmer {
    delays_ms: Vec<u64>,
    fired: Vec<(SimTime, u64)>,
}

impl Process for TimerArmer {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        for (i, &ms) in self.delays_ms.iter().enumerate() {
            ctx.set_timer(Duration::from_millis(ms), i as u64);
        }
    }
    fn on_message(&mut self, _: NodeId, _: Bytes, _: &mut dyn Context) {}
    fn on_timer(&mut self, _id: TimerId, tag: u64, ctx: &mut dyn Context) {
        self.fired.push((ctx.now(), tag));
    }
    impl_as_any!();
}

proptest! {
    /// Messages injected at arbitrary times are delivered in
    /// non-decreasing virtual-time order, exactly `delay` later.
    #[test]
    fn deliveries_are_time_ordered(
        sends in proptest::collection::vec((0u64..10_000, any::<u8>()), 1..40),
        delay_ms in 0u64..50,
    ) {
        let mut sim = Simulation::new(
            Box::new(FixedDelay(Duration::from_millis(delay_ms))),
            TraceLevel::Protocol,
        );
        let node = sim.add_process(Box::new(Recorder::new()));
        for &(at_ms, tag) in &sends {
            sim.schedule_external(SimTime::from_millis(at_ms), node, Bytes::from(vec![tag]));
        }
        sim.run_to_quiescence();
        let recorder: &Recorder = sim.process(node).unwrap();
        prop_assert_eq!(recorder.deliveries.len(), sends.len());
        for window in recorder.deliveries.windows(2) {
            prop_assert!(window[0].0 <= window[1].0, "time went backwards");
        }
        // Externally injected messages are delivered at exactly their
        // scheduled instant (the transport prices node sends, not
        // external injections).
        let mut expected: Vec<u64> = sends.iter().map(|&(at, _)| at).collect();
        expected.sort_unstable();
        let got: Vec<u64> = recorder.deliveries.iter().map(|&(t, _)| t.as_millis()).collect();
        prop_assert_eq!(got, expected);
    }

    /// Timers fire at exactly their deadline, in deadline order; equal
    /// deadlines preserve arming order.
    #[test]
    fn timers_fire_in_deadline_order(delays in proptest::collection::vec(0u64..1000, 1..30)) {
        let mut sim = Simulation::new(
            Box::new(FixedDelay(Duration::ZERO)),
            TraceLevel::Protocol,
        );
        let node = sim.add_process(Box::new(TimerArmer {
            delays_ms: delays.clone(),
            fired: Vec::new(),
        }));
        sim.run_to_quiescence();
        let armer: &TimerArmer = sim.process(node).unwrap();
        prop_assert_eq!(armer.fired.len(), delays.len());
        // Expected: sort by (deadline, arming index).
        let mut expected: Vec<(u64, u64)> = delays
            .iter()
            .enumerate()
            .map(|(i, &ms)| (ms, i as u64))
            .collect();
        expected.sort_unstable();
        let got: Vec<(u64, u64)> = armer
            .fired
            .iter()
            .map(|&(t, tag)| (t.as_millis(), tag))
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Identical schedules replay identically (full determinism).
    #[test]
    fn replays_are_identical(
        sends in proptest::collection::vec((0u64..5_000, any::<u8>()), 1..20),
    ) {
        let run = || {
            let mut sim = Simulation::new(
                Box::new(FixedDelay(Duration::from_millis(3))),
                TraceLevel::Protocol,
            );
            let node = sim.add_process(Box::new(Recorder::new()));
            for &(at_ms, tag) in &sends {
                sim.schedule_external(SimTime::from_millis(at_ms), node, Bytes::from(vec![tag]));
            }
            sim.run_to_quiescence();
            let recorder: &Recorder = sim.process(node).unwrap();
            (recorder.deliveries.clone(), sim.stats())
        };
        let (d1, s1) = run();
        let (d2, s2) = run();
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(s1, s2);
    }
}

#[test]
fn run_until_is_resumable_at_arbitrary_boundaries() {
    // Chopping a run into arbitrary run_until segments must not change
    // the outcome vs one continuous run.
    let build = || {
        let mut sim = Simulation::new(
            Box::new(FixedDelay(Duration::from_millis(1))),
            TraceLevel::Protocol,
        );
        let node = sim.add_process(Box::new(Recorder::new()));
        for at in [3u64, 7, 11, 42, 99, 100, 250] {
            sim.schedule_external(SimTime::from_millis(at), node, Bytes::from_static(b"m"));
        }
        sim
    };
    let mut whole = build();
    whole.run_to_quiescence();
    let whole_deliveries = whole.process::<Recorder>(0).unwrap().deliveries.clone();

    let mut chopped = build();
    for boundary in [5u64, 11, 80, 300] {
        chopped.run_until(SimTime::from_millis(boundary));
    }
    chopped.run_to_quiescence();
    let chopped_deliveries = chopped.process::<Recorder>(0).unwrap().deliveries.clone();
    assert_eq!(whole_deliveries, chopped_deliveries);
}
