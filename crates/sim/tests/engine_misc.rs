//! Miscellaneous engine-surface tests: inspection, halting, and
//! liveness bookkeeping.

use bytes::Bytes;
use marp_sim::{
    impl_as_any, Context, Control, FixedDelay, NodeId, Process, SimTime, Simulation, TraceLevel,
};
use std::time::Duration;

struct Counter {
    seen: u64,
}

impl Process for Counter {
    fn on_message(&mut self, _from: NodeId, _msg: Bytes, _ctx: &mut dyn Context) {
        self.seen += 1;
    }
    impl_as_any!();
}

fn sim_with_counters(n: usize) -> Simulation {
    let mut sim = Simulation::new(
        Box::new(FixedDelay(Duration::from_millis(1))),
        TraceLevel::Protocol,
    );
    for _ in 0..n {
        sim.add_process(Box::new(Counter { seen: 0 }));
    }
    sim
}

#[test]
fn node_count_and_liveness_inspection() {
    let mut sim = sim_with_counters(3);
    assert_eq!(sim.node_count(), 3);
    assert!(sim.is_up(2));
    sim.schedule_control(
        SimTime::from_millis(1),
        Control::SetNodeUp { node: 2, up: false },
    );
    sim.run_to_quiescence();
    assert!(!sim.is_up(2));
}

#[test]
fn process_mut_allows_in_place_adjustment() {
    let mut sim = sim_with_counters(1);
    sim.process_mut::<Counter>(0).unwrap().seen = 41;
    sim.schedule_external(SimTime::from_millis(1), 0, Bytes::from_static(b"x"));
    sim.run_to_quiescence();
    assert_eq!(sim.process::<Counter>(0).unwrap().seen, 42);
    // Wrong type downcasts to None.
    struct Other;
    assert!(sim.process::<Other>(0).is_none());
    assert!(sim.process::<Counter>(9).is_none());
}

#[test]
fn halt_from_inside_a_handler() {
    struct Halter;
    impl Process for Halter {
        fn on_message(&mut self, _from: NodeId, _msg: Bytes, ctx: &mut dyn Context) {
            ctx.halt();
        }
        impl_as_any!();
    }
    let mut sim = Simulation::new(
        Box::new(FixedDelay(Duration::from_millis(1))),
        TraceLevel::Protocol,
    );
    sim.add_process(Box::new(Halter));
    sim.schedule_external(SimTime::from_millis(1), 0, Bytes::from_static(b"stop"));
    sim.schedule_external(SimTime::from_millis(5), 0, Bytes::from_static(b"never"));
    let stats = sim.run_to_quiescence();
    assert_eq!(stats.messages_delivered, 1);
    assert_eq!(stats.finished_at, SimTime::from_millis(1));
}

#[test]
fn stats_accumulate_across_run_until_segments() {
    let mut sim = sim_with_counters(2);
    sim.schedule_external(SimTime::from_millis(1), 0, Bytes::from_static(b"a"));
    sim.schedule_external(SimTime::from_millis(10), 1, Bytes::from_static(b"b"));
    let first = sim.run_until(SimTime::from_millis(5));
    assert_eq!(first.messages_delivered, 1);
    let second = sim.run_until(SimTime::from_millis(20));
    assert_eq!(second.messages_delivered, 2, "stats are cumulative");
}

#[test]
#[should_panic(expected = "send to unknown node")]
fn sending_to_unknown_node_panics() {
    struct BadSender;
    impl Process for BadSender {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.send(42, Bytes::from_static(b"void"));
        }
        fn on_message(&mut self, _: NodeId, _: Bytes, _: &mut dyn Context) {}
        impl_as_any!();
    }
    let mut sim = Simulation::new(Box::new(FixedDelay(Duration::ZERO)), TraceLevel::Protocol);
    sim.add_process(Box::new(BadSender));
    sim.run_to_quiescence();
}

#[test]
#[should_panic(expected = "before the run starts")]
fn adding_processes_after_start_panics() {
    let mut sim = sim_with_counters(1);
    sim.run_until(SimTime::from_millis(1));
    sim.add_process(Box::new(Counter { seen: 0 }));
}
