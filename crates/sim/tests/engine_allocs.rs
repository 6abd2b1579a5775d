//! What the engine itself pays to run a handler: once its queue and its
//! effects buffer have grown to the run's steady state, nothing — every
//! allocation left in a profile belongs to a handler.

use bytes::Bytes;
use marp_sim::{
    impl_as_any, Context, FixedDelay, NodeId, Process, SimTime, Simulation, TimerId, TraceEvent,
    TraceLevel,
};
use std::time::Duration;

#[path = "../../../tests/support/noting_alloc.rs"]
mod noting_alloc;

/// Sends every message back where it came from, and on the way uses
/// each thing a context offers. The handler allocates nothing itself.
struct Echo {
    timers_fired: u64,
}

impl Process for Echo {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if ctx.me() == 0 {
            ctx.send(1, Bytes::from_static(b"ping"));
        }
    }
    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        ctx.trace(TraceEvent::Custom {
            kind: "echo",
            a: u64::from(from),
            b: self.timers_fired,
        });
        let never = ctx.set_timer(Duration::from_millis(3), 0);
        ctx.cancel_timer(never);
        ctx.set_timer(Duration::from_millis(2), 1);
        ctx.send(from, msg);
    }
    fn on_timer(&mut self, _timer: TimerId, tag: u64, _ctx: &mut dyn Context) {
        self.timers_fired += tag;
    }
    impl_as_any!();
}

#[test]
fn a_warm_engine_runs_a_handler_without_allocating() {
    let mut sim = Simulation::new(
        Box::new(FixedDelay(Duration::from_millis(1))),
        TraceLevel::Protocol,
    );
    for _ in 0..2 {
        sim.add_process(Box::new(Echo { timers_fired: 0 }));
    }
    sim.run_until(SimTime::from_millis(50));
    let before = sim.stats();

    let (after, requests, _) =
        noting_alloc::requests_during(|| sim.run_until(SimTime::from_millis(150)));

    assert_eq!(after.messages_delivered - before.messages_delivered, 100);
    assert_eq!(after.timers_fired - before.timers_fired, 100);
    assert_eq!(requests, 0, "allocations over 100 echoes");
}
