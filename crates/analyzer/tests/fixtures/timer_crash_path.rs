//! Deliberately broken timer discipline for the timers pass:
//! `Regenerator` arms timers but its `on_recover` hook never re-arms,
//! cancels, or clears them (crash-path leak).
//! Never compiled — parsed by `crates/analyzer/tests/passes.rs`.

pub struct Regenerator;

impl Regenerator {
    fn kick(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(after, TimerMux::tag(Timer::Retry, 0));
    }
    fn on_recover(&mut self, ctx: &mut Ctx) {
        self.pending.truncate(0);
    }
}
