//! Deliberately broken timer discipline for the timers pass:
//! `Regenerator` arms a timer (through an `arm_*` helper) but its
//! `on_recover` hook never re-arms, cancels, or clears it (crash-path
//! leak). `Careful` does the same and re-arms in the hook: no finding.
//! Never compiled — parsed by `crates/analyzer/tests/passes.rs`.

pub struct Regenerator;

impl Regenerator {
    fn arm_retry(&self, ctx: &mut Ctx) {
        ctx.set_timer(after, TimerMux::tag(Timer::Retry, 0));
    }
}

impl Process for Regenerator {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.arm_retry(ctx);
    }
    fn on_recover(&mut self, ctx: &mut Ctx) {
        self.pending.truncate(0);
    }
}

pub struct Careful;

impl Process for Careful {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.arm_retry(ctx);
    }
    fn on_recover(&mut self, ctx: &mut Ctx) {
        self.pending.truncate(0);
        self.arm_retry(ctx);
    }
}
