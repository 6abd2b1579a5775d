//! The span fold: self times add up to the run, and a span tree that
//! does not nest is refused rather than folded into shares that lie.

use marp_benchmark::trace::{Class, CtxCall, Ledger, Span, What, NO_PARENT};

fn span(what: What, parent: u32, start_ns: u64, end_ns: u64) -> Span {
    Span {
        what,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_times_and_residual_add_up_to_the_run() {
    let spans = [
        span(What::Run, NO_PARENT, 0, 1_000),
        span(What::Handler(Class::Commit), 0, 100, 500),
        span(What::Ctx(CtxCall::Send), 1, 150, 200),
        span(What::Ctx(CtxCall::Trace), 1, 300, 330),
        span(What::Route, 0, 500, 560),
        span(What::Handler(Class::Timer), 0, 600, 700),
    ];
    let mut ledger = Ledger::default();
    ledger.fold(&spans).unwrap();
    assert_eq!(ledger.run.ns, 1_000);
    // 400 ns in the handler, 80 of them in its two context calls.
    assert_eq!(ledger.handler(Class::Commit).ns, 320);
    assert_eq!(ledger.handler(Class::Timer).ns, 100);
    assert_eq!(ledger.ctx_call(CtxCall::Send).ns, 50);
    assert_eq!(ledger.ctx_call(CtxCall::Trace).ns, 30);
    assert_eq!(ledger.route.ns, 60);
    assert_eq!(ledger.engine_ns(), 1_000 - 420 - 80 - 60);
    assert_eq!(ledger.handler_events(), 2);

    // Folding a second run accumulates.
    ledger.fold(&spans).unwrap();
    assert_eq!(ledger.run.count, 2);
    assert_eq!(ledger.engine_ns(), 2 * 440);
}

#[test]
fn spans_that_do_not_nest_are_refused() {
    let run = span(What::Run, NO_PARENT, 0, 1_000);
    let refused = |spans: &[Span]| Ledger::default().fold(spans).is_err();
    // A handler that outlives its run.
    assert!(refused(&[
        run,
        span(What::Handler(Class::Agent), 0, 900, 1_100)
    ]));
    // A context call before its handler started.
    assert!(refused(&[
        run,
        span(What::Handler(Class::Agent), 0, 100, 200),
        span(What::Ctx(CtxCall::Send), 1, 50, 120),
    ]));
    // Children that together cover more than their parent.
    assert!(refused(&[
        run,
        span(What::Handler(Class::Agent), 0, 100, 200),
        span(What::Ctx(CtxCall::Send), 1, 100, 200),
        span(What::Ctx(CtxCall::Trace), 1, 100, 200),
    ]));
    // A handler outside any run would be missing from the budget.
    assert!(refused(&[span(
        What::Handler(Class::Agent),
        NO_PARENT,
        0,
        10
    )]));
    // Time running backwards.
    assert!(refused(&[span(What::Run, NO_PARENT, 10, 0)]));
}
