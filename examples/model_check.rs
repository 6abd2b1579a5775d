//! Model checking: exhaustively explore a small MARP cluster.
//!
//! Where the other examples run *one* schedule, this one runs them
//! all: every order in which messages can be delivered (and timers
//! fire) for a 3-replica MARP deployment with two concurrent writers,
//! bounded by a CHESS-style preemption budget. The paper's invariants
//! — single writer per version, in-order application, the Theorem 3
//! visit bounds, and no lost updates — are checked at every
//! intermediate state, not just at the end of the run.
//!
//! Run with: `cargo run --example model_check`

use marp_mcheck::{CheckConfig, Explorer, Family, ModelSpec};

fn main() {
    let spec = ModelSpec::new(Family::Marp, 3, 2);
    let cfg = CheckConfig::default();
    println!(
        "exploring marp: {} replicas, {} concurrent writers, preemption bound {:?}",
        spec.replicas, spec.agents, cfg.preemption_bound
    );

    let report = Explorer::new(spec, cfg).run();

    println!("states explored      : {}", report.transitions);
    println!("maximal paths        : {}", report.paths);
    println!("  clean terminal     : {}", report.terminal_paths);
    println!("  timer-budgeted     : {}", report.stuck_paths);
    println!("deepest interleaving : {} events", report.max_depth_seen);
    println!(
        "bounded space        : {}",
        if report.complete {
            "fully explored"
        } else {
            "budget exhausted first"
        }
    );
    match report.violation {
        None => println!("verdict              : all invariants hold on every path"),
        Some(cx) => {
            println!(
                "verdict              : VIOLATION after {} steps",
                cx.schedule.len()
            );
            for v in &cx.violations {
                println!("  {}: {}", v.rule, v.detail);
            }
        }
    }
}

#[test]
fn runs() {
    main();
}
