//! Timer crash-path discipline.
//!
//! **timer-crash-path** — an impl that arms timers (`set_timer`,
//! `.arm(`, or an `arm_*` helper) and also implements the
//! crash-recovery hook (`on_recover` / `clear_volatile`) must touch its
//! timer state in that hook: re-arm, cancel, or clear. The engine drops armed timers on a crash, so a
//! recovery path that forgets its timers leaves the component waiting
//! for a tick that never comes (the bug class PR-6's regeneration work
//! guarded against by hand).
//!
//! That two timer kinds of one process are distinct is not checked
//! here: the kinds are one `marp_quorum::timer_kinds!` enum, so a
//! shared byte is rustc E0081 and a handler that forgets a kind is a
//! non-exhaustive `match`.

use crate::lex::Tok;
use crate::model::Workspace;
use crate::Finding;

/// Arming a timer: `set_timer`, the mux's `arm`, or an `arm_*` helper —
/// the workspace's name for a fn that arms one.
fn arms(t: &Tok) -> bool {
    t.is_ident("set_timer")
        || t.is_ident("arm")
        || (t.kind == crate::lex::TokKind::Ident && t.text.starts_with("arm_"))
}

/// Dropping one on purpose.
fn drops(t: &Tok) -> bool {
    t.is_ident("cancel_timer") || t.is_ident("clear") || t.is_ident("disarm")
}

const HOOKS: [&str; 2] = ["on_recover", "clear_volatile"];

pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        for im in &f.impls {
            if im.is_test || im.type_name.is_empty() {
                continue;
            }
            let arms_timers = im.fns.iter().any(|func| {
                !HOOKS.contains(&func.name.as_str()) && f.toks[func.body.clone()].iter().any(arms)
            });
            if !arms_timers {
                continue;
            }
            // A hook with an empty body is a declaration only.
            for h in im
                .fns
                .iter()
                .filter(|func| HOOKS.contains(&func.name.as_str()))
            {
                if !h.body.is_empty() && !f.toks[h.body.clone()].iter().any(|t| arms(t) || drops(t))
                {
                    out.push(Finding {
                        rel: f.rel.clone(),
                        line: h.line,
                        rule: "timer-crash-path",
                        text: format!(
                            "{}::{} does not re-arm, cancel, or clear the timers this \
                             impl sets elsewhere",
                            im.type_name, h.name
                        ),
                    });
                }
            }
        }
    }
}
