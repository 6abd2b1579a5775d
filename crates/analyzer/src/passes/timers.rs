//! Timer crash-path discipline.
//!
//! **timer-crash-path** — an impl that arms timers (`set_timer` /
//! `.arm(`) and also implements the crash-recovery hook (`on_recover` /
//! `clear_volatile`) must touch its timer state in that hook: re-arm,
//! cancel, or clear. The engine drops armed timers on a crash, so a
//! recovery path that forgets its timers leaves the component waiting
//! for a tick that never comes (the bug class PR-6's regeneration work
//! guarded against by hand).
//!
//! That two timer kinds of one process are distinct is not checked
//! here: the kinds are one `marp_quorum::timer_kinds!` enum, so a
//! shared byte is rustc E0081 and a handler that forgets a kind is a
//! non-exhaustive `match`.

use super::{call_sites, has_ident_in, seq_in};
use crate::model::Workspace;
use crate::Finding;

pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        for im in &f.impls {
            if im.is_test || im.type_name.is_empty() {
                continue;
            }
            let arms_timers = im.fns.iter().any(|func| {
                !["on_recover", "clear_volatile"].contains(&func.name.as_str())
                    && (!call_sites(&f.toks, func.body.clone(), "set_timer").is_empty()
                        || seq_in(&f.toks, func.body.clone(), &[".", "arm", "("]))
            });
            if !arms_timers {
                continue;
            }
            for hook in ["on_recover", "clear_volatile"] {
                let Some(h) = im.fns.iter().find(|func| func.name == hook) else {
                    continue;
                };
                if h.body.is_empty() {
                    continue; // declaration only
                }
                let touches = ["set_timer", "cancel_timer", "clear", "disarm", "arm"]
                    .iter()
                    .any(|kw| has_ident_in(&f.toks, h.body.clone(), kw));
                if !touches {
                    out.push(Finding {
                        rel: f.rel.clone(),
                        line: h.line,
                        rule: "timer-crash-path",
                        text: format!(
                            "{}::{hook} does not re-arm, cancel, or clear the timers this \
                             impl sets elsewhere",
                            im.type_name
                        ),
                    });
                }
            }
        }
    }
}
