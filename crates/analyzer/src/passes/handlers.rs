//! Handler exhaustiveness: a (message-variant × dispatch-site) matrix.
//!
//! For each protocol enum we know the dispatch surface of (the files
//! whose job is to consume every variant), every variant must be named
//! at least once — as an `Enum::Variant` path — in non-test code of one
//! of those files. Rust's own match exhaustiveness already covers any
//! single `match`; this pass covers the cross-file gap: a variant that
//! is matched somewhere (so the code compiles) but never by the
//! component that is supposed to act on it (e.g. a new `NodeMsg` variant
//! consumed only by a baseline, never by `node.rs`).

use crate::model::Workspace;
use crate::Finding;

/// One row of the matrix: an enum and the files that must collectively
/// handle every variant.
#[derive(Debug, Clone)]
pub struct HandlerSpec {
    pub enum_name: &'static str,
    /// Rel-path suffixes of the dispatch files.
    pub dispatch: &'static [&'static str],
}

/// The protocol dispatch matrix. `TraceEvent` is pinned to the span
/// collector, which the no-wildcard-match lint already forces to list
/// every variant explicitly — together the two checks mean a new trace
/// variant cannot silently bypass the exporters.
pub const SPECS: &[HandlerSpec] = &[
    HandlerSpec {
        enum_name: "NodeMsg",
        dispatch: &["crates/core/src/node.rs"],
    },
    HandlerSpec {
        enum_name: "AgentReply",
        dispatch: &["crates/core/src/agent.rs"],
    },
    // The model checker's lossy-mail network decides per reply kind
    // whether it is lost; a new kind must be classified there too, or
    // the missed-notice family silently stops covering it.
    HandlerSpec {
        enum_name: "AgentReply",
        dispatch: &["crates/mcheck/src/model.rs"],
    },
    HandlerSpec {
        enum_name: "AgentEnvelope",
        dispatch: &["crates/agent/src/runtime.rs"],
    },
    HandlerSpec {
        enum_name: "Operation",
        dispatch: &["crates/replica/src/server.rs"],
    },
    HandlerSpec {
        enum_name: "SyncMsg",
        dispatch: &["crates/replica/src/server.rs"],
    },
    HandlerSpec {
        enum_name: "TraceEvent",
        dispatch: &["crates/obs/src/spans.rs"],
    },
    // The profiler consumes the full trace stream independently of the
    // span collector; its own row keeps it honest on its own (one shared
    // row would let a variant handled in either pass for both). The
    // sweep is not a consumer of its own: it reads the critical-path
    // report and `PaperMetrics`, plus two `Custom` kinds.
    HandlerSpec {
        enum_name: "TraceEvent",
        dispatch: &["crates/obs/src/profile.rs"],
    },
    // The profiler orders and anchors spans by kind; every SpanKind must
    // appear in its ranking match.
    HandlerSpec {
        enum_name: "SpanKind",
        dispatch: &["crates/obs/src/profile.rs"],
    },
];

pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    check_specs(ws, SPECS, out);
}

pub fn check_specs(ws: &Workspace, specs: &[HandlerSpec], out: &mut Vec<Finding>) {
    for spec in specs {
        let Some((def_file, def)) = ws
            .files
            .iter()
            .flat_map(|f| f.enums.iter().map(move |e| (f, e)))
            .find(|(_, e)| e.name == spec.enum_name && !e.is_test)
        else {
            out.push(Finding {
                rel: String::new(),
                line: 0,
                rule: "handler-exhaustiveness",
                text: format!("enum {} not found in workspace", spec.enum_name),
            });
            continue;
        };
        let dispatch_files: Vec<_> = ws
            .files
            .iter()
            .filter(|f| spec.dispatch.iter().any(|d| f.rel.ends_with(d)))
            .collect();
        if dispatch_files.is_empty() {
            out.push(Finding {
                rel: def_file.rel.clone(),
                line: def.line,
                rule: "handler-exhaustiveness",
                text: format!(
                    "{}: none of the dispatch files {:?} exist",
                    spec.enum_name, spec.dispatch
                ),
            });
            continue;
        }
        for v in &def.variants {
            let handled = dispatch_files.iter().any(|f| {
                f.toks.windows(4).enumerate().any(|(i, w)| {
                    !f.test_mask[i]
                        && w[0].is_ident(spec.enum_name)
                        && w[1].is_punct(':')
                        && w[2].is_punct(':')
                        && w[3].is_ident(v)
                })
            });
            if !handled {
                out.push(Finding {
                    rel: def_file.rel.clone(),
                    line: def.line,
                    rule: "handler-exhaustiveness",
                    text: format!(
                        "{}::{} is never named in its dispatch file(s) {:?}",
                        spec.enum_name, v, spec.dispatch
                    ),
                });
            }
        }
    }
}
