//! Lease discipline over the per-key Locking Lists.
//!
//! **lease-purge-before-read** — `LockTable::top` / `rank_of` answer
//! priority questions from the Locking List; answering from a list that
//! still contains expired leases hands the lock to a dead agent. Any
//! non-test fn that calls `.top(` / `.rank_of(` must have called a
//! `purge_expired*` routine earlier in the same fn body (intra-
//! procedural — a purge in a different fn does not count, because the
//! simulated clock may have advanced between the two calls).
//!
//! **lease-release-path** — a file whose live code enqueues lease
//! requests (`.request(` on a locking list) must also contain a release
//! path: `remove` or a `purge_expired*` sweep.
//! A component that only ever acquires leaks its slot in every list it
//! touched the moment an agent dies mid-protocol.
//!
//! `crates/replica/src/locking.rs` defines these APIs and is exempt.

use super::{enclosing_fn, seq_in};
use crate::lex::seq_at;
use crate::model::Workspace;
use crate::Finding;

const DEFINING_FILE: &str = "crates/replica/src/locking.rs";

pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if f.rel.ends_with(DEFINING_FILE) {
            continue;
        }
        // ---- purge-before-read ----
        for func in f.all_fns() {
            if func.is_test || ["top", "rank_of"].contains(&func.name.as_str()) {
                continue;
            }
            let body = func.body.clone();
            for i in body.clone() {
                let is_read = seq_at(&f.toks, i, &[".", "top", "("])
                    || seq_at(&f.toks, i, &[".", "rank_of", "("]);
                if !is_read || f.test_mask[i] {
                    continue;
                }
                let purged_before = f.toks[body.start..i].iter().any(|t| {
                    t.kind == crate::lex::TokKind::Ident && t.text.starts_with("purge_expired")
                });
                if !purged_before {
                    out.push(Finding {
                        rel: f.rel.clone(),
                        line: f.toks[i].line,
                        rule: "lease-purge-before-read",
                        text: format!(
                            "fn {} reads locking-list priority without purging expired \
                             leases earlier in the same body",
                            func.name
                        ),
                    });
                }
            }
        }
        // ---- release path ----
        let mut request_site = None;
        for i in 0..f.toks.len() {
            if f.test_mask[i] {
                continue;
            }
            if seq_at(&f.toks, i, &[".", "request", "("]) {
                let in_test_fn = enclosing_fn(f, i).is_some_and(|func| func.is_test);
                if !in_test_fn {
                    request_site = Some((f.toks[i].line, i));
                    break;
                }
            }
        }
        if let Some((line, _)) = request_site {
            let releases = (0..f.toks.len()).any(|i| {
                !f.test_mask[i]
                    && (seq_in(&f.toks, i..(i + 3).min(f.toks.len()), &[".", "remove", "("])
                        || (f.toks[i].kind == crate::lex::TokKind::Ident
                            && f.toks[i].text.starts_with("purge_expired")))
            });
            if !releases {
                out.push(Finding {
                    rel: f.rel.clone(),
                    line,
                    rule: "lease-release-path",
                    text: "file acquires locking-list leases (`.request(`) but has no \
                           release path (remove / purge_expired*)"
                        .to_string(),
                });
            }
        }
    }
}
