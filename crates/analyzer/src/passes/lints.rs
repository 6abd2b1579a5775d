//! The sans-io lint set (`marp-analyze lint`; the rules are listed in
//! `docs/ANALYSIS.md`). Matched on the token model, so string literals,
//! doc comments, and `#[cfg(test)]` code (including `use` statements
//! inside test modules) cannot produce false positives, and a
//! `set_timer` forwarding wrapper is recognized structurally instead of
//! needing an allowlist entry.

use super::enclosing_fn;
use crate::lex::{seq_at, TokKind};
use crate::model::{FileModel, Workspace};
use crate::Finding;
use std::collections::BTreeSet;

/// Crates whose `src/` must stay sans-io. `crates/wire` rides along:
/// a codec is trivially sans-io, and the scan also enforces the
/// encode-reservation rule there.
pub const SANS_IO_CRATES: &[&str] = &[
    "crates/core",
    "crates/quorum",
    "crates/baselines",
    "crates/agent",
    "crates/replica",
    "crates/wire",
];

/// Crates whose `src/` must not contain wildcard match arms.
pub const EXHAUSTIVE_MATCH_CRATES: &[&str] = &["crates/obs"];

/// Run the lint set. Returns the findings and the number of files
/// scanned (for the `N files linted` summary).
pub fn check(ws: &Workspace) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    for krate in SANS_IO_CRATES {
        for f in ws.files.iter().filter(|f| f.krate == *krate) {
            files_scanned += 1;
            lint_file(f, *krate == "crates/core", &mut findings);
        }
    }
    for krate in EXHAUSTIVE_MATCH_CRATES {
        for f in ws.files.iter().filter(|f| f.krate == *krate) {
            files_scanned += 1;
            lint_exhaustive(f, &mut findings);
        }
    }
    (findings, files_scanned)
}

fn lint_file(f: &FileModel, core_crate: bool, findings: &mut Vec<Finding>) {
    let toks = &f.toks;
    // Lines where a TAG_* constant is named or a tag is minted from a
    // timer kind (`mux.arm(kind, ..)` / `TimerMux::tag(kind, ..)`), for
    // the timer-discipline proximity check.
    let mut tag_lines: BTreeSet<u32> = BTreeSet::new();
    let mut minted_lines: BTreeSet<u32> = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text.starts_with("TAG_") {
            tag_lines.insert(toks[i].line);
        }
        if seq_at(toks, i, &[".", "arm", "("]) || seq_at(toks, i, &["TimerMux", "::", "tag", "("]) {
            minted_lines.insert(toks[i].line);
        }
    }

    // (line, rule) de-dup so one source line reports each rule once, as
    // the line-based scan did.
    let mut seen: BTreeSet<(u32, &'static str)> = BTreeSet::new();
    let mut report = |findings: &mut Vec<Finding>, line: u32, rule: &'static str| {
        if seen.insert((line, rule)) {
            findings.push(Finding {
                rel: f.rel.clone(),
                line,
                rule,
                text: f.line_text(line),
            });
        }
    };

    for i in 0..toks.len() {
        if f.test_mask[i] {
            continue;
        }
        let t = &toks[i];
        let line = t.line;
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            report(findings, line, "no-wall-clock");
        }
        if seq_at(toks, i, &["thread", "::", "sleep"])
            || seq_at(toks, i, &["sleep", "(", "Duration"])
        {
            report(findings, line, "no-sleep");
        }
        if seq_at(toks, i, &["std", "::", "net"]) {
            report(findings, line, "no-net");
        }
        if seq_at(toks, i, &["rand", "::"])
            || t.is_ident("thread_rng")
            || t.is_ident("from_entropy")
        {
            report(findings, line, "no-ambient-rand");
        }
        if core_crate
            && (seq_at(toks, i, &[".", "unwrap", "(", ")"])
                || seq_at(toks, i, &[".", "expect", "("]))
        {
            report(findings, line, "no-unwrap-core");
        }
        // Encode paths reserve before writing: `BytesMut::new()` starts
        // at capacity zero, so the first encode into it reallocates.
        if seq_at(toks, i, &["BytesMut", "::", "new", "(", ")"]) {
            report(findings, line, "no-unreserved-encode");
        }
        // Timer tag discipline: a `set_timer` *call* must name a TAG_*
        // constant on the same line or use a tag minted from a timer
        // kind within the preceding few lines. A call inside a fn that is
        // itself named `set_timer` is a forwarding wrapper, not an
        // arming site.
        if t.is_ident("set_timer")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !(i > 0 && toks[i - 1].is_ident("fn"))
            && enclosing_fn(f, i).is_none_or(|func| func.name != "set_timer")
        {
            let tagged = tag_lines.contains(&line);
            let minted_nearby = minted_lines
                .range(line.saturating_sub(3)..=line)
                .next()
                .is_some();
            if !tagged && !minted_nearby {
                report(findings, line, "timer-tag-discipline");
            }
        }
    }
}

/// The `no-wildcard-match` pass for [`EXHAUSTIVE_MATCH_CRATES`]. Unlike
/// the sans-io pass this also scans `#[cfg(test)]` code: a wildcard in
/// a test hides new variants from the assertions just as effectively.
fn lint_exhaustive(f: &FileModel, findings: &mut Vec<Finding>) {
    for i in 0..f.toks.len() {
        if f.toks[i].is_ident("_")
            && f.toks.get(i + 1).is_some_and(|t| t.is_punct('='))
            && f.toks.get(i + 2).is_some_and(|t| t.is_punct('>'))
        {
            findings.push(Finding {
                rel: f.rel.clone(),
                line: f.toks[i].line,
                rule: "no-wildcard-match",
                text: f.line_text(f.toks[i].line),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workspace;
    use std::path::{Path, PathBuf};

    fn ws_core(src: &str) -> Workspace {
        Workspace::from_sources(
            Path::new("/r"),
            vec![(PathBuf::from("/r/crates/core/src/x.rs"), src.to_string())],
        )
    }

    fn rules(ws: &Workspace) -> Vec<&'static str> {
        let (fs, _) = check(ws);
        fs.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn test_modules_are_skipped() {
        let w = ws_core(
            "fn live() { x.unwrap(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             use std::time::Instant;\n\
             fn t() { y.unwrap(); let i = Instant::now(); }\n\
             }\n\
             fn live2() { let s = SystemTime::now(); }\n",
        );
        assert_eq!(rules(&w), vec!["no-unwrap-core", "no-wall-clock"]);
    }

    #[test]
    fn strings_and_comments_no_longer_trip_rules() {
        let w = ws_core("fn f() { log(\"Instant\"); } // SystemTime\n");
        assert!(rules(&w).is_empty());
    }

    #[test]
    fn timer_discipline_accepts_tags_mux_minted_and_wrappers() {
        let ok = "fn a(ctx: &mut C) { ctx.set_timer(wait, TAG_MIGRATE_RETRY); }\n\
                  fn b(env: &mut E) {\n\
                  let tag = self.timers.arm(AcTimer::Ack, epoch);\n\
                  env.set_timer(delay, tag);\n\
                  }\n\
                  fn c(ctx: &mut C) { ctx.set_timer(d, TimerMux::tag(NodeTimer::Regen, e)); }\n\
                  fn set_timer(&mut self, after: D, tag: u64) { self.ctx.set_timer(after, tag) }\n";
        assert!(rules(&ws_core(ok)).is_empty());

        let bad = "fn a(ctx: &mut C) { ctx.set_timer(wait, 42); }\n";
        assert_eq!(rules(&ws_core(bad)), vec!["timer-tag-discipline"]);
    }

    #[test]
    fn unreserved_encode_buffers_are_flagged() {
        let w = ws_core("fn f() { let mut buf = BytesMut::new(); }\n");
        assert_eq!(rules(&w), vec!["no-unreserved-encode"]);
        let ok = ws_core("fn f() { let mut b = BytesMut::with_capacity(m.encoded_len()); }\n");
        assert!(rules(&ok).is_empty());
    }

    #[test]
    fn wildcard_arm_detection_is_token_aware() {
        let w = Workspace::from_sources(
            Path::new("/r"),
            vec![(
                PathBuf::from("/r/crates/obs/src/x.rs"),
                "fn f(e: E) { // _ => {}\n match e {\n (_, x) => g(x),\n Some(_) => h(),\n other => k(other),\n _ => {}\n } }\n"
                    .to_string(),
            )],
        );
        let (fs, _) = check(&w);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "no-wildcard-match");
        assert_eq!(fs[0].line, 6);
    }

    #[test]
    fn sleep_net_rand_ports_match_old_semantics() {
        let w = ws_core(
            "fn f() { thread::sleep(d); sleep(Duration::from_secs(1)); }\n\
             fn g() { let l = std::net::TcpListener::bind(a); }\n\
             fn h() { let r = rand::random(); let t = thread_rng(); }\n",
        );
        let rs = rules(&w);
        assert!(rs.contains(&"no-sleep"));
        assert!(rs.contains(&"no-net"));
        assert!(rs.contains(&"no-ambient-rand"));
    }
}
