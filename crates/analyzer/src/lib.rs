//! `marp-analyzer`: protocol-aware static analysis for the MARP
//! workspace, over a handwritten, dependency-free Rust token model.
//!
//! Two entry points, driven by the `marp-analyze` binary:
//!
//! * [`run_lint`] — the sans-io lint set, on the token model.
//! * [`run_analyze`] — the four protocol passes (handler
//!   exhaustiveness, timer crash paths, span balance, lease discipline)
//!   plus one rule: no handwritten `impl Wire` outside `crates/wire`.
//!
//! Findings print as `path:line: [rule] text`; deliberate exemptions
//! live in `lint-allow.txt` at the workspace root, one
//! `<path-suffix> <rule> <substring>` triple per line. See
//! `docs/ANALYSIS.md` for what each pass proves and what it cannot.

pub mod lex;
pub mod model;
pub mod passes;

use model::Workspace;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One finding: a workspace-relative location, the rule that fired, and
/// the offending source line (or a synthesized description).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    pub line: u32,
    pub rule: &'static str,
    pub text: String,
}

/// One allowlist entry: suppress `rule` findings on lines containing
/// `substring` in files whose path ends with `path_suffix`.
#[derive(Debug, Clone)]
pub struct Allow {
    pub path_suffix: String,
    pub rule: String,
    pub substring: String,
}

/// Parse `lint-allow.txt` at the workspace root. Missing file = empty.
pub fn load_allowlist(root: &Path) -> Vec<Allow> {
    let Ok(text) = std::fs::read_to_string(root.join("lint-allow.txt")) else {
        return Vec::new();
    };
    let mut allows = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        if let (Some(path_suffix), Some(rule), Some(substring)) =
            (parts.next(), parts.next(), parts.next())
        {
            allows.push(Allow {
                path_suffix: path_suffix.to_string(),
                rule: rule.to_string(),
                substring: substring.trim().to_string(),
            });
        }
    }
    allows
}

/// Is this finding suppressed by an allowlist entry?
pub fn allowed(allows: &[Allow], finding: &Finding) -> bool {
    allows.iter().any(|a| {
        finding.rel.ends_with(&a.path_suffix)
            && a.rule == finding.rule
            && finding.text.contains(&a.substring)
    })
}

/// Load and parse every `crates/*/src/**/*.rs` file except the offline
/// dependency stand-ins under `crates/compat/`.
pub fn load_workspace(root: &Path) -> Workspace {
    let mut sources = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    crate_dirs.sort();
    for dir in crate_dirs {
        if !dir.is_dir() || dir.file_name().is_some_and(|n| n == "compat") {
            continue;
        }
        let mut files = Vec::new();
        model::collect_rs_files(&dir.join("src"), &mut files);
        for path in files {
            if let Ok(src) = std::fs::read_to_string(&path) {
                sources.push((path, src));
            }
        }
    }
    Workspace::from_sources(root, sources)
}

/// Run the four protocol passes and the handwritten-wire-impl rule.
/// Allowlist not applied.
pub fn run_analyze(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    passes::wire::check(ws, &mut out);
    passes::handlers::check(ws, &mut out);
    passes::timers::check(ws, &mut out);
    passes::spans::check(ws, &mut out);
    passes::leases::check(ws, &mut out);
    sort_findings(&mut out);
    out
}

/// Run the sans-io lint set. Returns findings (allowlist not applied)
/// and the number of files scanned.
pub fn run_lint(ws: &Workspace) -> (Vec<Finding>, usize) {
    let (mut findings, files) = passes::lints::check(ws);
    sort_findings(&mut findings);
    (findings, files)
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| (&a.rel, a.line, a.rule).cmp(&(&b.rel, b.line, b.rule)));
}

/// Render findings in the `path:line: [rule] text` shape the CI log
/// greps for.
pub fn render(findings: &[Finding]) -> String {
    let mut msg = String::new();
    for f in findings {
        let _ = writeln!(msg, "{}:{}: [{}] {}", f.rel, f.line, f.rule, f.text);
    }
    msg
}

/// Workspace root for the analyzer binary: two levels above the
/// invoking crate's manifest dir.
pub fn workspace_root_from(manifest_dir: &str) -> PathBuf {
    let manifest = PathBuf::from(manifest_dir);
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_suppresses_matching_findings() {
        let allows = vec![Allow {
            path_suffix: "src/x.rs".into(),
            rule: "no-wall-clock".into(),
            substring: "SystemTime".into(),
        }];
        let hit = Finding {
            rel: "crates/core/src/x.rs".into(),
            line: 1,
            rule: "no-wall-clock",
            text: "let s = SystemTime::now();".into(),
        };
        let miss = Finding {
            rel: "crates/core/src/y.rs".into(),
            line: 1,
            rule: "no-wall-clock",
            text: "let s = SystemTime::now();".into(),
        };
        assert!(allowed(&allows, &hit));
        assert!(!allowed(&allows, &miss));
    }

    #[test]
    fn render_is_grep_shaped() {
        let f = Finding {
            rel: "crates/core/src/x.rs".into(),
            line: 7,
            rule: "span-balance",
            text: "Msg: bad".into(),
        };
        assert_eq!(
            render(&[f]),
            "crates/core/src/x.rs:7: [span-balance] Msg: bad\n"
        );
    }
}
