//! `marp-analyze` — run the protocol-aware static analysis suite (and
//! optionally the lint set) from the command line.
//!
//! ```text
//! marp-analyze            # four protocol passes + one rule
//! marp-analyze lint       # sans-io lint set only
//! marp-analyze all        # both
//! ```
//!
//! Exit status is non-zero when any non-allowlisted finding remains.

use marp_analyzer::{allowed, load_allowlist, load_workspace, render, run_analyze, run_lint};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "analyze".into());
    let root = marp_analyzer::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    let allows = load_allowlist(&root);
    let ws = load_workspace(&root);

    let (mut findings, summary) = match mode.as_str() {
        "lint" => {
            let (fs, files) = run_lint(&ws);
            (fs, format!("{files} files linted"))
        }
        "analyze" => {
            let impls = marp_analyzer::passes::wire::inventory(&ws).len();
            (
                run_analyze(&ws),
                format!("{} files, {impls} Wire impls", ws.files.len()),
            )
        }
        "all" => {
            let (mut fs, files) = run_lint(&ws);
            fs.extend(run_analyze(&ws));
            (
                fs,
                format!("{files} files linted, {} files analyzed", ws.files.len()),
            )
        }
        "inventory" => {
            for wi in marp_analyzer::passes::wire::inventory(&ws) {
                println!("{}:{}: {:?} {}", wi.rel, wi.line, wi.shape, wi.type_name);
            }
            for s in marp_analyzer::passes::spans::sites(&ws) {
                if s.is_emission {
                    println!("{}:{}: span-emit {} {:?}", s.rel, s.line, s.variant, s.kind);
                }
            }
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("usage: marp-analyze [analyze|lint|all|inventory] (got {other:?})");
            return ExitCode::from(2);
        }
    };
    findings.retain(|f| !allowed(&allows, f));
    if findings.is_empty() {
        println!("marp-analyze {mode}: clean ({summary})");
        return ExitCode::SUCCESS;
    }
    eprint!("{}", render(&findings));
    eprintln!(
        "marp-analyze {mode}: {} finding(s) ({summary}) \
         (allowlist: lint-allow.txt — '<path-suffix> <rule> <substring>')",
        findings.len()
    );
    ExitCode::FAILURE
}
