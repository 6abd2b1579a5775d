//! Workspace automation tasks: `lint` and `analyze`.
//!
//! Both delegate to the `marp-analyzer` crate, which parses every
//! protocol crate into a token/item model and runs the checks over it
//! (see `crates/analyzer/` and `docs/ANALYSIS.md`).
//!
//! `cargo run -p xtask -- lint` enforces the sans-io discipline on the
//! protocol crates (`core`, `quorum`, `baselines`, `agent`, `replica`,
//! `wire` — the crates whose logic must be a pure function of delivered
//! events so the simulator, the threaded runtime, and the model checker
//! all execute identical behaviour):
//!
//! * **no-wall-clock** — `std::time::Instant` / `SystemTime`: reading
//!   host time desynchronizes simulated and real executions.
//! * **no-sleep** — `thread::sleep`: protocol code never blocks; delay
//!   is expressed as timers the harness schedules.
//! * **no-net** — `std::net`: I/O lives in `marp-threaded`, not in
//!   protocol crates.
//! * **no-ambient-rand** — `rand::` / `thread_rng` / `from_entropy`:
//!   randomness must come in through config/seeds so runs replay.
//! * **no-unwrap-core** (crates/core only) — `unwrap()` / `expect(`:
//!   protocol paths handle malformed input; a panic in a replica is a
//!   crash fault the paper's model does not allow us to self-inflict.
//! * **no-unreserved-encode** — `BytesMut::new()`: encode paths must
//!   reserve up front (`BytesMut::with_capacity`, fed by
//!   `Wire::encoded_len`) so building a message never reallocates
//!   mid-write.
//! * **timer-tag-discipline** — `set_timer` callers must pass a
//!   `TAG_*` constant or a `TimerMux`-minted tag (an `.arm(` /
//!   `TimerMux::tag(` nearby), so every fired timer is attributable
//!   and stale fires are rejected by epoch.
//! * **no-wildcard-match** (crates/obs only) — no standalone `_ =>`
//!   arms: exporters must match `TraceEvent` exhaustively so adding a
//!   variant is a loud failure, not silently dropped data.
//!
//! `cargo run -p xtask -- analyze` runs the four protocol-aware passes
//! (handler exhaustiveness, timer-tag registry, span balance, lease
//! discipline) plus one rule: no handwritten `impl Wire` outside
//! `crates/wire` — codecs are declared with `wire_struct!` /
//! `wire_enum!`, symmetric by construction.
//!
//! Known-good exceptions for either command live in `lint-allow.txt` at
//! the workspace root: lines of `<path-suffix> <rule> <substring>`.

use marp_analyzer::{allowed, load_allowlist, load_workspace, render, run_analyze, run_lint};
use std::process::ExitCode;

fn cmd_lint() -> ExitCode {
    let root = marp_analyzer::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    let allows = load_allowlist(&root);
    let ws = load_workspace(&root);
    let (mut findings, files_scanned) = run_lint(&ws);
    findings.retain(|f| !allowed(&allows, f));
    if findings.is_empty() {
        println!("xtask lint: {files_scanned} files clean");
        return ExitCode::SUCCESS;
    }
    eprint!("{}", render(&findings));
    eprintln!(
        "xtask lint: {} violation(s) in {files_scanned} files \
         (allowlist: lint-allow.txt — '<path-suffix> <rule> <substring>')",
        findings.len()
    );
    ExitCode::FAILURE
}

fn cmd_analyze() -> ExitCode {
    let root = marp_analyzer::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    let allows = load_allowlist(&root);
    let ws = load_workspace(&root);
    let impls = marp_analyzer::passes::wire::inventory(&ws).len();
    let mut findings = run_analyze(&ws);
    findings.retain(|f| !allowed(&allows, f));
    if findings.is_empty() {
        println!(
            "xtask analyze: four passes + one rule clean ({} files, {impls} Wire impls)",
            ws.files.len()
        );
        return ExitCode::SUCCESS;
    }
    eprint!("{}", render(&findings));
    eprintln!(
        "xtask analyze: {} finding(s) in {} files \
         (allowlist: lint-allow.txt — '<path-suffix> <rule> <substring>')",
        findings.len(),
        ws.files.len()
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(),
        Some("analyze") => cmd_analyze(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- <lint|analyze>");
            ExitCode::from(2)
        }
    }
}
