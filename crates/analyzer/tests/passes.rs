//! The analyzer's acceptance gate, in two halves:
//!
//! * **fixtures fire** — each pass is run over a deliberately broken
//!   file in `tests/fixtures/` and must produce its finding. A pass
//!   that silently stops firing (parser drift, a refactor that skips
//!   the check) fails here, not in production CI where the tree is
//!   clean either way.
//! * **clean tree is clean** — the real workspace produces zero
//!   non-allowlisted findings, and the wire-symmetry inventory covers
//!   the expected number of `Wire` impls per protocol crate.

use marp_analyzer::model::Workspace;
use marp_analyzer::passes::wire::WireShape;
use marp_analyzer::{allowed, load_allowlist, load_workspace, passes, Finding};
use std::path::{Path, PathBuf};

/// Parse one fixture as if it lived at `crates/<rel>` of a workspace.
fn fixture_ws(name: &str, rel: &str) -> Workspace {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    Workspace::from_sources(
        Path::new("/fx"),
        vec![(PathBuf::from(format!("/fx/{rel}")), src)],
    )
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn wire_symmetry_fires_on_fixture() {
    let ws = fixture_ws("wire_asymmetry.rs", "crates/core/src/broken.rs");
    let mut out = Vec::new();
    passes::wire::check(&ws, &mut out);
    assert!(
        rules(&out).contains(&"wire-symmetry"),
        "pass did not fire: {out:?}"
    );
    // Both defects are distinct findings: the swapped decode order on
    // `Put` and the missing tag byte in `encoded_len`.
    assert!(
        out.iter().any(|f| f.text.contains("Put")),
        "field-order defect not reported: {out:?}"
    );
    assert!(
        out.iter().any(|f| f.text.contains("tag")),
        "tag-byte defect not reported: {out:?}"
    );
}

#[test]
fn handler_exhaustiveness_fires_on_fixture() {
    let ws = fixture_ws("handler_missing.rs", "crates/core/src/broken_dispatch.rs");
    let spec = [passes::handlers::HandlerSpec {
        enum_name: "BrokenEvent",
        dispatch: &["crates/core/src/broken_dispatch.rs"],
    }];
    let mut out = Vec::new();
    passes::handlers::check_specs(&ws, &spec, &mut out);
    assert_eq!(rules(&out), vec!["handler-exhaustiveness"], "{out:?}");
    assert!(out[0].text.contains("BrokenEvent::Late"), "{out:?}");
}

#[test]
fn timer_passes_fire_on_fixture() {
    let ws = fixture_ws("timer_collision.rs", "crates/core/src/broken_timers.rs");
    let mut out = Vec::new();
    passes::timers::check(&ws, &mut out);
    let rs = rules(&out);
    assert!(rs.contains(&"timer-tag-collision"), "{out:?}");
    assert!(rs.contains(&"timer-crash-path"), "{out:?}");
    assert!(
        out.iter()
            .any(|f| f.text.contains("TAG_RETRY") && f.text.contains("TAG_LEASE_SWEEP")),
        "collision should name both constants: {out:?}"
    );
}

#[test]
fn span_balance_fires_on_fixture() {
    let ws = fixture_ws("span_unbalanced.rs", "crates/core/src/broken_spans.rs");
    let mut out = Vec::new();
    passes::spans::check(&ws, &mut out);
    assert_eq!(rules(&out), vec!["span-balance"], "{out:?}");
    assert!(out[0].text.contains("Migrate"), "{out:?}");
}

#[test]
fn lease_passes_fire_on_fixture() {
    let ws = fixture_ws("lease_leak.rs", "crates/replica/src/broken_leases.rs");
    let mut out = Vec::new();
    passes::leases::check(&ws, &mut out);
    let rs = rules(&out);
    assert!(rs.contains(&"lease-purge-before-read"), "{out:?}");
    assert!(rs.contains(&"lease-release-path"), "{out:?}");
}

/// The golden run: the real tree, all five passes plus the lint set,
/// zero findings after the allowlist. This is exactly what the CI lint
/// job executes via `xtask lint && xtask analyze`.
#[test]
fn clean_tree_produces_zero_findings() {
    let root = marp_analyzer::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    let ws = load_workspace(&root);
    let allows = load_allowlist(&root);
    let mut findings = marp_analyzer::run_analyze(&ws);
    let (lint, _) = marp_analyzer::run_lint(&ws);
    findings.extend(lint);
    findings.retain(|f| !allowed(&allows, f));
    assert!(
        findings.is_empty(),
        "tree has findings:\n{}",
        marp_analyzer::render(&findings)
    );
}

/// Wire-symmetry coverage: the inventory must see every `Wire` impl in
/// the protocol crates. Adding an impl bumps these counts — that is the
/// point: the analyzer cannot silently lose coverage of a codec.
#[test]
fn wire_inventory_covers_protocol_crates() {
    let root = marp_analyzer::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    let ws = load_workspace(&root);
    let inv = passes::wire::inventory(&ws);

    let count = |krate: &str, macro_shape: bool| {
        inv.iter()
            .filter(|wi| wi.krate == krate && (wi.shape == WireShape::Macro) == macro_shape)
            .count()
    };
    // crates/core: Phase, UpdateAgent, LockingTable, NodeMsg, AgentReply,
    // ReadAgent handwritten; UpdateMsg, CommitMsg via wire_enum!.
    assert_eq!(count("crates/core", false), 6);
    assert_eq!(count("crates/core", true), 2);
    // crates/replica: Operation, ClientReply, SyncMsg handwritten; the
    // request/lock-entry/snapshot family via macros.
    assert_eq!(count("crates/replica", false), 3);
    assert_eq!(count("crates/replica", true), 6);
    // crates/wire: the primitive leaf codecs plus the four varint-macro
    // instantiations (u16, u32, i16, i32).
    assert_eq!(count("crates/wire", false), 15);
    assert_eq!(count("crates/wire", true), 4);
    // Every handwritten non-leaf impl is actually checked, not just
    // inventoried: they all classify as Enum or Struct.
    assert_eq!(inv.len(), 52, "workspace-wide Wire impl count");
    // The two MARP message enums, by variant: the symmetry pass checks
    // one tag per variant, so these are the tag counts it covers.
    // AgentReply gained the `LlChanged` change notice; NodeMsg lost
    // `LlQueryKeyed` (folded into the one keyed `LlQuery`).
    let variants = |name: &str| {
        ws.files
            .iter()
            .flat_map(|f| &f.enums)
            .find(|e| e.name == name && !e.is_test)
            .map(|e| e.variants.len())
    };
    assert_eq!(variants("AgentReply"), Some(3));
    assert_eq!(variants("NodeMsg"), Some(8));
}
