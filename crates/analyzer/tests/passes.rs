//! The analyzer's acceptance gate, in two halves:
//!
//! * **fixtures fire** — each pass is run over a deliberately broken
//!   file in `tests/fixtures/` and must produce its finding. A pass
//!   that silently stops firing (parser drift, a refactor that skips
//!   the check) fails here, not in production CI where the tree is
//!   clean either way.
//! * **clean tree is clean** — the real workspace produces zero
//!   non-allowlisted findings, and the wire inventory sees the expected
//!   number of macro-declared codecs per protocol crate and no
//!   handwritten one.

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
fn handwritten_wire_impl_fires_on_fixture() {
    let ws = fixture_ws("wire_asymmetry.rs", "crates/core/src/broken.rs");
    let mut out = Vec::new();
    passes::wire::check(&ws, &mut out);
    assert_eq!(rules(&out), vec!["handwritten-wire-impl"], "{out:?}");
    assert!(out[0].text.contains("BrokenMsg"), "{out:?}");
    // The same impl inside the wire crate is a leaf codec, not a finding.
    let ws = fixture_ws("wire_asymmetry.rs", "crates/wire/src/broken.rs");
    let mut out = Vec::new();
    passes::wire::check(&ws, &mut out);
    assert!(out.is_empty(), "{out:?}");
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
    let ws = fixture_ws("timer_crash_path.rs", "crates/core/src/broken_timers.rs");
    let mut out = Vec::new();
    passes::timers::check(&ws, &mut out);
    assert_eq!(rules(&out), vec!["timer-crash-path"], "{out:?}");
    assert!(out[0].text.contains("Regenerator::on_recover"), "{out:?}");
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

/// The golden run: the real tree, the four passes, the
/// `handwritten-wire-impl` rule and the lint set,
/// zero findings after the allowlist. This is exactly what the CI lint
/// job executes via `marp-analyze all`.
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

/// Symmetry by construction, pinned: every codec in the protocol
/// crates is a macro declaration and none is handwritten. Adding a
/// message bumps a count here — the inventory cannot silently lose
/// sight of a codec.
#[test]
fn wire_inventory_covers_protocol_crates() {
    let root = marp_analyzer::workspace_root_from(env!("CARGO_MANIFEST_DIR"));
    let ws = load_workspace(&root);
    let inv = passes::wire::inventory(&ws);

    let count = |krate: &str, shape: WireShape| {
        inv.iter()
            .filter(|wi| wi.krate == krate && wi.shape == shape)
            .count()
    };
    for (krate, macros) in [
        // Phase, UpdateAgent, LlRow, LockingTable, ReadAgent, UpdateMsg,
        // CommitMsg, NodeMsg, AgentReply.
        ("crates/core", 9),
        // Operation, ClientRequest, ClientReply, WriteRequest, SyncMsg,
        // LlSnapshot, UpdatedList, CommitRecord.
        ("crates/replica", 8),
        // AgentId, AgentEnvelope, ItineraryPolicy, Itinerary.
        ("crates/agent", 4),
        // SuccessRule, Verdict, QuorumCall.
        ("crates/quorum", 3),
        // Ballot, LwwTs, McvMsg, WvMsg, AcMsg, PcMsg.
        ("crates/baselines", 6),
        // SimTime, SpanKind, TraceEvent.
        ("crates/sim", 3),
    ] {
        assert_eq!(count(krate, WireShape::Macro), macros, "{krate}");
        assert_eq!(count(krate, WireShape::Handwritten), 0, "{krate}");
    }
    // crates/wire: the primitive and container codecs (`&'static str`
    // labels among them), plus the two varint-macro instantiations
    // (u16, u32).
    assert_eq!(count("crates/wire", WireShape::Handwritten), 12);
    assert_eq!(count("crates/wire", WireShape::Macro), 2);
    assert_eq!(inv.len(), 47, "workspace-wide Wire impl count");
    // The two MARP message enums, by variant (the tag count each
    // `wire_enum!` declaration covers).
    let variants = |name: &str| {
        ws.files
            .iter()
            .flat_map(|f| &f.enums)
            .find(|e| e.name == name && !e.is_test)
            .map(|e| e.variants.len())
    };
    assert_eq!(variants("AgentReply"), Some(3));
    assert_eq!(variants("NodeMsg"), Some(8));
    // And the trace-file codec: one tag per event kind.
    assert_eq!(variants("TraceEvent"), Some(22));
}
