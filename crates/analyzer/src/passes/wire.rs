//! Wire inventory, and the one rule that keeps codecs symmetric by
//! construction.
//!
//! Every message and carried-state type declares its codec with
//! `wire_struct!` / `wire_enum!`, where a single field list feeds
//! `encode` and `decode` — the two cannot disagree, and
//! a missing variant, a missing field or a duplicate tag does not
//! compile. What is left to police is that nobody bypasses the macros:
//! a handwritten `impl Wire for T` outside `crates/wire/src` (home of
//! the primitive and container codecs, covered by its round-trip
//! proptests) is a `handwritten-wire-impl` finding.

use crate::lex::TokKind;
use crate::model::Workspace;
use crate::Finding;

/// Where an impl comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireShape {
    /// `wire_struct!` / `wire_enum!` / `wire_uvarint!`.
    Macro,
    /// A spelled-out `impl Wire for T`.
    Handwritten,
}

/// One `Wire` implementation found in the workspace.
#[derive(Debug, Clone)]
pub struct WireImplInfo {
    pub krate: String,
    pub rel: String,
    pub line: u32,
    pub type_name: String,
    pub shape: WireShape,
}

const WIRE_MACROS: &[&str] = &["wire_struct", "wire_enum", "wire_uvarint"];

/// Every non-test `Wire` impl in the workspace, handwritten or macro.
pub fn inventory(ws: &Workspace) -> Vec<WireImplInfo> {
    let mut out = Vec::new();
    for f in &ws.files {
        let mut push = |line: u32, type_name: String, shape: WireShape| {
            out.push(WireImplInfo {
                krate: f.krate.clone(),
                rel: f.rel.clone(),
                line,
                type_name,
                shape,
            });
        };
        for im in &f.impls {
            if !im.is_test && im.trait_name.as_deref() == Some("Wire") && !im.type_name.is_empty() {
                push(im.line, im.type_name.clone(), WireShape::Handwritten);
            }
        }
        for mc in &f.macros {
            if mc.is_test || !WIRE_MACROS.contains(&mc.name.as_str()) {
                continue;
            }
            // wire_struct!/wire_enum! name one type (the first ident);
            // wire_uvarint! instantiates one impl per listed type.
            let one_type = mc.name == "wire_struct" || mc.name == "wire_enum";
            f.toks[mc.args.clone()]
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .take(if one_type { 1 } else { usize::MAX })
                .for_each(|t| push(mc.line, t.text.clone(), WireShape::Macro));
        }
    }
    out
}

/// Flag every handwritten impl outside the wire crate itself.
pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    for wi in inventory(ws) {
        if wi.shape == WireShape::Handwritten && !wi.rel.starts_with("crates/wire/src/") {
            out.push(Finding {
                rel: wi.rel,
                line: wi.line,
                rule: "handwritten-wire-impl",
                text: format!(
                    "`impl Wire for {}`: declare the codec with wire_struct!/wire_enum! so \
                     encode and decode share one field list",
                    wi.type_name
                ),
            });
        }
    }
}
