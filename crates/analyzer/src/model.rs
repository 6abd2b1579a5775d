//! Item-level parser: walks a token stream and extracts the structural
//! model the passes consume — enums with ordered variants, fns with
//! body token ranges, impl blocks with their method lists, and macro
//! invocations.
//!
//! This is not a Rust parser. It is a brace-matching item scanner: it
//! recognizes the handful of item forms the passes care about and skips
//! everything else by advancing one token. `macro_rules!` bodies are
//! skipped entirely (their `$ty`-templated impls would otherwise leak
//! phantom items), and `#[cfg(test)]` / `#[test]` items are carried with
//! an `is_test` marker so protocol passes can exclude them while the
//! wildcard-match lint (which deliberately covers tests) can keep them.

use crate::lex::{lex, matching_close, Tok, TokKind};
use std::ops::Range;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone)]
pub struct EnumDef {
    pub name: String,
    /// Variant names, in declaration order.
    pub variants: Vec<String>,
    pub is_test: bool,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// Token range of the body (inside the braces), empty for decls.
    pub body: Range<usize>,
    /// Token range of the signature (after `fn name` up to body/`;`).
    pub sig: Range<usize>,
    pub is_test: bool,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub struct ImplDef {
    /// Trait being implemented (last path segment), if any.
    pub trait_name: Option<String>,
    /// Target type as concatenated tokens (`NodeMsg`, `Option<T>`, …).
    pub type_name: String,
    pub fns: Vec<FnDef>,
    pub is_test: bool,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub struct MacroCall {
    /// Last path segment of the macro name (`wire_struct`).
    pub name: String,
    /// Token range of the arguments (inside the delimiters).
    pub args: Range<usize>,
    pub is_test: bool,
    pub line: u32,
}

/// Everything extracted from one file.
#[derive(Debug)]
pub struct FileModel {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Crate directory (`crates/core`).
    pub krate: String,
    pub toks: Vec<Tok>,
    /// `test_mask[i]` is true when token `i` is inside `#[cfg(test)]` /
    /// `#[test]` code (including non-item tokens like `use` statements
    /// inside test modules).
    pub test_mask: Vec<bool>,
    /// Raw source lines for finding text.
    pub lines: Vec<String>,
    pub enums: Vec<EnumDef>,
    pub fns: Vec<FnDef>,
    pub impls: Vec<ImplDef>,
    pub macros: Vec<MacroCall>,
}

impl FileModel {
    /// The trimmed source text of a 1-based line, for finding output.
    pub fn line_text(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// All fns in the file: free fns plus impl methods.
    pub fn all_fns(&self) -> impl Iterator<Item = &FnDef> {
        self.fns
            .iter()
            .chain(self.impls.iter().flat_map(|i| i.fns.iter()))
    }
}

/// The parsed workspace.
#[derive(Debug, Default)]
pub struct Workspace {
    pub files: Vec<FileModel>,
}

impl Workspace {
    /// Parse a set of (path, source) pairs. `root` is used only to
    /// compute relative paths.
    pub fn from_sources(root: &Path, sources: Vec<(PathBuf, String)>) -> Workspace {
        let files = sources
            .into_iter()
            .map(|(path, src)| parse_file(root, path, &src))
            .collect();
        Workspace { files }
    }

    /// Look up an enum definition by name anywhere in the workspace.
    pub fn find_enum(&self, name: &str) -> Option<&EnumDef> {
        self.files
            .iter()
            .flat_map(|f| f.enums.iter())
            .find(|e| e.name == name)
    }
}

/// Attribute scan result: which markers were present.
#[derive(Default, Clone, Copy)]
struct Attrs {
    cfg_test: bool,
    test: bool,
}

/// Parse one file into a [`FileModel`].
pub fn parse_file(root: &Path, path: PathBuf, src: &str) -> FileModel {
    let toks = lex(src);
    let rel = path
        .strip_prefix(root)
        .unwrap_or(&path)
        .to_string_lossy()
        .replace('\\', "/");
    let krate = rel.split('/').take(2).collect::<Vec<_>>().join("/");
    let n_toks = toks.len();
    let mut fm = FileModel {
        rel,
        krate,
        lines: src.lines().map(str::to_string).collect(),
        test_mask: vec![false; n_toks],
        toks,
        enums: Vec::new(),
        fns: Vec::new(),
        impls: Vec::new(),
        macros: Vec::new(),
    };
    parse_items(&mut fm, 0, n_toks, false);
    // `#[test]` fns inside otherwise-live impl blocks are recorded with
    // their own marker; fold them into the mask too.
    let ranges: Vec<Range<usize>> = fm
        .impls
        .iter()
        .flat_map(|im| im.fns.iter())
        .filter(|f| f.is_test)
        .map(|f| f.sig.start.saturating_sub(2)..f.body.end)
        .collect();
    for r in ranges {
        for m in &mut fm.test_mask[r.start..r.end.min(n_toks)] {
            *m = true;
        }
    }
    fm
}

/// Scan `[start, end)` for items, recursing into `mod` bodies.
fn parse_items(fm: &mut FileModel, start: usize, end: usize, in_test: bool) {
    if in_test {
        for m in &mut fm.test_mask[start..end.min(fm.toks.len())] {
            *m = true;
        }
    }
    let mut i = start;
    while i < end {
        let mut attrs = Attrs::default();
        // Consume attributes.
        while i < end && fm.toks[i].is_punct('#') {
            let mut j = i + 1;
            if j < end && fm.toks[j].is_punct('!') {
                j += 1;
            }
            if j < end && fm.toks[j].is_punct('[') {
                let close = matching_close(&fm.toks, j);
                let inner: Vec<&str> = fm.toks[j + 1..close]
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect();
                if inner.contains(&"test") {
                    // #[test], #[cfg(test)], #[cfg_attr(test, ..)]
                    if inner.first() == Some(&"cfg") || inner.first() == Some(&"cfg_attr") {
                        attrs.cfg_test = true;
                    } else if inner == ["test"] {
                        attrs.test = true;
                    }
                }
                i = close + 1;
            } else {
                i += 1;
            }
        }
        if i >= end {
            break;
        }
        let t = &fm.toks[i];
        let is_test = in_test || attrs.cfg_test || attrs.test;
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let item_start = i;
        match t.text.as_str() {
            "pub" => {
                i += 1;
                // pub(crate) / pub(super)
                if i < end && fm.toks[i].is_punct('(') {
                    i = matching_close(&fm.toks, i) + 1;
                }
                // Re-apply the attrs we just consumed by looping without
                // resetting: simplest is to handle the item keyword now.
                i = parse_one_item(fm, i, end, is_test);
            }
            "const" | "static" | "enum" | "fn" | "impl" | "mod" | "trait" | "macro_rules"
            | "unsafe" | "async" => {
                i = parse_one_item(fm, i, end, is_test);
            }
            _ => {
                // Possible macro invocation `path::name!(...)`.
                if let Some(next) = parse_macro_call(fm, i, end, is_test) {
                    i = next;
                } else {
                    i += 1;
                }
            }
        }
        if is_test && !in_test {
            let hi = i.min(fm.toks.len());
            for m in &mut fm.test_mask[item_start..hi] {
                *m = true;
            }
        }
    }
}

/// Parse the item whose keyword is at `i`; returns the index just past it.
fn parse_one_item(fm: &mut FileModel, i: usize, end: usize, is_test: bool) -> usize {
    if i >= end {
        return end;
    }
    let kw = fm.toks[i].text.clone();
    match kw.as_str() {
        "unsafe" | "async" => parse_one_item(fm, i + 1, end, is_test),
        "const" | "static" => skip_const(fm, i, end),
        "enum" => parse_enum(fm, i, end, is_test),
        "fn" => {
            let (f, next) = parse_fn(fm, i, end, is_test);
            if let Some(f) = f {
                fm.fns.push(f);
            }
            next
        }
        "impl" | "trait" => parse_impl(fm, i, end, is_test, kw == "trait"),
        "mod" => parse_mod(fm, i, end, is_test),
        "macro_rules" => {
            // macro_rules ! name { ... } — skip the whole definition.
            let mut j = i + 1;
            while j < end && !fm.toks[j].is_punct('{') {
                j += 1;
            }
            if j < end {
                matching_close(&fm.toks, j) + 1
            } else {
                end
            }
        }
        _ => i + 1,
    }
}

/// Skip `const NAME: TYPE = EXPR;` (the passes read no constants) and
/// return the index past it. Anything else after the keyword — `const
/// fn` — is left to the scanner.
fn skip_const(fm: &FileModel, i: usize, end: usize) -> usize {
    if !fm.toks.get(i + 2).is_some_and(|t| t.is_punct(':')) {
        return i + 1;
    }
    let mut depth = 0i64;
    for j in i + 3..end {
        let t = &fm.toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return j + 1;
        }
    }
    end
}

fn parse_enum(fm: &mut FileModel, i: usize, end: usize, is_test: bool) -> usize {
    let line = fm.toks[i].line;
    let Some(name_tok) = fm.toks.get(i + 1) else {
        return end;
    };
    let name = name_tok.text.clone();
    let mut j = i + 2;
    // Skip generics.
    if fm.toks.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i64;
        while j < end {
            if fm.toks[j].is_punct('<') {
                depth += 1;
            } else if fm.toks[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    while j < end && !fm.toks[j].is_punct('{') {
        j += 1;
    }
    if j >= end {
        return end;
    }
    let close = matching_close(&fm.toks, j);
    let mut variants = Vec::new();
    let mut k = j + 1;
    while k < close {
        // Skip attributes and doc comments (already lexed away).
        while k < close && fm.toks[k].is_punct('#') {
            let mut b = k + 1;
            if b < close && fm.toks[b].is_punct('[') {
                b = matching_close(&fm.toks, b) + 1;
            }
            k = b;
        }
        if k >= close {
            break;
        }
        if fm.toks[k].kind != TokKind::Ident {
            k += 1;
            continue;
        }
        variants.push(fm.toks[k].text.clone());
        k += 1;
        // Skip the payload: `{ fields }` or `(types)`.
        if k < close && (fm.toks[k].is_punct('{') || fm.toks[k].is_punct('(')) {
            k = matching_close(&fm.toks, k) + 1;
        }
        // Skip discriminant `= expr`.
        if k < close && fm.toks[k].is_punct('=') {
            while k < close && !fm.toks[k].is_punct(',') {
                k += 1;
            }
        }
        // Skip trailing comma.
        if k < close && fm.toks[k].is_punct(',') {
            k += 1;
        }
    }
    fm.enums.push(EnumDef {
        name,
        variants,
        is_test,
        line,
    });
    close + 1
}

fn parse_fn(fm: &FileModel, i: usize, end: usize, is_test: bool) -> (Option<FnDef>, usize) {
    let line = fm.toks[i].line;
    let Some(name_tok) = fm.toks.get(i + 1) else {
        return (None, end);
    };
    if name_tok.kind != TokKind::Ident {
        return (None, i + 1);
    }
    let name = name_tok.text.clone();
    let sig_start = i + 2;
    // Walk to the body `{` or a decl `;`, skipping balanced delimiters
    // (incl. generics with their own `{}`-free angle nesting; `where`
    // clauses pass through since we only look for `{` at depth 0).
    let mut j = sig_start;
    let mut paren = 0i64;
    let mut angle = 0i64;
    while j < end {
        let t = &fm.toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct('<')
            && !fm.toks.get(j.wrapping_sub(1)).is_some_and(|p| {
                // `->` or comparison contexts don't appear in sigs before
                // the body; `<` after an ident or `:` opens generics.
                p.is_punct('<')
            })
        {
            angle += 1;
        } else if t.is_punct('>') && angle > 0 {
            // `->` return arrow: `-` then `>`.
            if fm
                .toks
                .get(j.wrapping_sub(1))
                .is_some_and(|p| p.is_punct('-'))
            {
                // arrow, not a generic close
            } else {
                angle -= 1;
            }
        } else if paren == 0 && (t.is_punct('{') || t.is_punct(';')) {
            break;
        }
        j += 1;
    }
    if j >= end {
        return (None, end);
    }
    let sig = sig_start..j;
    if fm.toks[j].is_punct(';') {
        return (
            Some(FnDef {
                name,
                body: j..j,
                sig,
                is_test,
                line,
            }),
            j + 1,
        );
    }
    let close = matching_close(&fm.toks, j);
    (
        Some(FnDef {
            name,
            body: j + 1..close,
            sig,
            is_test,
            line,
        }),
        close + 1,
    )
}

fn parse_impl(fm: &mut FileModel, i: usize, end: usize, is_test: bool, is_trait: bool) -> usize {
    let line = fm.toks[i].line;
    let mut j = i + 1;
    // Skip `<...>` generics on the impl itself.
    if fm.toks.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i64;
        while j < end {
            if fm.toks[j].is_punct('<') {
                depth += 1;
            } else if fm.toks[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Collect path tokens up to `for`, `where` or `{`.
    let mut first_path = String::new();
    let mut second_path = String::new();
    let mut saw_for = false;
    while j < end {
        let t = &fm.toks[j];
        if t.is_punct('{') {
            break;
        }
        if t.is_ident("for") {
            saw_for = true;
            j += 1;
            continue;
        }
        if t.is_ident("where") {
            while j < end && !fm.toks[j].is_punct('{') {
                j += 1;
            }
            break;
        }
        let target = if saw_for {
            &mut second_path
        } else {
            &mut first_path
        };
        target.push_str(&t.text);
        j += 1;
    }
    if j >= end {
        return end;
    }
    let close = matching_close(&fm.toks, j);
    // Parse fns inside.
    let mut fns = Vec::new();
    let mut k = j + 1;
    while k < close {
        let mut inner_test = is_test;
        while k < close && fm.toks[k].is_punct('#') {
            let mut b = k + 1;
            if b < close && fm.toks[b].is_punct('[') {
                let bc = matching_close(&fm.toks, b);
                let inner: Vec<&str> = fm.toks[b + 1..bc].iter().map(|t| t.text.as_str()).collect();
                if inner.contains(&"test") {
                    inner_test = true;
                }
                b = bc + 1;
            }
            k = b;
        }
        if k >= close {
            break;
        }
        let t = &fm.toks[k];
        if t.is_ident("fn") {
            let (f, next) = parse_fn(fm, k, close, inner_test);
            if let Some(f) = f {
                fns.push(f);
            }
            k = next;
        } else if t.is_ident("const") || t.is_ident("static") {
            k = skip_const(fm, k, close);
        } else {
            k += 1;
        }
    }
    let (trait_name, type_name) = if saw_for {
        (Some(last_segment(&first_path)), second_path)
    } else if is_trait {
        // `trait Name { .. }` — record as an impl-like block with no target.
        (Some(last_segment(&first_path)), String::new())
    } else {
        (None, first_path)
    };
    fm.impls.push(ImplDef {
        trait_name,
        type_name,
        fns,
        is_test,
        line,
    });
    close + 1
}

fn last_segment(path: &str) -> String {
    // `marp_wire::Wire` → `Wire`; strip a trailing generic list.
    let no_generics = path.split('<').next().unwrap_or(path);
    no_generics
        .rsplit("::")
        .next()
        .unwrap_or(no_generics)
        .to_string()
}

fn parse_mod(fm: &mut FileModel, i: usize, end: usize, is_test: bool) -> usize {
    let mut j = i + 1;
    while j < end && !fm.toks[j].is_punct('{') && !fm.toks[j].is_punct(';') {
        j += 1;
    }
    if j >= end || fm.toks[j].is_punct(';') {
        return j + 1;
    }
    let close = matching_close(&fm.toks, j);
    // A `mod tests` body inherits the test marker from its attributes
    // (handled by the caller passing is_test) — recurse.
    parse_items(fm, j + 1, close, is_test);
    close + 1
}

/// Try to parse a macro invocation at `i`: `path::name ! ( .. )` (or
/// `[..]` / `{..}`). Returns the index past it, or None.
fn parse_macro_call(fm: &mut FileModel, i: usize, end: usize, is_test: bool) -> Option<usize> {
    let t = &fm.toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let line = t.line;
    let mut j = i;
    let mut name = fm.toks[j].text.clone();
    j += 1;
    // Walk a `::` path.
    while j + 1 < end && fm.toks[j].is_punct(':') && fm.toks[j + 1].is_punct(':') {
        j += 2;
        if j < end && fm.toks[j].kind == TokKind::Ident {
            name = fm.toks[j].text.clone();
            j += 1;
        } else {
            return None;
        }
    }
    if !(j < end && fm.toks[j].is_punct('!')) {
        return None;
    }
    j += 1;
    if !(j < end
        && (fm.toks[j].is_punct('(') || fm.toks[j].is_punct('[') || fm.toks[j].is_punct('{')))
    {
        return None;
    }
    let close = matching_close(&fm.toks, j);
    fm.macros.push(MacroCall {
        name,
        args: j + 1..close,
        is_test,
        line,
    });
    Some(close + 1)
}

/// Collect every `.rs` file under `dir`, sorted.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::from_sources(
            Path::new("/r"),
            vec![(PathBuf::from("/r/crates/x/src/lib.rs"), src.to_string())],
        )
    }

    #[test]
    fn const_items_are_skipped_whole_and_const_fns_are_fns() {
        let w = ws("const A: [u8; 2] = [1, { 2 }];\nimpl T { const B: u64 = f(A); pub const fn g() {} }\nfn after() {}");
        let f = &w.files[0];
        let fns: Vec<&str> = f.all_fns().map(|x| x.name.as_str()).collect();
        assert_eq!(fns, vec!["after", "g"]);
        assert!(f.macros.is_empty() && f.enums.is_empty());
    }

    #[test]
    fn enums_capture_variant_shapes() {
        let w = ws("pub enum Msg { A, B(u64), #[doc = \"c\"] C { x: u64, y: bool }, D(Vec<u8>, u32), E = 7 }");
        let e = w.find_enum("Msg").unwrap();
        // Payloads and discriminants are skipped, not mistaken for variants.
        assert_eq!(e.variants, ["A", "B", "C", "D", "E"]);
    }

    #[test]
    fn impls_collect_fns_and_trait_names() {
        let w = ws("impl Wire for NodeMsg { fn encode(&self) {} fn decode() -> u8 { 0 } }\nimpl<T: Wire> Wire for Option<T> { fn encode(&self) {} }");
        let f = &w.files[0];
        assert_eq!(f.impls.len(), 2);
        assert_eq!(f.impls[0].trait_name.as_deref(), Some("Wire"));
        assert_eq!(f.impls[0].type_name, "NodeMsg");
        assert_eq!(f.impls[0].fns.len(), 2);
        assert_eq!(f.impls[1].type_name, "Option<T>");
    }

    #[test]
    fn cfg_test_mods_mark_items() {
        let w = ws("fn live() {}\n#[cfg(test)]\nmod tests { fn helper() {} #[test] fn t() {} }");
        let f = &w.files[0];
        let tests: Vec<(&str, bool)> = f.fns.iter().map(|x| (x.name.as_str(), x.is_test)).collect();
        assert_eq!(tests, vec![("live", false), ("helper", true), ("t", true)]);
    }

    #[test]
    fn macro_rules_bodies_are_skipped_but_calls_recorded() {
        let w = ws("macro_rules! gen { ($t:ty) => { impl Wire for $t {} } }\nmarp_wire::wire_struct!(Point { x, y });\ngen!(u16);");
        let f = &w.files[0];
        assert!(f.impls.is_empty(), "macro_rules body leaked impls");
        let names: Vec<&str> = f.macros.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["wire_struct", "gen"]);
    }

    #[test]
    fn test_mask_covers_cfg_test_mods_including_uses() {
        let w =
            ws("fn live() { f(); }\n#[cfg(test)]\nmod tests { use std::time::Instant; fn t() {} }");
        let f = &w.files[0];
        let inst = f.toks.iter().position(|t| t.is_ident("Instant")).unwrap();
        assert!(f.test_mask[inst], "use inside cfg(test) mod not masked");
        let live = f.toks.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(!f.test_mask[live], "live code wrongly masked");
    }

    #[test]
    fn fn_bodies_are_ranged() {
        let w = ws("fn f(a: u64) -> u64 { a + 1 }\nfn sig_only();");
        let f = &w.files[0];
        assert_eq!(f.fns.len(), 2);
        let body: String = f.toks[f.fns[0].body.clone()]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(body, "a+1");
        assert!(f.fns[1].body.is_empty());
    }
}
