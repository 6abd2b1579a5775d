//! The protocol-aware passes. Each submodule exports a `check` function
//! that appends [`Finding`]s, plus whatever inventory accessors its
//! tests need.

pub mod handlers;
pub mod leases;
pub mod lints;
pub mod spans;
pub mod timers;
pub mod wire;

use crate::lex::Tok;
use crate::model::FileModel;
use std::ops::Range;

/// Does the range contain the given ident?
pub fn has_ident_in(toks: &[Tok], range: Range<usize>, name: &str) -> bool {
    toks[range].iter().any(|t| t.is_ident(name))
}

/// Does the range contain the given [`crate::lex::seq_at`] pattern?
pub fn seq_in(toks: &[Tok], range: Range<usize>, pat: &[&str]) -> bool {
    range.into_iter().any(|i| crate::lex::seq_at(toks, i, pat))
}

/// Positions of `ident (` call sequences for the given name.
pub fn call_sites(toks: &[Tok], range: Range<usize>, name: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for i in range.clone() {
        if toks[i].is_ident(name)
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && !(i > 0 && toks[i - 1].is_ident("fn"))
        {
            out.push(i);
        }
    }
    out
}

/// The fn (free or impl method) whose body contains token index `i`.
pub fn enclosing_fn(file: &FileModel, i: usize) -> Option<&crate::model::FnDef> {
    file.all_fns().find(|f| f.body.contains(&i))
}
