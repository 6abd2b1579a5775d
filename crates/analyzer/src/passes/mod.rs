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

/// Does the range contain the given [`crate::lex::seq_at`] pattern?
pub fn seq_in(toks: &[Tok], range: Range<usize>, pat: &[&str]) -> bool {
    range.into_iter().any(|i| crate::lex::seq_at(toks, i, pat))
}

/// The fn (free or impl method) whose body contains token index `i`.
pub fn enclosing_fn(file: &FileModel, i: usize) -> Option<&crate::model::FnDef> {
    file.all_fns().find(|f| f.body.contains(&i))
}
