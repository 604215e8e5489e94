//! `dead-pub`: a `pub` item of a library crate that no non-test code
//! names.
//!
//! The only rule that needs the whole workspace at once. Every library
//! file (`src/` trees, bins and `main.rs` excluded) contributes its
//! `pub fn/struct/enum/trait/const/static/type/mod` definitions; every
//! non-test file — library, bin, and the read-only `[dead_pub]
//! readers` roots — contributes the identifiers it names outside
//! `#[cfg(test)]` code. A definition no reader names is flagged.
//!
//! Matching is by bare name, so the rule can miss a dead item that
//! shares its name with a live one, but never flags an item some
//! reader names. Neither the definition's own name token nor a `pub
//! use` re-export counts as a reader: an item reachable only through a
//! re-export that nobody imports is still dead. An item kept for a test
//! (a helper, a reference oracle) carries
//! `// chronus-lint: allow(dead-pub) — read by <file>`; an allow that
//! names no reader is itself a finding.

use super::FileCtx;
use crate::diag::{Finding, Severity};
use crate::lexer::{Lexed, TokKind, Token};
use crate::model::FileModel;
use std::collections::BTreeSet;

/// Rule id.
const RULE: &str = "dead-pub";

/// Item keywords whose `pub` form is a definition.
const ITEM_KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod",
];

/// One `pub` definition awaiting the workspace-wide reader set.
struct Def {
    kind: &'static str,
    name: String,
    file: String,
    line: u32,
}

/// The workspace-wide state: definitions seen so far and every name
/// some reader mentions.
#[derive(Default)]
pub struct Index {
    defs: Vec<Def>,
    read: BTreeSet<String>,
}

impl Index {
    /// Adds one workspace file: its definitions when it is library
    /// code, its names when it is not test code.
    pub fn add_file(&mut self, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        if ctx.is_test_file {
            return;
        }
        check_allows(ctx, out);
        let toks = &ctx.lexed.tokens;
        let defs = definitions(toks, ctx.model);
        if is_library(ctx.rel) {
            for &(kind, pub_at, name_at) in &defs {
                let (Some(vis), Some(name)) = (toks.get(pub_at), toks.get(name_at)) else {
                    continue;
                };
                if name.text != "_" && !ctx.allowed(RULE, vis.line) {
                    self.defs.push(Def {
                        kind,
                        name: name.text.clone(),
                        file: ctx.rel.to_string(),
                        line: vis.line,
                    });
                }
            }
        }
        self.add_names(ctx.lexed, ctx.model, &defs);
    }

    /// Adds one file under a `[dead_pub] readers` root: names only.
    pub fn add_reader(&mut self, lexed: &Lexed, model: &FileModel) {
        let defs = definitions(&lexed.tokens, model);
        self.add_names(lexed, model, &defs);
    }

    /// Every identifier outside test code, `pub use` items and the
    /// names of `defs`.
    fn add_names(&mut self, lexed: &Lexed, model: &FileModel, defs: &[(&str, usize, usize)]) {
        let def_names: BTreeSet<usize> = defs.iter().map(|&(_, _, name_at)| name_at).collect();
        let toks = &lexed.tokens;
        let mut i = 0;
        while let Some(t) = toks.get(i) {
            if t.is_ident("pub") && is_reexport(toks, i) {
                while toks.get(i).is_some_and(|t| !t.is_punct(";")) {
                    i += 1;
                }
                continue;
            }
            if t.kind == TokKind::Ident && !def_names.contains(&i) && !model.in_test(i) {
                self.read.insert(t.text.clone());
            }
            i += 1;
        }
    }

    /// Flags every definition no reader named.
    pub fn finish(self, out: &mut Vec<Finding>) {
        for d in self.defs {
            if self.read.contains(&d.name) {
                continue;
            }
            out.push(Finding {
                rule: RULE,
                severity: Severity::Error,
                file: d.file,
                line: d.line,
                message: format!(
                    "`pub {} {}` is named by no non-test code; delete it, or add \
                     `// chronus-lint: allow(dead-pub) — read by <file>` when a test \
                     needs it",
                    d.kind, d.name
                ),
            });
        }
    }
}

/// `src/` code of a library: not a bin, not `main.rs`.
fn is_library(rel: &str) -> bool {
    rel.contains("src/") && !rel.ends_with("src/main.rs") && !rel.contains("/src/bin/")
}

/// Every `pub` item definition outside test code, as `(keyword,
/// index of its `pub`, index of its name)`.
fn definitions(toks: &[Token], model: &FileModel) -> Vec<(&'static str, usize, usize)> {
    (0..toks.len())
        .filter(|&i| toks.get(i).is_some_and(|t| t.is_ident("pub")) && !model.in_test(i))
        .filter_map(|i| definition(toks, i).map(|(kind, name_at)| (kind, i, name_at)))
        .collect()
}

/// For a `pub` at `i` that starts an item definition, the item keyword
/// and the token index of its name. Restricted visibility
/// (`pub(crate)`), fields and `pub use` are not definitions.
fn definition(toks: &[Token], i: usize) -> Option<(&'static str, usize)> {
    let mut j = i + 1;
    // Qualifiers: `pub const fn`, `pub unsafe fn`, `pub async fn`,
    // `pub extern "C" fn`, `pub unsafe trait`.
    while toks.get(j).is_some_and(|t| {
        is_qualifier(t)
            || t.kind == TokKind::Str
            || (t.is_ident("const")
                && toks
                    .get(j + 1)
                    .is_some_and(|n| n.is_ident("fn") || is_qualifier(n)))
    }) {
        j += 1;
    }
    let kw = toks.get(j)?;
    let kind = ITEM_KINDS.iter().find(|k| kw.is_ident(k))?;
    let mut name = j + 1;
    if kw.is_ident("static") && toks.get(name).is_some_and(|t| t.is_ident("mut")) {
        name += 1;
    }
    toks.get(name)
        .is_some_and(|t| t.kind == TokKind::Ident)
        .then_some((*kind, name))
}

/// `unsafe`, `async` or `extern` before an item keyword.
fn is_qualifier(t: &Token) -> bool {
    t.is_ident("unsafe") || t.is_ident("async") || t.is_ident("extern")
}

/// `pub use …` or `pub(…) use …` at `i`.
fn is_reexport(toks: &[Token], i: usize) -> bool {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_punct("(")) {
        while toks.get(j).is_some_and(|t| !t.is_punct(")")) {
            j += 1;
        }
        j += 1;
    }
    toks.get(j).is_some_and(|t| t.is_ident("use"))
}

/// An inline `allow(dead-pub)` must say which test keeps the item.
fn check_allows(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for c in &ctx.lexed.comments {
        if c.text.contains("chronus-lint:") && c.text.contains(RULE) && !c.text.contains("read by ")
        {
            out.push(Finding {
                rule: RULE,
                severity: Severity::Error,
                file: ctx.rel.to_string(),
                line: c.line,
                message: "an `allow(dead-pub)` must name the file that reads the item \
                          (`— read by <file>`)"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn def(src: &str) -> Option<(&'static str, String)> {
        let toks = lex(src).tokens;
        definition(&toks, 0).map(|(k, at)| (k, toks[at].text.clone()))
    }

    #[test]
    fn recognises_item_definitions() {
        assert_eq!(def("pub fn a() {}"), Some(("fn", "a".into())));
        assert_eq!(def("pub const fn b() {}"), Some(("fn", "b".into())));
        assert_eq!(def("pub unsafe fn c() {}"), Some(("fn", "c".into())));
        assert_eq!(def("pub extern \"C\" fn d() {}"), Some(("fn", "d".into())));
        assert_eq!(def("pub const E: u8 = 1;"), Some(("const", "E".into())));
        assert_eq!(
            def("pub static mut F: u8 = 1;"),
            Some(("static", "F".into()))
        );
        assert_eq!(def("pub struct G;"), Some(("struct", "G".into())));
        assert_eq!(def("pub mod h;"), Some(("mod", "h".into())));
    }

    #[test]
    fn fields_restricted_and_reexports_are_not_definitions() {
        assert_eq!(def("pub x: u32,"), None);
        assert_eq!(def("pub(crate) fn a() {}"), None);
        assert_eq!(def("pub use a::b;"), None);
        let toks = lex("pub(crate) use a::b;").tokens;
        assert!(is_reexport(&toks, 0));
    }
}
