//! The rule families. Each per-file rule is a free function over a
//! [`FileCtx`] — one lexed, scanned, suppression-resolved source file
//! plus the workspace config — appending [`Finding`]s to a shared
//! vector. [`dead_pub`] is the one cross-file rule: it folds every
//! file's context into an index and reports once the workspace is
//! read. Rules never read the filesystem; everything they need is in
//! the context, which keeps them unit-testable on string fixtures.

pub mod casts;
pub mod dead_pub;
pub mod determinism;
pub mod hot_alloc;
pub mod lock_order;
pub mod stdio;
pub mod unsafe_audit;

use crate::config::LintConfig;
use crate::diag::Finding;
use crate::lexer::Lexed;
use crate::model::FileModel;
use crate::suppress::Suppressions;

/// Everything a rule may look at for one file.
pub struct FileCtx<'a> {
    /// The workspace configuration.
    pub cfg: &'a LintConfig,
    /// Workspace-relative path (diagnostic position).
    pub rel: &'a str,
    /// The file's module path.
    pub module: &'a str,
    /// Under `tests/`, `benches/` or `examples/`.
    pub is_test_file: bool,
    /// `src/lib.rs`, `src/main.rs` or `src/bin/*.rs`.
    pub is_crate_root: bool,
    /// Token stream + comments.
    pub lexed: &'a Lexed,
    /// Function spans and test ranges.
    pub model: &'a FileModel,
    /// Inline `chronus-lint: allow(...)` suppressions.
    pub sup: &'a Suppressions,
}

impl FileCtx<'_> {
    /// `true` when a finding of `rule` at `line` is suppressed inline.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.sup.is_allowed(rule, line)
    }

    /// Pushes a finding unless an inline allow covers it.
    pub fn emit(
        &self,
        out: &mut Vec<Finding>,
        rule: &'static str,
        severity: crate::diag::Severity,
        line: u32,
        message: String,
    ) {
        if self.allowed(rule, line) {
            return;
        }
        out.push(Finding {
            rule,
            severity,
            file: self.rel.to_string(),
            line,
            message,
        });
    }
}

/// Runs every rule family over one file.
pub fn run_all(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    lock_order::check(ctx, out);
    hot_alloc::check(ctx, out);
    determinism::check(ctx, out);
    unsafe_audit::check(ctx, out);
    casts::check(ctx, out);
    stdio::check(ctx, out);
}
