//! # chronus-lint — the workspace's domain lint pass
//!
//! Chronus's invariants — byte-identical schedules, lock ordering in
//! the daemon, allocation-free hot kernels, audited `unsafe` — are
//! enforced dynamically by proptests, loom and the counting
//! allocator. This crate is the static side of that story: a
//! self-contained analyzer (hand-rolled lexer, no external deps, same
//! offline philosophy as `shims/serde_json`) that walks every
//! workspace crate and checks these rule families:
//!
//! | rule | what it denies |
//! |------|----------------|
//! | `lock-order`, `lock-requires` | guard acquired against the declared partial order (the PR-6 WAL race shape) |
//! | `hot-alloc` | allocating calls in manifest-listed hot functions |
//! | `det-wallclock`, `det-hash` | wall-clock reads and owned hash containers in schedule-producing modules |
//! | `safety-comment`, `forbid-unsafe`, `cast-paren` | unaudited `unsafe`, missing crate-root forbids, bare narrowing casts in bit-math |
//! | `no-stdio` | `println!`/`eprintln!`/`dbg!` in library crates |
//! | `dead-pub` | a library's `pub` item that no non-test code names (workspace-wide) |
//!
//! Configuration lives in the committed `lint.toml` (rule scopes, the
//! hot-function manifest, the baseline); inline escapes are
//! `// chronus-lint: allow(<rule>) — reason` comments covering the
//! next line. The binary prints human text or `--format json` and
//! exits nonzero on any non-baselined finding.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod suppress;
pub mod workspace;

use config::LintConfig;
use diag::Finding;
use std::path::Path;

/// The outcome of one lint run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Non-baselined findings, sorted by file/line/rule.
    pub live: Vec<Finding>,
    /// Count of findings matched (and silenced) by the baseline.
    pub baselined: usize,
    /// Number of files scanned.
    pub files: usize,
}

/// Lints every configured file under `root`. IO or config errors are
/// `Err`; findings are data, not errors.
pub fn run(root: &Path, cfg: &LintConfig) -> Result<Report, String> {
    let files = workspace::collect(root, cfg)?;
    let mut findings = Vec::new();
    let mut dead_pub = cfg
        .dead_pub_readers
        .as_ref()
        .map(|readers| (readers, rules::dead_pub::Index::default()));
    for f in &files {
        let src = read(&f.path)?;
        let lexed = lexer::lex(&src);
        let model = model::scan(&lexed, &f.module);
        let sup = suppress::Suppressions::collect(&lexed.comments);
        let ctx = rules::FileCtx {
            cfg,
            rel: &f.rel,
            module: &f.module,
            is_test_file: f.is_test_file,
            is_crate_root: f.is_crate_root,
            lexed: &lexed,
            model: &model,
            sup: &sup,
        };
        rules::run_all(&ctx, &mut findings);
        if let Some((_, index)) = dead_pub.as_mut() {
            index.add_file(&ctx, &mut findings);
        }
    }
    if let Some((readers, mut index)) = dead_pub {
        for path in workspace::rust_files(root, readers)? {
            let lexed = lexer::lex(&read(&path)?);
            index.add_reader(&lexed, &model::scan(&lexed, ""));
        }
        index.finish(&mut findings);
    }
    let (mut live, baselined) = diag::apply_baseline(findings, &cfg.baseline);
    diag::sort(&mut live);
    Ok(Report {
        live,
        baselined: baselined.len(),
        files: files.len(),
    })
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Walks upward from `start` to find the directory holding
/// `lint.toml` — the workspace root from the binary's point of view.
pub fn find_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
