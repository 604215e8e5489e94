//! Workspace walking: finds every `.rs` file under the configured
//! roots and maps its path to a module path (`crates/core/src/scan.rs`
//! → `core::scan`), marking test files and crate roots on the way.

use crate::config::LintConfig;
use std::path::{Path, PathBuf};

/// One source file to lint.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Absolute (or root-joined) path for reading.
    pub path: PathBuf,
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Module path (`core::scan`, `daemon::bin::chronusd`, …).
    pub module: String,
    /// Lives under `tests/`, `benches/` or `examples/`.
    pub is_test_file: bool,
    /// A crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`).
    pub is_crate_root: bool,
}

/// Collects every lintable source file under `root`, honoring the
/// config's roots and exclude prefixes. Deterministic order.
pub fn collect(root: &Path, cfg: &LintConfig) -> Result<Vec<SourceFile>, String> {
    let mut rels: Vec<String> = Vec::new();
    for r in &cfg.roots {
        let dir = root.join(r);
        if dir.is_dir() {
            walk(&dir, root, &cfg.exclude, &mut rels)?;
        }
    }
    rels.sort();
    let mut out = Vec::with_capacity(rels.len());
    for rel in rels {
        if let Some((module, is_test_file, is_crate_root)) = classify(&rel) {
            out.push(SourceFile {
                path: root.join(&rel),
                rel,
                module,
                is_test_file,
                is_crate_root,
            });
        }
    }
    Ok(out)
}

/// Every `.rs` file under the `dirs` (relative to `root`; a missing
/// one is an error), with no exclusions. Deterministic order.
pub fn rust_files(root: &Path, dirs: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut rels = Vec::new();
    for d in dirs {
        walk(&root.join(d), root, &[], &mut rels)?;
    }
    rels.sort();
    Ok(rels.into_iter().map(|rel| root.join(rel)).collect())
}

fn walk(dir: &Path, root: &Path, exclude: &[String], out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => continue,
        };
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if exclude
            .iter()
            .any(|ex| rel == *ex || rel.starts_with(&format!("{ex}/")))
        {
            continue;
        }
        if path.is_dir() {
            walk(&path, root, exclude, out)?;
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Maps a workspace-relative path to `(module, is_test, is_crate_root)`.
/// Returns `None` for files with no module mapping (none currently).
fn classify(rel: &str) -> Option<(String, bool, bool)> {
    let segs: Vec<&str> = rel.split('/').collect();
    // crates/<crate>/...
    if segs.first() == Some(&"crates") {
        let krate = (*segs.get(1)?).to_string();
        let rest = segs.get(2..)?;
        return classify_in_crate(&krate, rest);
    }
    // shims/<shim>/... — normally excluded; map like a crate.
    if segs.first() == Some(&"shims") {
        let krate = (*segs.get(1)?).to_string();
        let rest = segs.get(2..)?;
        return classify_in_crate(&krate, rest);
    }
    // Root facade package: src/, tests/, examples/, benches/.
    classify_in_crate("chronus", &segs)
}

fn classify_in_crate(krate: &str, rest: &[&str]) -> Option<(String, bool, bool)> {
    let stem = |s: &str| s.trim_end_matches(".rs").to_string();
    match rest.first().copied() {
        Some("src") => {
            let inner = rest.get(1..)?;
            match inner {
                ["lib.rs"] => Some((krate.to_string(), false, true)),
                ["main.rs"] => Some((format!("{krate}::main"), false, true)),
                ["bin", b] => Some((format!("{krate}::bin::{}", stem(b)), false, true)),
                _ => {
                    // src/a/b.rs → krate::a::b; mod.rs drops its segment.
                    let mut module = krate.to_string();
                    for (i, seg) in inner.iter().enumerate() {
                        let last = i + 1 == inner.len();
                        if last && *seg == "mod.rs" {
                            break;
                        }
                        module.push_str("::");
                        module.push_str(&if last { stem(seg) } else { (*seg).to_string() });
                    }
                    Some((module, false, false))
                }
            }
        }
        Some(kind @ ("tests" | "benches" | "examples")) => {
            let mut module = format!("{krate}::{kind}");
            for (i, seg) in rest.get(1..)?.iter().enumerate() {
                let last = i + 2 == rest.len();
                if last && *seg == "mod.rs" {
                    break;
                }
                module.push_str("::");
                module.push_str(&if last { stem(seg) } else { (*seg).to_string() });
            }
            Some((module, true, false))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rel: &str) -> (String, bool, bool) {
        classify(rel).expect("classified")
    }

    #[test]
    fn crate_module_mapping() {
        assert_eq!(
            m("crates/core/src/lib.rs"),
            ("core".to_string(), false, true)
        );
        assert_eq!(
            m("crates/core/src/scan.rs"),
            ("core::scan".to_string(), false, false)
        );
        assert_eq!(
            m("crates/daemon/src/bin/chronusd.rs"),
            ("daemon::bin::chronusd".to_string(), false, true)
        );
        assert_eq!(
            m("crates/timenet/src/sub/mod.rs"),
            ("timenet::sub".to_string(), false, false)
        );
        assert_eq!(
            m("crates/bench/tests/alloc_counter.rs"),
            ("bench::tests::alloc_counter".to_string(), true, false)
        );
    }

    #[test]
    fn root_facade_mapping() {
        assert_eq!(m("src/lib.rs"), ("chronus".to_string(), false, true));
        assert_eq!(
            m("tests/paper_example.rs"),
            ("chronus::tests::paper_example".to_string(), true, false)
        );
        assert_eq!(
            m("examples/quickstart.rs"),
            ("chronus::examples::quickstart".to_string(), true, false)
        );
    }
}
