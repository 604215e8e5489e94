//! `lint.toml`: rule configuration, the hot-function manifest and the
//! findings baseline, parsed by a minimal hand-rolled TOML-subset
//! reader (tables, arrays of tables, string/bool/integer values and
//! single- or multi-line string arrays — everything the committed
//! config uses, nothing more, no external deps).

use std::collections::BTreeMap;
use std::path::Path;

/// One parsed `key = value` right-hand side.
#[derive(Clone, Debug, PartialEq)]
pub enum TomlValue {
    /// `"…"`.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// `[ "…", … ]` (strings only).
    StrArray(Vec<String>),
}

/// One table: ordered key → value pairs.
pub type TomlTable = BTreeMap<String, TomlValue>;

/// The parsed file: header path → the tables declared under it.
/// `[a.b]` appears once under `"a.b"`; every `[[a.b]]` appends one
/// more table under the same key. Top-level keys live under `""`.
#[derive(Clone, Debug, Default)]
pub struct TomlDoc {
    tables: BTreeMap<String, Vec<TomlTable>>,
}

impl TomlDoc {
    /// All tables declared under `header` (empty slice when absent).
    pub fn tables(&self, header: &str) -> &[TomlTable] {
        self.tables.get(header).map_or(&[], Vec::as_slice)
    }

    /// The first table under `header`, if any.
    pub fn table(&self, header: &str) -> Option<&TomlTable> {
        self.tables(header).first()
    }
}

/// Parses the TOML subset. Unknown syntax is an error, not a guess —
/// a config typo must fail the run loudly.
pub fn parse_toml(src: &str) -> Result<TomlDoc, String> {
    let mut doc = TomlDoc::default();
    let mut current = String::new();
    doc.tables
        .entry(String::new())
        .or_default()
        .push(TomlTable::new());

    let mut lines = src.lines().enumerate().peekable();
    while let Some((ln, raw)) = lines.next() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let name = rest
                .strip_suffix("]]")
                .ok_or_else(|| format!("line {}: malformed [[table]]", ln + 1))?
                .trim()
                .to_string();
            doc.tables
                .entry(name.clone())
                .or_default()
                .push(TomlTable::new());
            current = name;
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {}: malformed [table]", ln + 1))?
                .trim()
                .to_string();
            let slot = doc.tables.entry(name.clone()).or_default();
            if slot.is_empty() {
                slot.push(TomlTable::new());
            }
            current = name;
            continue;
        }
        let (key, mut value) = line
            .split_once('=')
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .ok_or_else(|| format!("line {}: expected key = value", ln + 1))?;
        // Multi-line arrays: accumulate until the closing bracket.
        if value.starts_with('[') && !balanced_array(&value) {
            for (_, cont) in lines.by_ref() {
                value.push(' ');
                value.push_str(strip_comment(cont).trim());
                if balanced_array(&value) {
                    break;
                }
            }
        }
        let parsed = parse_value(&value).map_err(|e| format!("line {}: {e}", ln + 1))?;
        let table = doc
            .tables
            .get_mut(&current)
            .and_then(|v| v.last_mut())
            .ok_or_else(|| format!("line {}: no open table", ln + 1))?;
        table.insert(key, parsed);
    }
    Ok(doc)
}

/// Drops a trailing `# comment`, respecting string quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return line.get(..i).unwrap_or(line),
            _ => {}
        }
    }
    line
}

/// `true` when every `[` in `s` outside strings has a matching `]`.
fn balanced_array(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_value(v: &str) -> Result<TomlValue, String> {
    if v == "true" {
        return Ok(TomlValue::Bool(true));
    }
    if v == "false" {
        return Ok(TomlValue::Bool(false));
    }
    if let Some(s) = v.strip_prefix('"') {
        let s = s
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string: {v}"))?;
        return Ok(TomlValue::Str(s.to_string()));
    }
    if let Some(inner) = v.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated array: {v}"))?;
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                TomlValue::Str(s) => items.push(s),
                other => return Err(format!("only string arrays are supported, got {other:?}")),
            }
        }
        return Ok(TomlValue::StrArray(items));
    }
    v.parse::<i64>()
        .map(TomlValue::Int)
        .map_err(|_| format!("unsupported value: {v}"))
}

/// Splits `a, b, c` on commas outside string quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

// ---------------------------------------------------------------------
// Typed configuration.
// ---------------------------------------------------------------------

/// A declared lock partial order over one module scope.
#[derive(Clone, Debug)]
pub struct LockOrder {
    /// Human name (shown in diagnostics).
    pub name: String,
    /// Module-path prefixes the order applies to.
    pub modules: Vec<String>,
    /// Lock field names, earliest-acquired first.
    pub classes: Vec<String>,
}

/// A "class X may only be acquired while holding Y" constraint.
#[derive(Clone, Debug)]
pub struct LockRequires {
    /// Human name (shown in diagnostics).
    pub name: String,
    /// Module-path prefixes the constraint applies to.
    pub modules: Vec<String>,
    /// The constrained lock class.
    pub class: String,
    /// Classes of which at least one must be held.
    pub requires: Vec<String>,
}

/// One baselined (grandfathered) finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule id.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// The whole `lint.toml`, typed.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// Directories scanned, relative to the workspace root.
    pub roots: Vec<String>,
    /// Path prefixes excluded from the scan.
    pub exclude: Vec<String>,
    /// Declared lock orders.
    pub lock_orders: Vec<LockOrder>,
    /// Declared lock requirements.
    pub lock_requires: Vec<LockRequires>,
    /// Fully-qualified hot functions (trailing `::*` wildcards ok).
    pub hot_functions: Vec<String>,
    /// Denied call patterns inside hot functions.
    pub hot_deny: Vec<String>,
    /// Module prefixes under the determinism rules.
    pub det_modules: Vec<String>,
    /// Wall-clock call patterns denied there.
    pub det_wallclock: Vec<String>,
    /// Functions whose bodies may read the wall clock.
    pub det_timing_wrappers: Vec<String>,
    /// Require `#![forbid(unsafe_code)]` in crate roots.
    pub require_forbid: bool,
    /// Crate-root paths exempt from the forbid requirement.
    pub forbid_exempt: Vec<String>,
    /// Module prefixes where stdout/stderr macros are denied.
    pub stdio_modules: Vec<String>,
    /// Module prefixes under the cast-parenthesization rule.
    pub cast_modules: Vec<String>,
    /// Integer type names the cast rule watches.
    pub cast_types: Vec<String>,
    /// `[dead_pub] readers`: extra roots scanned only for the names
    /// they read. `None` (no `[dead_pub]` table) turns the rule off.
    pub dead_pub_readers: Option<Vec<String>>,
    /// Grandfathered findings.
    pub baseline: Vec<BaselineEntry>,
}

fn strings(t: &TomlTable, key: &str) -> Vec<String> {
    match t.get(key) {
        Some(TomlValue::StrArray(v)) => v.clone(),
        Some(TomlValue::Str(s)) => vec![s.clone()],
        _ => Vec::new(),
    }
}

fn string(t: &TomlTable, key: &str) -> Option<String> {
    match t.get(key) {
        Some(TomlValue::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

impl LintConfig {
    /// Loads and types `lint.toml` from `path`.
    pub fn load(path: &Path) -> Result<LintConfig, String> {
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_toml(&src).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Types an already-parsed TOML source.
    pub fn from_toml(src: &str) -> Result<LintConfig, String> {
        let doc = parse_toml(src)?;
        let mut cfg = LintConfig::default();

        if let Some(ws) = doc.table("workspace") {
            cfg.roots = strings(ws, "roots");
            cfg.exclude = strings(ws, "exclude");
        }
        if cfg.roots.is_empty() {
            cfg.roots = vec!["crates".to_string(), "src".to_string()];
        }

        for t in doc.tables("lock.order") {
            cfg.lock_orders.push(LockOrder {
                name: string(t, "name").unwrap_or_else(|| "unnamed".to_string()),
                modules: strings(t, "modules"),
                classes: strings(t, "classes"),
            });
        }
        for t in doc.tables("lock.requires") {
            cfg.lock_requires.push(LockRequires {
                name: string(t, "name").unwrap_or_else(|| "unnamed".to_string()),
                modules: strings(t, "modules"),
                class: string(t, "class").ok_or("lock.requires needs `class`")?,
                requires: strings(t, "requires"),
            });
        }
        if let Some(hot) = doc.table("hot") {
            cfg.hot_functions = strings(hot, "functions");
            cfg.hot_deny = strings(hot, "deny");
        }
        if cfg.hot_deny.is_empty() {
            cfg.hot_deny = [
                "Vec::new",
                "vec!",
                "collect",
                "to_string",
                "to_vec",
                "format!",
                "Box::new",
                "clone",
                "to_owned",
                "String::new",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
        }
        if let Some(det) = doc.table("determinism") {
            cfg.det_modules = strings(det, "modules");
            cfg.det_wallclock = strings(det, "wallclock");
            cfg.det_timing_wrappers = strings(det, "timing_wrappers");
        }
        if cfg.det_wallclock.is_empty() {
            cfg.det_wallclock = vec!["Instant::now".to_string(), "SystemTime".to_string()];
        }
        if let Some(ua) = doc.table("unsafe_audit") {
            cfg.require_forbid = matches!(ua.get("require_forbid"), Some(TomlValue::Bool(true)));
            cfg.forbid_exempt = strings(ua, "forbid_exempt");
        }
        if let Some(stdio) = doc.table("stdio") {
            cfg.stdio_modules = strings(stdio, "modules");
        }
        if let Some(casts) = doc.table("casts") {
            cfg.cast_modules = strings(casts, "modules");
            cfg.cast_types = strings(casts, "types");
        }
        if cfg.cast_types.is_empty() {
            cfg.cast_types = [
                "u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize", "TimeStep",
                "Capacity", "Delay", "Nanos",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
        }
        if let Some(dp) = doc.table("dead_pub") {
            cfg.dead_pub_readers = Some(strings(dp, "readers"));
        }
        for t in doc.tables("baseline") {
            let rule = string(t, "rule").ok_or("baseline needs `rule`")?;
            let file = string(t, "file").ok_or("baseline needs `file`")?;
            let line = match t.get("line") {
                Some(TomlValue::Int(n)) => u32::try_from(*n).unwrap_or(0),
                _ => 0,
            };
            cfg.baseline.push(BaselineEntry { rule, file, line });
        }
        Ok(cfg)
    }

    /// `true` when `module` falls under one of `prefixes` (exact match
    /// or a `prefix::…` descendant).
    pub fn module_in(module: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| {
            module == p
                || (module.len() > p.len()
                    && module.starts_with(p.as_str())
                    && module.get(p.len()..p.len() + 2) == Some("::"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_arrays_and_multiline() {
        let doc = parse_toml(
            r#"
top = "x"  # trailing comment
[workspace]
roots = ["crates", "src"]
[hot]
functions = [
  "a::b",   # with a comment
  "c::d::*",
]
[[lock.order]]
name = "daemon"
classes = ["armed", "journal"]
[[lock.order]]
name = "engine"
classes = ["entries"]
"#,
        )
        .expect("parses");
        assert_eq!(
            doc.table("").and_then(|t| t.get("top")),
            Some(&TomlValue::Str("x".to_string()))
        );
        assert_eq!(doc.tables("lock.order").len(), 2);
        let hot = doc.table("hot").expect("hot");
        assert_eq!(
            hot.get("functions"),
            Some(&TomlValue::StrArray(vec![
                "a::b".to_string(),
                "c::d::*".to_string()
            ]))
        );
    }

    #[test]
    fn typed_config_round_trip() {
        let cfg = LintConfig::from_toml(
            r#"
[workspace]
roots = ["crates"]
exclude = ["crates/lint/tests"]
[hot]
functions = ["core::scan::FlowScan::begin_step"]
[determinism]
modules = ["core", "net::routing"]
[unsafe_audit]
require_forbid = true
[[lock.order]]
name = "daemon-wal"
modules = ["daemon::service"]
classes = ["admission", "statuses", "armed", "journal"]
[[lock.requires]]
name = "journal-under-armed"
modules = ["daemon::service"]
class = "journal"
requires = ["armed"]
[[baseline]]
rule = "det-wallclock"
file = "crates/x/src/lib.rs"
line = 10
"#,
        )
        .expect("valid config");
        assert!(cfg.require_forbid);
        assert_eq!(cfg.lock_orders.len(), 1);
        assert_eq!(cfg.lock_requires[0].class, "journal");
        assert_eq!(cfg.baseline.len(), 1);
        assert!(LintConfig::module_in("core::scan", &cfg.det_modules));
        assert!(LintConfig::module_in("net::routing", &cfg.det_modules));
        assert!(!LintConfig::module_in("net::network", &cfg.det_modules));
        assert!(!LintConfig::module_in("corex", &cfg.det_modules));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_toml("not a kv line").is_err());
        assert!(parse_toml("[unclosed").is_err());
        assert!(LintConfig::from_toml("[casts]\nmodules = [1]").is_err());
    }
}
