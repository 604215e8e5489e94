//! UI-style fixture tests.
//!
//! Each directory under `tests/fixtures/` is a miniature workspace:
//! its own `lint.toml`, a `crates/` tree of deliberately bad (or
//! deliberately fixed) code, and an `expected.txt` golden holding the
//! rendered live findings, one per line, in report order. `*_bad`
//! cases seed a real defect shape — the PR-6 WAL lock race, a hot
//! kernel that allocates, a wall-clock schedule — and must reproduce
//! the exact diagnostics; `*_good` cases hold the fixed twin and must
//! lint clean, pinning the analyzer's false-positive behaviour (the
//! if-let scrutinee temporary, the closure-pipe cast, the inline
//! allow).
//!
//! To refresh a golden after an intentional diagnostic change:
//! `cargo run -p chronus-lint -- --root crates/lint/tests/fixtures/<case>`
//! and paste the finding lines (not the summary) into `expected.txt`.

use chronus_lint::config::LintConfig;
use chronus_lint::Report;
use std::path::{Path, PathBuf};

fn fixture_root(case: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(case)
}

fn run_case(case: &str) -> Report {
    let root = fixture_root(case);
    let cfg = LintConfig::load(&root.join("lint.toml"))
        .unwrap_or_else(|e| panic!("{case}: load lint.toml: {e}"));
    chronus_lint::run(&root, &cfg).unwrap_or_else(|e| panic!("{case}: run: {e}"))
}

fn assert_golden(case: &str, report: &Report) {
    let golden_path = fixture_root(case).join("expected.txt");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{case}: read expected.txt: {e}"));
    let expected: Vec<&str> = golden.lines().filter(|l| !l.trim().is_empty()).collect();
    let actual: Vec<String> = report.live.iter().map(|f| f.render_text()).collect();
    assert_eq!(
        actual, expected,
        "{case}: findings diverge from expected.txt (left = actual)"
    );
}

/// Bad fixtures must reproduce their goldens exactly — rule id,
/// `file:line`, and message.
#[test]
fn bad_fixtures_reproduce_goldens() {
    for case in [
        "lock_bad",
        "hot_alloc_bad",
        "det_bad",
        "unsafe_bad",
        "casts_bad",
        "stdio_bad",
        "dead_pub_bad",
    ] {
        let report = run_case(case);
        assert!(
            !report.live.is_empty(),
            "{case}: expected findings, got none"
        );
        assert_golden(case, &report);
    }
}

/// Good fixtures — the fixed twins of the bad ones, including the
/// known false-positive shapes — must lint clean.
#[test]
fn good_fixtures_lint_clean() {
    for case in [
        "lock_good",
        "hot_alloc_good",
        "det_good",
        "unsafe_good",
        "casts_good",
        "stdio_good",
        "dead_pub_good",
    ] {
        let report = run_case(case);
        assert_golden(case, &report);
        assert!(
            report.live.is_empty(),
            "{case}: expected clean, got: {:?}",
            report
                .live
                .iter()
                .map(|f| f.render_text())
                .collect::<Vec<_>>()
        );
    }
}

/// The baseline silences exactly the grandfathered finding; a new
/// finding in the same file still surfaces live.
#[test]
fn baseline_silences_only_listed_findings() {
    let report = run_case("baseline");
    assert_golden("baseline", &report);
    assert_eq!(report.baselined, 1, "one grandfathered finding expected");
    assert_eq!(report.live.len(), 1, "the new finding must stay live");
    let only = report.live.first().expect("checked non-empty");
    assert_eq!(only.rule, "det-wallclock");
    assert_eq!(only.line, 7);
}

/// The lock_bad fixture is the PR-6 regression test in miniature:
/// both the journal-outside-armed append and the inverse nesting must
/// be caught, each with a `file:line` pointing at the acquisition.
#[test]
fn lock_bad_catches_the_pr6_wal_race_shape() {
    let report = run_case("lock_bad");
    let rules: Vec<&str> = report.live.iter().map(|f| f.rule).collect();
    assert!(
        rules.contains(&"lock-requires"),
        "journal append outside armed"
    );
    assert!(
        rules.contains(&"lock-order"),
        "armed re-acquired under journal"
    );
    for f in &report.live {
        assert!(f.line > 0, "diagnostic must carry a real line");
        assert!(f.file.ends_with("service.rs"));
    }
}
