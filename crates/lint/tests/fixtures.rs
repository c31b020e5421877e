//! Fixture-driven corpus test: every file under `tests/fixtures/<rule>/`
//! is a miniature workspace run through the real engine.
//!
//! Header lines at the top of each fixture declare its identity and the
//! exact findings it must produce:
//!
//! ```text
//! //@ path: crates/core/src/fixture.rs     (#@ in .toml fixtures)
//! //@ expect: determinism 6
//! ```
//!
//! Headers are stripped before analysis, so `expect` line numbers refer
//! to the body as the engine sees it. A fixture with no `expect`
//! headers is known-good and must come back clean. The engine —
//! including allow filtering and meta diagnostics — is the same code
//! path `hiloc-lint check` runs against the real tree, which is what
//! makes the corpus meaningful.

use hiloc_lint::{analyze, check, SourceFile};
use std::fs;
use std::path::{Path, PathBuf};

/// One parsed fixture: the synthetic file plus its expected findings.
struct Fixture {
    name: String,
    file: SourceFile,
    expected: Vec<(String, u32)>,
}

fn header_prefix(path: &Path) -> &'static str {
    if path.extension().is_some_and(|e| e == "toml") {
        "#@"
    } else {
        "//@"
    }
}

fn parse_fixture(path: &Path) -> Fixture {
    let raw = fs::read_to_string(path).expect("fixture readable");
    let prefix = header_prefix(path);
    let mut rel = None;
    let mut expected = Vec::new();
    let mut body_start = 0usize;
    for line in raw.lines() {
        let Some(tail) = line.strip_prefix(prefix) else { break };
        body_start += line.len() + 1;
        let tail = tail.trim();
        if let Some(p) = tail.strip_prefix("path:") {
            rel = Some(p.trim().to_string());
        } else if let Some(e) = tail.strip_prefix("expect:") {
            let mut it = e.split_whitespace();
            let rule = it.next().expect("expect: needs a rule").to_string();
            let line: u32 = it
                .next()
                .expect("expect: needs a line")
                .parse()
                .expect("expect: line must be a number");
            expected.push((rule, line));
        } else {
            panic!("{}: unknown fixture header `{line}`", path.display());
        }
    }
    let rel = rel.unwrap_or_else(|| panic!("{}: missing `path:` header", path.display()));
    Fixture {
        name: path.file_name().unwrap().to_string_lossy().into_owned(),
        file: SourceFile { rel, text: raw[body_start.min(raw.len())..].to_string() },
        expected,
    }
}

fn fixture_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(dir) = stack.pop() {
        for e in fs::read_dir(&dir).expect("fixtures dir readable") {
            let p = e.expect("dir entry").path();
            if p.is_dir() {
                stack.push(p);
            } else {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn corpus_has_a_failing_fixture_for_every_rule() {
    let mut failing: Vec<String> = fixture_files()
        .iter()
        .map(|p| parse_fixture(p))
        .flat_map(|f| f.expected.into_iter().map(|(rule, _)| rule))
        .collect();
    failing.sort();
    failing.dedup();
    for rule in ["determinism", "wallclock", "hot_path", "manifest", "hlc", "lint"] {
        assert!(
            failing.iter().any(|r| r == rule),
            "no failing fixture exercises rule `{rule}`"
        );
    }
}

#[test]
fn every_fixture_produces_exactly_its_expected_findings() {
    for path in fixture_files() {
        let fx = parse_fixture(&path);
        let known_good = fx.expected.is_empty();
        assert_eq!(
            known_good,
            fx.name.starts_with("good_"),
            "{}: name must reflect expectations (good_* ⇔ no expect headers)",
            fx.name
        );
        let ws = analyze(std::slice::from_ref(&fx.file));
        let mut got: Vec<(String, u32)> =
            check(&ws).iter().map(|d| (d.rule.to_string(), d.line)).collect();
        let mut want = fx.expected.clone();
        got.sort();
        want.sort();
        assert_eq!(
            got, want,
            "{}: findings mismatch (got vs expected); diagnostics:\n{}",
            fx.name,
            check(&ws).iter().map(|d| format!("  {d}\n")).collect::<String>()
        );
    }
}
