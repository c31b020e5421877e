//! Meta-test: the analyzer runs clean on the actual workspace, and the
//! gate is alive — artificially re-introducing a violation into the
//! in-memory workspace model makes it fail.
//!
//! The mutations never touch disk: `load_workspace` produces the same
//! `SourceFile` list `hiloc-lint check` scans, and the mutated copies
//! go through the identical engine. If someone adds a `HashMap` to core
//! node state or a crates.io dependency to a manifest, the first of
//! these tests is the one that goes red in CI.

use hiloc_lint::{analyze, check, list_allows, load_workspace, SourceFile};
use std::path::Path;

fn workspace_files() -> Vec<SourceFile> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root");
    load_workspace(root).expect("workspace readable")
}

#[test]
fn workspace_is_lint_clean() {
    let ws = analyze(&workspace_files());
    let diags = check(&ws);
    assert!(
        diags.is_empty(),
        "the workspace must stay lint-clean; findings:\n{}",
        diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
    );
}

#[test]
fn allow_baseline_is_nonempty_and_reasoned() {
    let ws = analyze(&workspace_files());
    let allows = list_allows(&ws);
    assert!(!allows.is_empty(), "the audited baseline carries justified allows");
    for line in &allows {
        let (_, reason) = line.split_once('—').expect("list-allows line carries a reason");
        assert!(!reason.trim().is_empty(), "empty reason in {line}");
    }
}

#[test]
fn injecting_a_hash_map_into_core_state_fails_the_gate() {
    let mut files = workspace_files();
    files.push(SourceFile {
        rel: "crates/core/src/node/mutation_probe.rs".to_string(),
        text: "use std::collections::HashMap;\n\npub struct Probe {\n    pub seen: HashMap<u64, u64>,\n}\n"
            .to_string(),
    });
    let diags = check(&analyze(&files));
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "determinism" && d.file.ends_with("mutation_probe.rs"))
        .collect();
    assert_eq!(hits.len(), 2, "both HashMap mentions must be flagged: {diags:?}");
}

#[test]
fn introducing_a_remote_dependency_fails_the_gate() {
    let mut files = workspace_files();
    let manifest = files
        .iter_mut()
        .find(|f| f.rel == "crates/core/Cargo.toml")
        .expect("core manifest present");
    manifest.text.push_str("\n[dependencies.rand]\nversion = \"0.8\"\n");
    let diags = check(&analyze(&files));
    assert!(
        diags.iter().any(|d| d.rule == "manifest" && d.message.contains("rand")),
        "remote dependency must be flagged: {diags:?}"
    );
}
