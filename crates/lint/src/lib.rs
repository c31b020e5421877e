//! hiloc-lint: a std-only static analyzer for the hiloc workspace.
//!
//! Rules enforce invariants the test suite can only probe: determinism
//! (no randomized-iteration containers in replay-sensitive crates), no
//! wall-clock reads outside the real-time edges, durability barriers
//! only inside the storage engine, allocation-free hot-path functions,
//! the zero-external-dependency manifest policy, and the derived total
//! order of HLC stamps. The analyzer lexes Rust itself — no `syn`, no
//! `proc-macro2` — in keeping with the workspace dependency policy it
//! enforces. It does not expand macros: a `// lint:hot_path` marker
//! inside a `macro_rules!` body checks the body as written, which is
//! how the generated wire codec (`hiloc_net::wire`) stays covered.
//!
//! A rule whose invariant becomes true by construction is deleted with
//! its fixtures — as the `wire` variant-coverage rule was once the
//! protocol became one declarative table.
//!
//! Exceptions live in the source as `// lint:allow(<rule>) <reason>`
//! (line scope) or `// lint:allow-file(<rule>) <reason>`; every allow
//! needs a reason and is itself checked — stale allows are findings.
//! `hiloc-lint list-allows` prints the full baseline.
//!
//! The engine operates on an in-memory workspace model, so the fixture
//! corpus and the mutation tests exercise the exact code path the ci.sh
//! gate runs against the real tree.

pub mod diag;
pub mod directives;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;

pub use diag::Diagnostic;
pub use engine::{check, list_allows};
pub use source::{analyze, load_workspace, AnalyzedWorkspace, SourceFile};
