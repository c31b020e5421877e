//! The rule engine: the [`Rule`] trait and the shipped rule set.

use crate::diag::Diagnostic;
use crate::source::{AnalyzedWorkspace, LexedFile};

mod determinism;
mod durability;
mod hlc;
mod hotpath;
mod manifest;
mod wallclock;

pub use determinism::Determinism;
pub use durability::Durability;
pub use hlc::HlcOrder;
pub use hotpath::HotPath;
pub use manifest::Manifest;
pub use wallclock::WallClock;

/// One lint rule.
///
/// A rule sees either individual lexed files (`check_file`, called once
/// per Rust source in its scope) or the whole workspace
/// (`check_workspace`, called once) — most rules implement exactly one
/// of the two. Emitted diagnostics are filtered through the in-source
/// allow directives by the engine; rules themselves never consult
/// allows.
pub trait Rule {
    /// The rule's name — what goes inside `lint:allow(...)`.
    fn name(&self) -> &'static str;

    /// One-line description for `hiloc-lint rules`.
    fn description(&self) -> &'static str;

    /// Per-file check. Default: nothing.
    fn check_file(&self, _file: &LexedFile, _out: &mut Vec<Diagnostic>) {}

    /// Whole-workspace check. Default: nothing.
    fn check_workspace(&self, _ws: &AnalyzedWorkspace, _out: &mut Vec<Diagnostic>) {}
}

/// The shipped rule set, in reporting order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(Determinism),
        Box::new(WallClock),
        Box::new(Durability),
        Box::new(HotPath),
        Box::new(Manifest),
        Box::new(HlcOrder),
    ]
}

/// True when `rel` may carry `lint:allow(<rule>)` for a known rule.
pub fn known_rule(name: &str) -> bool {
    default_rules().iter().any(|r| r.name() == name)
}

/// Matches the token slice at `from` against a pattern of identifier
/// names and punctuation characters. A pattern element that is a single
/// non-alphanumeric character matches punctuation; anything else
/// matches an identifier.
pub(crate) fn tokens_match(
    t: &[crate::lexer::Token],
    from: usize,
    pat: &[&str],
) -> bool {
    if from + pat.len() > t.len() {
        return false;
    }
    pat.iter().enumerate().all(|(k, p)| {
        let tok = &t[from + k];
        let mut chars = p.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) if !c.is_ascii_alphanumeric() && c != '_' => tok.is_punct(c),
            _ => tok.is_ident(p),
        }
    })
}
