//! `wallclock` — no wall-clock reads outside the real-time edges.
//!
//! Simulated and core code must take time as a parameter (virtual
//! microseconds); an `Instant::now()` in the wrong place silently makes
//! results depend on host speed and destroys same-seed replay. The only
//! legitimate clock readers are the bench crate and the real-time
//! runtimes, which carry file-scoped allows so every exception is on
//! the reviewed baseline (`hiloc-lint list-allows`).

use super::{tokens_match, Rule};
use crate::diag::Diagnostic;
use crate::source::LexedFile;

/// Paths exempt by design rather than by in-source allow: the bench
/// crate, whose job is timing.
const EXEMPT: &[&str] = &["crates/bench/", "crates/lint/"];

/// The `wallclock` rule.
pub struct WallClock;

impl Rule for WallClock {
    fn name(&self) -> &'static str {
        "wallclock"
    }

    fn description(&self) -> &'static str {
        "Instant::now/SystemTime::now banned outside the bench crate; \
         real-time runtimes carry lint:allow-file(wallclock)"
    }

    fn check_file(&self, file: &LexedFile, out: &mut Vec<Diagnostic>) {
        if EXEMPT.iter().any(|s| file.rel.starts_with(s)) {
            return;
        }
        let t = &file.lexed.tokens;
        for i in 0..t.len() {
            for clock in ["Instant", "SystemTime"] {
                if tokens_match(t, i, &[clock, ":", ":", "now"])
                    && !file.in_test_code(t[i].line)
                {
                    out.push(Diagnostic::new(
                        &file.rel,
                        t[i].line,
                        self.name(),
                        format!(
                            "`{clock}::now()` reads the wall clock; pass virtual time \
                             in, or mark a real-time runtime with \
                             `lint:allow-file(wallclock) <reason>`"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn check(rel: &str, src: &str) -> Vec<Diagnostic> {
        let f = LexedFile::new(&SourceFile { rel: rel.into(), text: src.into() });
        let mut out = Vec::new();
        WallClock.check_file(&f, &mut out);
        out
    }

    #[test]
    fn flags_instant_now_everywhere_in_scope() {
        let d = check("crates/core/src/x.rs", "let t = Instant::now();");
        assert_eq!(d.len(), 1);
        let d = check("crates/sim/examples/e.rs", "let t = std::time::Instant::now();");
        assert_eq!(d.len(), 1);
        let d = check("crates/net/src/x.rs", "let t = SystemTime::now();");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn bench_paths_are_exempt() {
        assert!(check("crates/bench/src/table1.rs", "Instant::now();").is_empty());
    }

    #[test]
    fn other_now_functions_are_fine() {
        assert!(check("crates/core/src/x.rs", "let t = clock.now(); now();").is_empty());
        assert!(check("crates/core/src/x.rs", "let t = VirtualClock::now(&c);").is_empty());
    }
}
