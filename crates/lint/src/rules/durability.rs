//! `durability` — fsync stays inside the storage engine.
//!
//! The storage engine's crash-safety proof rests on one ordering: the
//! checkpoint snapshot is synced before it renames into place, and it
//! commits before the WAL resets. That ordering lives in `crates/storage`; a
//! stray `sync_all()` anywhere else either duplicates a barrier the
//! engine already provides (hiding latency the benchmarks must see) or
//! invents a new durability point the power-loss model in
//! `crates/core/src/runtime/engine.rs` doesn't know about — and a sync
//! the simulator can't observe is a sync the fuzzer can't falsify.

use super::{tokens_match, Rule};
use crate::diag::Diagnostic;
use crate::source::LexedFile;

/// Paths allowed to issue durability barriers: the storage engine
/// itself, and the lint crate (whose fixtures mention the tokens).
const EXEMPT: &[&str] = &["crates/storage/", "crates/lint/"];

/// The `durability` rule.
pub struct Durability;

impl Rule for Durability {
    fn name(&self) -> &'static str {
        "durability"
    }

    fn description(&self) -> &'static str {
        "fsync/sync_all/sync_data banned outside crates/storage; route \
         durability through the engine's SyncPolicy and group commit"
    }

    fn check_file(&self, file: &LexedFile, out: &mut Vec<Diagnostic>) {
        if EXEMPT.iter().any(|s| file.rel.starts_with(s)) {
            return;
        }
        let t = &file.lexed.tokens;
        for i in 0..t.len() {
            for sync in ["fsync", "sync_all", "sync_data"] {
                if tokens_match(t, i, &[sync]) && !file.in_test_code(t[i].line) {
                    out.push(Diagnostic::new(
                        &file.rel,
                        t[i].line,
                        self.name(),
                        format!(
                            "`{sync}` issues a durability barrier outside \
                             crates/storage; use the engine's SyncPolicy / \
                             group-commit API so the power-loss model sees it"
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
        Durability.check_file(&f, &mut out);
        out
    }

    #[test]
    fn flags_sync_calls_outside_storage() {
        let d = check("crates/core/src/x.rs", "file.sync_all().unwrap();");
        assert_eq!(d.len(), 1);
        let d = check("crates/sim/src/y.rs", "f.sync_data()?;");
        assert_eq!(d.len(), 1);
        let d = check("crates/net/src/z.rs", "libc_fsync(fd);");
        assert!(d.is_empty(), "fsync must match as a whole identifier only");
        let d = check("crates/net/src/z.rs", "fsync(fd);");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn storage_engine_is_exempt() {
        assert!(check("crates/storage/src/wal.rs", "f.sync_data()?;").is_empty());
        assert!(check("crates/storage/src/checkpoint.rs", "f.sync_data()?;").is_empty());
    }

    #[test]
    fn comments_and_strings_never_count() {
        assert!(check("crates/core/src/x.rs", "// one fsync per batch\nlet a = 1;").is_empty());
        assert!(check("crates/core/src/x.rs", "let s = \"sync_all\";").is_empty());
    }
}
