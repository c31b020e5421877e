#!/usr/bin/env bash
# Everything that keeps the benchmark honest, in under a minute:
# a smoke run of all four workloads and their traces, the package's
# tests, clippy with warnings denied, and hiloc-lint over the whole
# repository (it walks benchmark/ too).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

echo "==> smoke: all four workloads, then their traces"
cargo build --release --offline --quiet --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-$here/target}/release/hiloc-bench"
"$bin" all --smoke
"$bin" trace --smoke

echo "==> tests"
cargo test --release --offline --quiet --manifest-path "$manifest"

echo "==> clippy -D warnings"
cargo clippy --release --offline --quiet --all-targets --manifest-path "$manifest" -- -D warnings

echo "==> hiloc-lint"
(cd "$here/.." && cargo run -q --offline -p hiloc-lint -- check)

echo "benchmark/check.sh: all green"
