#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build both binaries from
# source, then hand every argument to hiloc-bench.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh all --seed <n>          every end-to-end metric
#   bash benchmark/run.sh trace --seed <n>        every per-layer metric
#
# Fails (cargo's exit code, nothing printed on stdout) where the hiloc
# sources are missing.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/hiloc-bench" "$@"
