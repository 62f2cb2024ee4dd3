#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given
# arguments. Run from the repository root:
#   bash perfbench/run.sh --workload sig-lp --seed 1 --seconds 20 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --target-dir "$target" >&2
exec "$target/release/perfbench" "$@"
