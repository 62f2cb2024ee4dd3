#!/usr/bin/env bash
# Tier-1 gate: the workspace must build, lint and test fully offline.
# Every dependency is a workspace path dependency; the registry deps
# (proptest, criterion, rand) are commented out in the manifests and
# only needed for the opt-in `proptest` / `bench-deps` features.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings \
    -D clippy::needless_pass_by_value -D clippy::redundant_clone
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
cargo build --release --offline
cargo test -q --offline

# Static-analysis gate: the three paper designs must be free of
# error-severity lint findings under their recommended generators,
# and the paper's known-bad pairing must be flagged (exit 1).
for design in LP BP HP; do
    ./target/release/bistlint --design "$design" --gen LFSR-D > /dev/null \
        || { echo "bistlint found errors on $design x LFSR-D"; exit 1; }
done
if ./target/release/bistlint --design LP --gen LFSR-1 > /dev/null 2>&1; then
    echo "bistlint failed to flag the incompatible LP x LFSR-1 pairing"
    exit 1
fi
echo "bistlint gate: roster clean, incompatible pairing flagged OK"

# Signature-mode smoke cell: every roster generator on LP-MINI must
# produce bit-identical verdicts in trace and signature mode with zero
# aliased faults on the default 16-bit MISR (exits non-zero otherwise).
./target/release/experiments smoke
echo "experiments smoke cell: signature mode bit-identical, zero aliasing OK"

# ATPG smoke cell: the LP-MINI campaign residue must be fully resolved
# by the deterministic top-off — every residual fault detected by the
# verified seed plan or proven untestable, none unresolved (exits
# non-zero otherwise).
./target/release/experiments atpg
echo "experiments atpg cell: top-off covers 100% of testable faults OK"

# SAT smoke cell: LP-MINI must get a machine-checked equivalence
# certificate and a sample of the symmetric design's screen candidates
# must prove redundant (exits non-zero on any refutation). Sub-second.
./target/release/experiments sat
echo "experiments sat cell: equivalence proved, sampled candidates UNSAT OK"

# Structure smoke cell: the LP-MINI collapse run must be bit-identical
# to the plain run, shrink the simulated universe, and carry the L701
# collapse census at admission (exits non-zero otherwise). Sub-second.
./target/release/experiments structure
echo "experiments structure cell: collapse bit-identical, census attached OK"

# Kernel differential cell: the scheduled fault simulator (the flat
# SoA tape kernel, running each shard group over its fanout cone) must
# produce exactly the verdicts, signatures and coverage of the
# unscheduled reference simulator (every fault on the graph walker from
# cycle 0, no stages or state carry) on LP-MINI @1024 and on the
# carry-save LP-CSA @256 in both response-check modes (exits non-zero
# on any divergence). A few seconds.
./target/release/experiments kernel
echo "experiments kernel cell: kernel equals the reference in both modes OK"

# Daemon smoke test: a bistd on a Unix socket must serve a campaign,
# answer the identical resubmission from its result cache, and drain
# cleanly on shutdown.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
sock="$smoke_dir/bistd.sock"
./target/release/bistd --unix "$sock" --workers 1 > "$smoke_dir/bistd.log" &
bistd_pid=$!
for _ in $(seq 1 50); do
    [ -S "$sock" ] && break
    sleep 0.1
done
[ -S "$sock" ] || { echo "bistd never created its socket"; cat "$smoke_dir/bistd.log"; exit 1; }
smoke_run() {
    ./target/release/bistctl --server "unix:$sock" run \
        --design LP-MINI --gen LFSR-D --vectors 64
}
cold="$(smoke_run)"
warm="$(smoke_run)"
echo "$cold" | grep -q '"cached":false' || { echo "cold run unexpectedly cached: $cold"; exit 1; }
echo "$warm" | grep -q '"cached":true' || { echo "warm run missed the cache: $warm"; exit 1; }
./target/release/bistctl --server "unix:$sock" shutdown > /dev/null
wait "$bistd_pid"
echo "bistd smoke test: cache hit + graceful shutdown OK"
