#!/usr/bin/env bash
# Builds the benchmark runner and the gmap binary from source, then runs
# one workload:
#   bash perfbench/run.sh --workload sweep_lru --seed 1 --seconds 20 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin gmap >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --gmap "$CARGO_TARGET_DIR/release/gmap" "$@"
