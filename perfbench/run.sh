#!/usr/bin/env bash
# Build the benchmark and the disp-serve binary from this checkout, then
# run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline -q -p disp-serve --bin disp-serve >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
