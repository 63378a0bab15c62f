#!/usr/bin/env bash
# Build the benchmark with the default release profile (what users of
# the crates get: no target-cpu=native) and run it from the repository
# root. See README.md beside this file.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--quick] [--out FILE]
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh aa A.jsonl B.jsonl
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/cuszi-benchmark" "$@"
