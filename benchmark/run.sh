#!/usr/bin/env bash
# Build the shipped `cold` binary and the benchmark from source, then run the
# benchmark with this script's arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload serve_predict --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh --seed 1 --reps 3 --out run.json
#   bash benchmark/run.sh compare a.json b.json
#
# See benchmark/README.md for the workloads and metrics.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p cold-cli --bin cold >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
