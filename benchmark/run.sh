#!/usr/bin/env bash
# Build the program's release binaries and the benchmark, then run the
# benchmark with the given arguments, from the root of the repository:
#
#   bash benchmark/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#
# Both builds share one target directory (CARGO_TARGET_DIR, default
# `target`), so the benchmark finds lacnet-gen, vzla-report and
# lacnet-serve next to its own executable.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --workspace --bins
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/lacnet-benchmark" "$@"
