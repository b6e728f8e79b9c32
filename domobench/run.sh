#!/usr/bin/env bash
# Builds the `domo-sink` binary and the benchmark from source, then runs
# the benchmark. Run from the repository root:
#   bash domobench/run.sh --workload live-25 --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p domo-sink --bin domo-sink
cargo build --release --offline --quiet --manifest-path domobench/Cargo.toml
exec "$target/release/domobench" --sink-bin "$target/release/domo-sink" "$@"
