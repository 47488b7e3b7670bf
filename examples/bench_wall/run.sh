#!/usr/bin/env bash
# Build bench_wall (its own package, release profile) and run it.
#
#   examples/bench_wall/run.sh                      everything; prints every metric, writes result.json
#   examples/bench_wall/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                   one workload, one JSON line (BENCHMARK.json's command)
#   examples/bench_wall/run.sh --check | --aa | --smoke
#
# Run from the repo root. Cargo's messages go to stderr so the last line
# of stdout is always the benchmark's own.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/bench_wall" "$@"
