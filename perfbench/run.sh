#!/usr/bin/env bash
# Builds the `semint` binary (the serve workload's shard worker) and the
# benchmark binary from this source tree, then runs one workload.
#
#   bash perfbench/run.sh --workload deep --seed 0 --seconds 10 --trace 0
#
# Everything the run writes stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), temporary files included.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
work="$CARGO_TARGET_DIR/perfbench-work"
mkdir -p "$work/tmp"
TMPDIR="$(cd "$work/tmp" && pwd)"
export TMPDIR
cargo build --release --offline --quiet -p semint-harness --bin semint >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# Not `exec`: the benchmark must run as a fresh process, so the peak RSS of its
# waited-for children counts the shard workers and not the builds above.
"$CARGO_TARGET_DIR/release/perfbench" \
  --semint "$CARGO_TARGET_DIR/release/semint" --work-dir "$work" "$@"
