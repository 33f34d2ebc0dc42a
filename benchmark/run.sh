#!/usr/bin/env bash
# The repo benchmark: builds benchmark/ (a crate of its own) and runs it.
#
#   benchmark/run.sh [--seed N] [--workload W] [--smoke]
#       every workload (or W), each in a process of its own; prints every
#       metric by name and unit, writes benchmark/out/latest.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is the JSON result
#   benchmark/run.sh --compare A.json B.json
#
# See benchmark/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# The build goes to $CARGO_TARGET_DIR when the caller sets one, to the
# repository's target/ otherwise; the repository's own Cargo.toml and
# Cargo.lock are not touched.
target="${CARGO_TARGET_DIR:-$root/target}"
build_start=$(date +%s%N)
CARGO_TARGET_DIR="$target" cargo build --offline --release --quiet \
    --manifest-path benchmark/Cargo.toml >&2
build_ms=$(( ($(date +%s%N) - build_start) / 1000000 ))
# Build time is reported on its own, never inside setup_s.
printf 'benchmark: build_s %d.%03d\n' $((build_ms / 1000)) $((build_ms % 1000)) >&2

# Single-threaded by construction: one simulation per process, no pool.
unset E10_JOBS
exec "$target/release/e10-benchmark" "$@"
