#!/usr/bin/env bash
# Where does a repo-benchmark workload spend its host time? (ROADMAP
# item 1; the perf recipe is llfree-rs's, see SNIPPETS.md.)
#
#   scripts/profile.sh <workload> [seconds]      # seconds: default 20
#
# Runs `benchmark/run.sh --workload W --seed 0 --seconds S --trace 0`
# (the form the benchmark driver uses, tracing off) twice: under
# `perf stat -d` for the counters, and under `perf record -g -F 999`
# for call stacks, written to target/profile/<workload>.perf.data. It
# then prints the `perf script` conversion whose output
# https://profiler.firefox.com opens ("Load a profile from file"; see
# https://profiler.firefox.com/docs/#/./guide-perf-profiling). The
# benchmark is built first, so neither run records the compiler.
#
# Without `perf` on the PATH (the CI container has none) the script
# says so and falls back to the allocation-backtrace recipe, which
# needs no tool: one plain run of the workload for its result line
# (host_s, allocs, peak_rss_mb), then the matching allocation gate of
# crates/romio/tests/alloc_count.rs under
# `E10_ALLOC_BT=lo:hi RUST_BACKTRACE=1`, which prints a symbolised
# backtrace for every counted allocator call whose ordinal falls in
# [lo, hi) — allocator calls are the host cost this simulator's
# optimisations have so far been found by. Set E10_ALLOC_BT yourself to
# move the window (default 0:20; the gates print their totals, so a
# second run can aim at the steady-state tail).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0" >&2
  exit 2
fi
workload=$1
seconds=${2:-20}
run=(bash benchmark/run.sh --workload "$workload" --seed 0 --seconds "$seconds" --trace 0)

# The build run.sh would do, done up front.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}" cargo build --offline --release --quiet \
  --manifest-path benchmark/Cargo.toml

if command -v perf > /dev/null; then
  out=target/profile
  mkdir -p "$out"
  echo "==> perf stat -d ${run[*]}" >&2
  perf stat -d -- "${run[@]}"
  echo "==> perf record -g -F 999 -o $out/$workload.perf.data ${run[*]}" >&2
  perf record -g -F 999 -o "$out/$workload.perf.data" -- "${run[@]}"
  echo "For https://profiler.firefox.com (Load a profile from file):"
  echo "  perf script -i $out/$workload.perf.data -F +pid > $out/$workload.perf"
  exit 0
fi

echo "profile.sh: no \`perf\` on this host; falling back to the" >&2
echo "  allocation-backtrace recipe (E10_ALLOC_BT=lo:hi RUST_BACKTRACE=1)." >&2
echo "==> ${run[*]}" >&2
"${run[@]}"
# The gate that exercises the transport and the collective backend
# the workload runs (every workload is analytic).
case $workload in
  collperf_degraded) gate=timed_rounds_cost_linear_in_ranks ;;
  *) gate=steady_state_rounds_allocate_a_constant_under_analytic ;;
esac
export E10_ALLOC_BT="${E10_ALLOC_BT:-0:20}" RUST_BACKTRACE=1
echo "==> E10_ALLOC_BT=$E10_ALLOC_BT RUST_BACKTRACE=1 alloc_count::$gate" >&2
cargo test --release -q -p e10-romio --test alloc_count "$gate" -- --nocapture
