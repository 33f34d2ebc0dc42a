#!/usr/bin/env bash
# Pre-merge gate (see ROADMAP.md). Everything runs offline: the
# workspace has no external dependencies.
#
#   scripts/ci.sh           # full gate
#
# Steps:
#   1. release build of every crate, bins included
#   2. full test suite (unit + integration + property + doc tests),
#      with a per-suite/total test-count summary from the harness
#      "test result:" lines, then scripts/loc.sh over crates/romio/src:
#      production vs test lines per file (informational, no gate).
#      The suite holds the exact allocator-call gates of
#      crates/romio/tests/alloc_count.rs:
#      steady_state_rounds_allocate_nothing and
#      steady_state_with_tolerance_hints_off_allocates_nothing (0 per
#      extra round, algorithmic collectives),
#      timed_rounds_cost_linear_in_ranks (3 per extra crash-tolerant
#      round) and steady_state_rounds_allocate_a_constant_under_analytic
#      (4 per extra round per communicator, at 8 and at 16 ranks, on
#      the analytic collectives every paper-scale run uses), the
#      ceiling on what resolving the paper's hints costs per rank-open
#      (resolving_the_paper_hints_allocates_no_more_than_it_did, 3),
#      the two same-count-every-time gates (file churn on a volume;
#      an 8-rank open, split_by_node, write, close) and the read-round
#      gate read_rounds_cost_what_they_did (111.8 per extra collective-
#      read round from the global file, 76.2 from the aggregators'
#      caches, both pinned exactly). The suite also holds the goldens
#      of tests/golden.rs: results/tables.txt, results/fig4_test.json
#      and the collective read's results/ext_cache_read_test.json.
#      Then the schedule-perturbation properties once more on their
#      own, for their wall time (budget: under 20 s together): simcore's
#      tests/perturbation.rs and the three write algorithms under 8
#      perturbation seeds in tests/properties.rs, each file then synced
#      and read back collectively (from the caches on the cache arm)
#   3. formatting, `bash -n scripts/profile.sh`, and the `unsafe`
#      fence: simcore denies unsafe_op_in_unsafe_fn, and the word may
#      appear in crates/simcore/src only in waker.rs (the task waker's
#      vtable) and alloc_gauge.rs (the counting allocator)
#   4. clippy, warnings promoted to errors
#   5. fault-matrix smoke: stalls/link faults/RPC failures across the
#      cached and uncached write paths, plus a node crash recovered
#      from the cache journal (exit != 0 on any data loss); runs with
#      E10_JOBS=4 so the worker-pool path is exercised under CI
#   6. multi_job smoke: the fixed-seed multi-tenant cache arms; the
#      binary itself gates on the contended arm degrading + evicting
#      while the control arms stay clean, and the JSON output (minus
#      the host_secs wall-clock field) must be byte-identical at
#      E10_JOBS=1 and E10_JOBS=8 (identical_across_jobs, as in steps
#      9-11; the figure-sweep half of that rule — fig4 byte-identical,
#      every point's virtual time and bandwidth bit-identical — is
#      crates/bench/tests/determinism.rs in step 2)
#   7. node_agg smoke: the three collective-write algorithms on the
#      test-scale grid; the binary gates on intra-node aggregation
#      strictly reducing inter-node shuffle bytes AND messages vs the
#      extended algorithm on every cell (exit != 0 otherwise), with
#      every run byte-verified
#   8. chaos-soak smoke: fixed-seed randomized corruption schedules
#      (SSD bit-flips/torn sectors, wire corruption, lazy PFS rot,
#      stalls, RPC failures) against the fault-free oracle; exit != 0
#      if any seed silently diverges from the oracle's bytes; the seeds
#      cycle through all three cache classes so the NVM front and the
#      hybrid split sit under the same oracle. Journal format-version
#      compat is covered by the test suite in step 2 (v1 journals
#      without Cksum records must still replay).
#   9. nvm_sweep smoke: the SSD/NVM/hybrid cache-tier grid; the binary
#      gates on the nvm class strictly reducing cache-write stall per
#      cached byte on small-buffer cells and on hybrid bandwidth never
#      losing to the better pure class (exit != 0 otherwise), and the
#      JSON (minus the worker-count field) must be byte-identical at
#      E10_JOBS=1 and E10_JOBS=8
#  10. bench_perf smoke: the quick-scale perf baseline vs the
#      committed BENCH_perf.json — events and allocator-call counts
#      must match exactly (the sim is deterministic), the densest
#      cell's median wall-clock per event must stay within the
#      baseline's tolerance factor, and the JSON minus the
#      wall-clock/host fields must be byte-identical at E10_JOBS=1
#      and E10_JOBS=8
#  11. degraded smoke: the failure-intensity × cache-class ×
#      algorithm survivability grid; the binary gates on every cell
#      verifying all acked bytes (device failure, mid-collective node
#      crash, both), on the zero-failure arms being byte-identical
#      with the crash-tolerant engine forced on, and the JSON (minus
#      host_secs) must be byte-identical at E10_JOBS=1 and E10_JOBS=8.
#      The zero-cost-when-off half of the gate is the alloc_count
#      steady-state test in step 2 (tolerance hints at defaults add
#      exactly 0 allocator calls per round).
#  12. repo-benchmark smoke: builds the standalone `benchmark/` crate
#      against this tree (so a rename in crates/ cannot break it
#      unnoticed) and runs all five workloads at 8 ranks; its
#      self-checks exit != 0
#
# Each step prints its wall-clock seconds.
#
# Only syntax-checked (`bash -n`, with the formatting step): it gates
# nothing and takes a workload's run time.
#   scripts/profile.sh <workload> [seconds]   # host profile of one
#      repo-benchmark workload: perf stat + perf record -g with the
#      Firefox-profiler conversion; without `perf`, an LD_PRELOAD
#      SIGPROF sampler + addr2line (self time by function and by
#      source file); without `cc`/`addr2line`, the E10_ALLOC_BT
#      allocation-backtrace recipe
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
  echo "==> $*"
  local t0=$SECONDS
  "$@"
  echo "    [$(($SECONDS - t0))s] $1 ${2-}"
}

step cargo build --release --workspace

echo "==> cargo test -q --workspace"
t0=$SECONDS
mkdir -p target
cargo test -q --workspace 2>&1 | tee target/ci-test.log
awk '/^test result:/ {
       suites += 1; passed += $4; failed += $6
     }
     END {
       printf "    test summary: %d suites, %d passed, %d failed\n",
              suites, passed, failed
     }' target/ci-test.log
echo "    [$(($SECONDS - t0))s] cargo test"
scripts/loc.sh crates/romio/src

perturbation_properties() {
  cargo test -q -p e10-simcore --test perturbation
  cargo test -q -p e10-repro --test properties -- under_perturbed_schedules
}
step perturbation_properties "(budget: 20 s)"

step cargo fmt --all --check
step bash -n scripts/profile.sh

unsafe_fence() {
  grep -q '^#!\[deny(unsafe_op_in_unsafe_fn)\]' crates/simcore/src/lib.rs
  ! grep -rnw unsafe crates/simcore/src \
    | grep -v -e '^crates/simcore/src/waker.rs:' -e '^crates/simcore/src/alloc_gauge.rs:'
}
step unsafe_fence

step cargo clippy --workspace --all-targets -- -D warnings

echo "==> fault-matrix smoke (E10_JOBS=4)"
t0=$SECONDS
E10_JOBS=4 cargo run --release -q -p e10-bench --bin fault_sweep -- --smoke
echo "    [$(($SECONDS - t0))s] fault-matrix smoke"

# identical_across_jobs NAME STRIP CMD...: run CMD (JSON on stdout) at
# E10_JOBS=1 and E10_JOBS=8. Apart from the host-side fields matching
# the extended regex STRIP — wall-clock seconds, the worker count —
# the two documents must be byte-identical: nothing simulated may
# depend on the worker count.
identical_across_jobs() {
  local name=$1 strip=$2 jobs
  shift 2
  for jobs in 1 8; do
    E10_JOBS=$jobs "$@" > "target/ci-$name-$jobs.json"
    sed -E "s/($strip): *[^,]*,//g" "target/ci-$name-$jobs.json" \
      > "target/ci-$name-$jobs.stripped.json"
  done
  cmp "target/ci-$name-1.stripped.json" "target/ci-$name-8.stripped.json"
}

step identical_across_jobs multi-job '"host_secs"' \
  cargo run --release -q -p e10-bench --bin multi_job -- --json

echo "==> node_agg smoke (inter-node traffic reduction gate)"
t0=$SECONDS
cargo run --release -q -p e10-bench --bin node_agg -- --smoke --jobs 4 \
  --out target/ci-node-agg.json
echo "    [$(($SECONDS - t0))s] node_agg smoke"

echo "==> chaos-soak smoke (E10_JOBS=4, fixed seeds, divergence gate)"
t0=$SECONDS
E10_JOBS=4 cargo run --release -q -p e10-bench --bin chaos_soak -- --smoke --json
echo "    [$(($SECONDS - t0))s] chaos-soak smoke"

step identical_across_jobs nvm-sweep '"jobs"' \
  cargo run --release -q -p e10-bench --bin nvm_sweep -- --smoke --json --out -

# --check gates events and allocator calls against the committed
# baseline (and the densest cell's wall clock within its tolerance).
step identical_across_jobs bench-perf \
  '"host_secs"|"wall_ns_per_event"|"jobs"|"host_cpus"|"wall_densest_min_ns_per_event"' \
  cargo run --release -q -p e10-bench --bin bench_perf -- \
  --check BENCH_perf.json --json --out -

step identical_across_jobs degraded '"host_secs"' \
  cargo run --release -q -p e10-bench --bin degraded -- --smoke --json --out -

step bash benchmark/run.sh --smoke

echo "==> ci: all green"
