#!/usr/bin/env bash
# Pre-merge gate (see ROADMAP.md). Everything runs offline: the
# workspace has no external dependencies.
#
#   scripts/ci.sh           # full gate
#
# Steps:
#   1. release build of every crate, the bench binary included
#   2. full test suite (unit + integration + property + doc tests),
#      with a per-suite/total test-count summary from the harness
#      "test result:" lines, then scripts/loc.sh over every crate
#      (crates/*/src): production vs test lines per file, per crate and
#      the grand total (informational, no gate), then
#      the sizes the future-size gates hold (informational here; the
#      gates ran in the suite): a spawned task's box against its future,
#      in simcore's join.rs, and the collective write/read, PFS write
#      and RAID write/read futures, in crates/romio/tests/future_sizes.rs,
#      and beside them the capacity gate's numbers
#      (crates/romio/tests/round_state.rs,
#      round_state_is_sized_by_the_aggregators_a_rank_touches: a
#      64-rank write and read of one view at 8 and at 64 aggregators;
#      what a rank's round scratch keeps and what the size exchange's
#      rows hold are at most 4 entries per aggregator the rank touched,
#      and the two runs are within 25 % of each other), and the
#      crash-state enumeration's state count and seconds per scenario
#      (crates/workloads/tests/crash_states.rs, which ran in the suite:
#      every power cut and tear of a two-tenant pressure-eviction run,
#      flush_each and one_flush, recovers every acked byte, and so does
#      every one of the crash workload's, one line per cache class).
#      The suite holds the exact allocator-call gates of
#      crates/romio/tests/alloc_count.rs:
#      steady_state_rounds_allocate_nothing and
#      steady_state_with_tolerance_hints_off_allocates_nothing (0 per
#      extra round, algorithmic collectives),
#      timed_rounds_cost_linear_in_ranks (3 per extra crash-tolerant
#      round) and steady_state_rounds_allocate_a_constant_under_analytic
#      (0 per extra round, at 8 and at 16 ranks, on the analytic
#      collectives every paper-scale run uses), the per-call gate
#      a_warm_collective_call_costs_what_is_pinned (3 per extra
#      write_at_all on an open file at 16 and 32 ranks, plus 4 per node
#      leader under node_agg, all pinned exactly), the
#      exact cost of resolving the paper's hints per rank-open
#      (resolving_the_paper_hints_allocates_no_more_than_it_did, 1;
#      the_default_hints_allocate_nothing, 0), one collective open and
#      close of 16 ranks (a_collective_open_and_close_costs_what_is_pinned,
#      85 calls, 165 with the cache, 229 with its journal or its NVM
#      front; 5, 9, 13 and 12 per added rank), an idle cache open and
#      close (an_idle_cache_open_and_close_costs_what_is_pinned, 5),
#      the two same-count-every-time gates (file churn on a volume;
#      an 8-rank open, split_by_node, write, close) and the read-round
#      gate read_rounds_cost_what_is_pinned (9.8 per extra collective-
#      read round from the global file, 2.0 from the aggregators'
#      caches, both pinned exactly), and
#      asking_a_cache_what_it_covers_allocates_nothing (0 on a cache
#      file of 10 000 extents). The suite also holds the goldens
#      of tests/golden.rs: results/tables.txt, results/fig4_test.json
#      and the collective read's results/ext_cache_read_test.json.
#      Then the schedule-perturbation properties once more on their
#      own, for their wall time (budget: under 20 s together): simcore's
#      tests/perturbation.rs and the three write algorithms under 8
#      perturbation seeds in tests/properties.rs, each file then synced
#      and read back collectively (from the caches on the cache arm)
#   3. formatting, `bash -n` of scripts/profile.sh and
#      scripts/results.sh, and the `unsafe`
#      fence: simcore denies unsafe_op_in_unsafe_fn, and the word may
#      appear in crates/simcore/src only in waker.rs (the task waker's
#      vtable), alloc_gauge.rs (the counting allocator) and join.rs
#      (two pin projections: FixedJoin's onto its slots and Spawned's,
#      a spawned task's box, onto its future)
#   4. clippy, warnings promoted to errors
#   5. the bench gates: one table, GATES below, each row a row of
#      e10_bench::GATES and its flags, run by the bench binary at
#      E10_JOBS=4 with each row's seconds and the total. A row fails on
#      a non-zero exit: a failed gate, or a failed `--check FILE`, which
#      runs at FILE's committed scale (the row's default) and requires the
#      document minus its "host" object to equal FILE exactly
#      (bench_perf also holds its densest cell's fastest wall clock per
#      event within 2x of FILE's).
#        row                                   gate
#        bench_perf --check BENCH_perf.json    events, allocs per cell
#        node_agg --check BENCH_node_agg.json  node_agg < extended inter-node
#        degraded --check BENCH_degraded.json  acked bytes survive; idle FT inert
#        nvm_sweep --check BENCH_nvm.json      nvm stall/B < ssd; hybrid >= pure
#        fault_sweep --smoke                   faulted runs verify; crash recovers
#        chaos_soak --smoke                    no schedule silently diverges
#        multi_job                             contention degrades and evicts
#      Worker-count independence is a test in step 2:
#      crates/bench/tests/determinism.rs runs every GATES row (the
#      tables, the figures, the gates and the studies) at smoke scale
#      at 1 and 8 workers and compares the documents minus "host".
#      Then `scripts/results.sh --check multi_job ablation_fd_strategy
#      fig6_collperf_breakdown_nocache`: the paper-scale multi_job
#      output against the committed results/multi_job.txt (under a
#      second), one study through the binary and the pool at paper
#      scale against results/ablation_fd_strategy.txt (about 2 s on 2
#      CPUs), and one paper-scale `collperf` grid, whose third table
#      must equal results/fig6_collperf_breakdown_nocache.txt (this
#      runs results.sh's file -> (row, table) mapping; about 11 s on 2
#      CPUs, the whole step about 13 s)
#   6. repo-benchmark smoke: builds the standalone `benchmark/` crate
#      against this tree (so a rename in crates/ cannot break it
#      unnoticed) and runs all five workloads at 8 ranks; its
#      self-checks exit != 0
#
# Each step prints its wall-clock seconds.
#
# Not run here (each takes minutes and gates nothing in this file):
#   scripts/results.sh [--check]   # rewrite (or diff, exit 1 on drift)
#      every results/<row>.txt from `e10-bench <row>` at its default
#      scale (a figure file from its table of the kernel's row, each
#      kernel run once), ignoring host_secs= lines; about 50 s on 2 CPUs
#      (step 5 checks only multi_job's, ablation_fd_strategy's and fig6's)
# Only syntax-checked (`bash -n`, with the formatting step): it gates
# nothing and takes a workload's run time.
#   scripts/profile.sh <workload> [seconds]   # host profile of one
#      repo-benchmark workload: perf stat + perf record -g with the
#      Firefox-profiler conversion; without `perf`, an LD_PRELOAD
#      SIGPROF sampler + addr2line (self time by function and by
#      source file, untimed set-up and verification dropped; with
#      `--incl REGEX`, the share of samples with a matching frame);
#      without `cc`/`addr2line`, the E10_ALLOC_BT allocation-backtrace
#      recipe
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
scripts/loc.sh
future_sizes() {
  { cargo test -q -p e10-simcore --lib a_spawned_task_holds_its_future_once -- --nocapture
    cargo test -q -p e10-romio --test future_sizes -- --nocapture
    cargo test -q -p e10-romio --test round_state -- --nocapture
  } 2>&1 | grep -e '^future size:' -e '^round state:'
}
future_sizes
cargo test -q -p e10-workloads --test crash_states -- --nocapture 2>&1 | grep -o 'crash states: .*'

perturbation_properties() {
  cargo test -q -p e10-simcore --test perturbation
  cargo test -q -p e10-repro --test properties -- under_perturbed_schedules
}
step perturbation_properties "(budget: 20 s)"

step cargo fmt --all --check
step bash -n scripts/profile.sh
step bash -n scripts/results.sh

unsafe_fence() {
  grep -q '^#!\[deny(unsafe_op_in_unsafe_fn)\]' crates/simcore/src/lib.rs
  ! grep -rnw unsafe crates/simcore/src \
    | grep -v -e '^crates/simcore/src/waker.rs:' -e '^crates/simcore/src/alloc_gauge.rs:' \
        -e '^crates/simcore/src/join.rs:'
}
step unsafe_fence

step cargo clippy --workspace --all-targets -- -D warnings

GATES=(
  "bench_perf --check BENCH_perf.json"
  "node_agg --check BENCH_node_agg.json"
  "degraded --check BENCH_degraded.json"
  "nvm_sweep --check BENCH_nvm.json"
  "fault_sweep --smoke"
  "chaos_soak --smoke"
  "multi_job"
)
gates() {
  local row t
  for row in "${GATES[@]}"; do
    t=$SECONDS
    # Word-splitting $row into the row's name + arguments is the point.
    # shellcheck disable=SC2086
    E10_JOBS=4 target/release/e10-bench $row
    echo "    [$(($SECONDS - t))s] $row"
  done
}
step gates
step scripts/results.sh --check multi_job ablation_fd_strategy fig6_collperf_breakdown_nocache

step bash benchmark/run.sh --smoke

echo "==> ci: all green"
