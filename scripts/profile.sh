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
# Without `perf` on the PATH (the CI container has none) but with `cc`
# and `addr2line` (it has both), the script samples the workload
# itself: it compiles a small LD_PRELOAD library (source below) that
# takes a `backtrace(3)` on every SIGPROF of a 1 ms `ITIMER_PROF` into
# a static buffer and dumps the stacks with /proc/self/maps at exit,
# runs the benchmark binary under it, and resolves each sample's leaf
# frame against the release line tables: self time by function (the
# innermost inlined one) and by source file, as shares of the samples
# taken. Samples outside the binary are charged to their shared object.
# The dump stays in target/profile/<workload>.samples (one line of
# decimal return addresses per sample, the sampled pc third) for
# inclusive questions. Each table prints its top 30 rows.
#
# With neither, it runs the allocation-backtrace recipe, which needs
# no tool: one plain run of the workload for its result line (host_s,
# allocs, peak_rss_mb), then the matching allocation gate of
# crates/romio/tests/alloc_count.rs under
# `E10_ALLOC_BT=lo:hi RUST_BACKTRACE=1`, which prints a symbolised
# backtrace for every counted allocator call whose ordinal falls in
# [lo, hi) — allocator calls are the other host cost this simulator's
# optimisations have been found by. Set E10_ALLOC_BT yourself to move
# that window (default 0:20; the gates print their totals, so a second
# run can aim at the steady-state tail).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0" >&2
  exit 2
fi
workload=$1
seconds=${2:-20}
args=(--workload "$workload" --seed 0 --seconds "$seconds" --trace 0)
run=(bash benchmark/run.sh "${args[@]}")

# The build run.sh would do, done up front.
target="${CARGO_TARGET_DIR:-$PWD/target}"
CARGO_TARGET_DIR="$target" cargo build --offline --release --quiet \
  --manifest-path benchmark/Cargo.toml

out=target/profile
if command -v perf > /dev/null; then
  mkdir -p "$out"
  echo "==> perf stat -d ${run[*]}" >&2
  perf stat -d -- "${run[@]}"
  echo "==> perf record -g -F 999 -o $out/$workload.perf.data ${run[*]}" >&2
  perf record -g -F 999 -o "$out/$workload.perf.data" -- "${run[@]}"
  echo "For https://profiler.firefox.com (Load a profile from file):"
  echo "  perf script -i $out/$workload.perf.data -F +pid > $out/$workload.perf"
  exit 0
fi

if command -v cc > /dev/null && command -v addr2line > /dev/null; then
  mkdir -p "$out"
  bin="$target/release/e10-benchmark"
  pre="$out/$workload"
  cc -O1 -shared -fPIC -DSAMPLES_OUT="\"$PWD/$pre.samples\"" -o "$out/sampler.so" -x c - << 'SAMPLER'
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <sys/time.h>

#define DEPTH 32
#define SAMPLES (1 << 16)
static void *stacks[SAMPLES][DEPTH];
static int depths[SAMPLES];
static volatile int taken;

/* Frame 0 is this handler, 1 the signal trampoline, 2 the sampled pc. */
static void on_prof(int sig) {
  (void)sig;
  if (taken < SAMPLES) {
    depths[taken] = backtrace(stacks[taken], DEPTH);
    taken++;
  }
}

static void every(long us) {
  struct itimerval it = {{0, us}, {0, us}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void start(void) {
  void *prime[2];
  backtrace(prime, 2); /* loads the unwinder now, not inside the handler */
  struct sigaction sa = {0};
  sa.sa_handler = on_prof;
  sa.sa_flags = SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  every(1000);
}

__attribute__((destructor)) static void dump(void) {
  every(0);
  FILE *out = fopen(SAMPLES_OUT, "w"), *maps = fopen("/proc/self/maps", "r");
  if (!out || !maps) return;
  for (int i = 0; i < taken; i++) {
    for (int d = 0; d < depths[i]; d++) fprintf(out, "%lu ", (unsigned long)stacks[i][d]);
    fputc('\n', out);
  }
  fputs("maps\n", out);
  for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
  fclose(out);
}
SAMPLER
  echo "==> LD_PRELOAD=$out/sampler.so $bin ${args[*]}" >&2
  LD_PRELOAD="$PWD/$out/sampler.so" "$bin" "${args[@]}"

  # The executable mappings as "start end base object", in decimal
  # (mawk reads no hex); an object's base is where its first mapping
  # starts.
  prev=
  sed '1,/^maps$/d' "$pre.samples" | while read -r range perms _ _ _ object; do
    [ -n "$object" ] || continue
    if [ "$object" != "$prev" ]; then
      prev=$object
      base=$((16#${range%-*}))
    fi
    case $perms in
      *x*) echo "$((16#${range%-*})) $((16#${range#*-})) $base $object" ;;
    esac
  done > "$pre.maps"

  # The sampled pc of every sample as "object address-in-object".
  sed '/^maps$/,$d' "$pre.samples" | awk -v maps="$pre.maps" '
    BEGIN {
      while ((getline line < maps) > 0) {
        n++; split(line, m, " ")
        lo[n] = m[1]; hi[n] = m[2]; base[n] = m[3]; object[n] = m[4]
      }
    }
    NF >= 3 {
      for (i = 1; i <= n; i++)
        if ($3 >= lo[i] && $3 < hi[i]) { printf "%s %x\n", object[i], $3 - base[i]; next }
      print "[unmapped] 0"
    }' > "$pre.leaves"
  total=$(wc -l < "$pre.leaves")

  # The binary's own addresses, resolved: "address<TAB>function<TAB>file:line".
  awk -v bin="$bin" '$1 == bin { print $2 }' "$pre.leaves" | sort -u > "$pre.addrs"
  xargs addr2line -f -C -e "$bin" < "$pre.addrs" | paste - - \
    | paste "$pre.addrs" - > "$pre.syms"

  report() { # $1: 2 = by function, 3 = by source file
    awk -F '\t' -v bin="$bin" -v col="$1" -v total="$total" '
      FNR == NR {
        sub(/:[0-9?]+( \(discriminator [0-9]+\))?$/, "", $3)
        sub(/^.*\/crates\//, "crates/", $3)
        sub(/^\/rustc\/[0-9a-f]+\//, "", $3)
        sym[$1] = $col
        next
      }
      {
        split($0, leaf, " ")
        key = leaf[1] == bin ? sym[leaf[2]] : "[" leaf[1] "]"
        count[key]++
      }
      END { for (k in count) printf "%6.2f%%  %s\n", 100 * count[k] / total, k }' \
      "$pre.syms" "$pre.leaves" | sort -rn | head -n 30
  }
  echo "==> $total samples, one per ms of CPU time: self time by function"
  report 2
  echo "==> self time by source file"
  report 3
  exit 0
fi

echo "profile.sh: no \`perf\` and no \`cc\` + \`addr2line\` on this host: the" >&2
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
