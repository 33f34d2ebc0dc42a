#!/usr/bin/env bash
# Where does a repo-benchmark workload spend its host time, and where
# does it allocate? (ROADMAP item 1; the perf recipe is llfree-rs's, see
# SNIPPETS.md.)
#
#   scripts/profile.sh <workload> [seconds]              # seconds: default 20
#   scripts/profile.sh --allocs N <workload> [seconds]   # allocation sites
#   scripts/profile.sh --incl REGEX ... <workload> [seconds]
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
# Like `--allocs` below, the tables count only what `host_s` times: a
# sample whose stack passes through the set-up burst or the
# verification is dropped, and the script prints how many were. The
# dump stays in target/profile/<workload>.samples (one line of decimal
# return addresses per sample, the sampled pc third). Each table prints
# its top 30 rows.
#
# `--incl REGEX` (repeatable; takes the sampler path even where `perf`
# exists) adds one line per REGEX after the tables: the share of the
# counted samples whose stack has a frame, inlined ones included
# (`addr2line -i`), whose function matches REGEX (an awk ERE over
# demangled names), e.g. `--incl 'FsState|FsServe|fs_timer_fired'`
# for everything under `FairShare`. With `--allocs` the share is of the
# counted allocation stacks.
#
# `--allocs N` (needs `cc` and `addr2line`, with or without `perf`)
# builds the same library to interpose `malloc` and `realloc` instead:
# every call is counted and every N-th takes a `backtrace(3)` from
# inside the allocator. Each sampled stack is expanded through the
# inlining records (`addr2line -i`) and charged to its innermost frame
# in a `crates/` source file — the counting allocator's own frame
# excepted — and, in a second table, to that frame's caller, one
# enclosing frame further out. The tables show what the benchmark's
# `allocs` metric counts: a stack that passes through the set-up burst
# (`e10_benchmark::run::set_up`, `e10_benchmark::workloads::inputs`)
# or the byte verification (`e10_benchmark::workloads::untimed`), both
# outside the timed window, is dropped, and the script prints how many
# were. The call count is the whole process's, and the buffer holds
# 65 536 stacks, so pick N above calls / 65 536 (a 3 s run of
# `collperf_direct` makes about 1.2 M calls: `--allocs 31`); the script
# says when it filled. The dump stays in
# target/profile/<workload>.allocs.
#
# With neither tool, it runs the allocation-backtrace recipe, which
# needs none: one plain run of the workload for its result line
# (host_s, allocs, peak_rss_mb), then the matching allocation gate of
# crates/romio/tests/alloc_count.rs under
# `E10_ALLOC_BT=lo:hi RUST_BACKTRACE=1`, which prints a symbolised
# backtrace for every counted allocator call whose ordinal falls in
# [lo, hi) — allocator calls are the other host cost this simulator's
# optimisations have been found by. Set E10_ALLOC_BT yourself to move
# that window (default 0:20; the gates print their totals, so a second
# run can aim at the steady-state tail).
set -euo pipefail
cd "$(dirname "$0")/.."

every=
incl=()
while [ $# -gt 0 ]; do
  case $1 in
    --allocs)
      every=${2:-}
      case $every in
        '' | *[!0-9]* | 0) echo "profile.sh: --allocs takes a positive count" >&2; exit 2 ;;
      esac
      shift 2
      ;;
    --incl)
      [ -n "${2:-}" ] || { echo "profile.sh: --incl takes a regex" >&2; exit 2; }
      incl+=("$2")
      shift 2
      ;;
    *) break ;;
  esac
done
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
if [ -z "$every" ] && [ ${#incl[@]} -eq 0 ] && command -v perf > /dev/null; then
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
  if [ -n "$every" ]; then
    dump="$pre.allocs"
    mode=(-DALLOC_EVERY="$every")
  else
    dump="$pre.samples"
    mode=()
  fi
  cc -O1 -shared -fPIC -DSAMPLES_OUT="\"$PWD/$dump\"" "${mode[@]}" -o "$out/sampler.so" -x c - << 'SAMPLER'
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stddef.h>
#include <stdio.h>
#include <sys/time.h>

#define DEPTH 32
#define SAMPLES (1 << 16)
static void *stacks[SAMPLES][DEPTH];
static int depths[SAMPLES];
static volatile int taken;

#ifdef ALLOC_EVERY
/* Every ALLOC_EVERY-th malloc/realloc records the stack it was called
   from (frame 0 is the interposer). glibc's own entry points serve the
   call, so nothing has to be looked up before the first one. */
extern void *__libc_malloc(size_t);
extern void *__libc_realloc(void *, size_t);
static unsigned long calls;
static __thread int busy;

static void note(void) {
  if (busy || __atomic_fetch_add(&calls, 1, __ATOMIC_RELAXED) % ALLOC_EVERY) return;
  int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  if (i >= SAMPLES) return;
  busy = 1; /* backtrace may allocate */
  depths[i] = backtrace(stacks[i], DEPTH);
  busy = 0;
}

void *malloc(size_t n) {
  note();
  return __libc_malloc(n);
}

void *realloc(void *p, size_t n) {
  note();
  return __libc_realloc(p, n);
}

static void every(long us) { (void)us; }
#else
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
#endif

__attribute__((constructor)) static void start(void) {
  void *prime[2];
  backtrace(prime, 2); /* loads the unwinder now, not inside a sample */
#ifndef ALLOC_EVERY
  struct sigaction sa = {0};
  sa.sa_handler = on_prof;
  sa.sa_flags = SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
#endif
  every(1000);
}

__attribute__((destructor)) static void dump(void) {
  every(0);
  FILE *out = fopen(SAMPLES_OUT, "w"), *maps = fopen("/proc/self/maps", "r");
  if (!out || !maps) return;
#ifdef ALLOC_EVERY
  fprintf(out, "calls %lu every %d\n", calls, ALLOC_EVERY);
#endif
  int n = taken < SAMPLES ? taken : SAMPLES;
  for (int i = 0; i < n; i++) {
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
  sed '1,/^maps$/d' "$dump" | while read -r range perms _ _ _ object; do
    [ -n "$object" ] || continue
    if [ "$object" != "$prev" ]; then
      prev=$object
      base=$((16#${range%-*}))
    fi
    case $perms in
      *x*) echo "$((16#${range%-*})) $((16#${range#*-})) $base $object" ;;
    esac
  done > "$pre.maps"

  # The dump's stacks, one a line: an allocation stack's frame 0 is the
  # interposer (after a header line), a CPU sample's frames 0 and 1 are
  # the handler and the signal trampoline and frame 2 the sampled pc.
  if [ -n "$every" ]; then
    stacks() { sed '1d;/^maps$/,$d' "$dump"; }
    first=2 pc=0
  else
    stacks() { sed '/^maps$/,$d' "$dump"; }
    first=3 pc=3
  fi
  sampled=$(stacks | wc -l)

  # Every frame of every stack that lies in the binary, as "sample
  # address-in-binary", innermost first; a return address less one,
  # so that it resolves to the call and not to what follows it.
  stacks | awk -v maps="$pre.maps" -v bin="$bin" -v first="$first" -v pc="$pc" '
    BEGIN {
      while ((getline line < maps) > 0) {
        split(line, m, " ")
        if (m[4] == bin) { n++; lo[n] = m[1]; hi[n] = m[2]; base[n] = m[3] }
      }
    }
    {
      for (f = first; f <= NF; f++)
        for (i = 1; i <= n; i++)
          if ($f >= lo[i] && $f < hi[i]) { printf "%d %x\n", NR, $f - base[i] - (f != pc); break }
    }' > "$pre.frames"

  # Each address's inlining chain, innermost first:
  # "address<TAB>function<TAB>file:line", one line per frame.
  awk '{ print $2 }' "$pre.frames" | sort -u | sed 's/^/0x/' > "$pre.addrs"
  addr2line -a -i -f -C -e "$bin" < "$pre.addrs" | awk '
    /^0x/ { addr = $0; sub(/^0x0*/, "", addr); fn = ""; next }
    fn == "" { fn = $0; next }
    {
      file = $0
      sub(/ \(discriminator [0-9]+\)$/, "", file)
      sub(/^.*\/crates\//, "crates/", file)
      sub(/^\/rustc\/[0-9a-f]+\//, "", file)
      printf "%s\t%s\t%s\n", addr, fn, file
      fn = ""
    }' > "$pre.chains"

  # The samples with a frame whose function matches $1, one a line.
  matching() {
    awk -F '\t' -v fn="$1" '$2 ~ fn { print $1 }' "$pre.chains" > "$pre.match"
    awk 'FILENAME == ARGV[1] { hit[$1] = 1; next } $2 in hit { print $1 }' \
      "$pre.match" "$pre.frames" | sort -u
  }

  # Drop what the `host_s` and `allocs` metrics never see: any stack
  # that passes through the set-up burst or the verification.
  matching 'e10_benchmark::(run::set_up|workloads::(inputs|untimed))' > "$pre.dropped"
  awk 'FILENAME == ARGV[1] { drop[$1] = 1; next } !($1 in drop)' "$pre.dropped" "$pre.frames" > "$pre.kept"
  dropped=$(wc -l < "$pre.dropped")
  kept=$((sampled - dropped))

  # One line per --incl REGEX: the share of the kept stacks with a
  # frame whose function matches it.
  inclusive() {
    [ ${#incl[@]} -gt 0 ] || return 0
    echo "==> inclusive: the share of those $kept with a matching frame"
    local re hits
    for re in "${incl[@]}"; do
      hits=$(matching "$re" | awk 'FILENAME == ARGV[1] { drop[$1] = 1; next } !($1 in drop)' "$pre.dropped" - | wc -l)
      awk -v h="$hits" -v t="$kept" -v re="$re" 'BEGIN { printf "%6.2f%%  %s\n", 100 * h / t, re }'
    done
  }

  if [ -n "$every" ]; then
    read -r _ calls _ _ < "$dump"
    # col 1: the innermost crates/ frame of each sample; col 2: the
    # frame that encloses it. (The tables end in `awk 'NR <= 30'`, not
    # `head`, which would leave `sort` to die of SIGPIPE under
    # pipefail once a table outgrows the pipe.)
    report() {
      awk -F '\t' -v col="$1" -v total="$kept" '
        FNR == NR { k = ++len[$1]; fn[$1, k] = $2; at[$1, k] = $3; next }
        function close_sample() {
          if (sample == "") return
          key = "[no crates/ frame]"
          for (i = 1; i <= depth; i++) {
            if (cf[i] ~ /^crates\// && cf[i] !~ /alloc_gauge\.rs/) {
              j = i + col - 1
              key = j <= depth ? cn[j] "  " cf[j] : "[outermost frame]"
              break
            }
          }
          count[key]++
          depth = 0
        }
        {
          split($0, s, " ")
          if (s[1] != sample) { close_sample(); sample = s[1] }
          for (k = 1; k <= len[s[2]]; k++) { depth++; cn[depth] = fn[s[2], k]; cf[depth] = at[s[2], k] }
        }
        END {
          close_sample()
          for (k in count) printf "%6.2f%%  %s\n", 100 * count[k] / total, k
        }' "$pre.chains" "$pre.kept" | sort -rn | awk 'NR <= 30'
    }
    if [ "$sampled" -ge 65536 ]; then
      echo "profile.sh: the buffer filled after $((65536 * every)) of $calls calls;" \
        "the tables cover those only (raise N)" >&2
    fi
    echo "==> $sampled stacks, one per $every of $calls allocator calls;" \
      "$dropped under the set-up burst or the verification dropped"
    echo "==> the other $kept: by innermost crates/ frame"
    report 1
    echo "==> by the frame that encloses it"
    report 2
    inclusive
    exit 0
  fi

  # The sampled pc of every kept sample as "object address-in-object".
  stacks | awk -v maps="$pre.maps" -v dropped="$pre.dropped" '
    BEGIN {
      while ((getline line < dropped) > 0) drop[line] = 1
      while ((getline line < maps) > 0) {
        n++; split(line, m, " ")
        lo[n] = m[1]; hi[n] = m[2]; base[n] = m[3]; object[n] = m[4]
      }
    }
    !(NR in drop) {
      for (i = 1; i <= n; i++)
        if ($3 >= lo[i] && $3 < hi[i]) { printf "%s %x\n", object[i], $3 - base[i]; next }
      print "[unmapped] 0"
    }' > "$pre.leaves"

  # The binary's own addresses, resolved: "address<TAB>function<TAB>file:line".
  awk -v bin="$bin" '$1 == bin { print $2 }' "$pre.leaves" | sort -u > "$pre.addrs"
  xargs addr2line -f -C -e "$bin" < "$pre.addrs" | paste - - \
    | paste "$pre.addrs" - > "$pre.syms"

  report() { # $1: 2 = by function, 3 = by source file
    awk -F '\t' -v bin="$bin" -v col="$1" -v total="$kept" '
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
      "$pre.syms" "$pre.leaves" | sort -rn | awk 'NR <= 30'
  }
  echo "==> $sampled samples, one per ms of CPU time;" \
    "$dropped under the set-up burst or the verification dropped"
  echo "==> the other $kept: self time by function"
  report 2
  echo "==> self time by source file"
  report 3
  inclusive
  exit 0
fi

if [ -n "$every" ]; then
  echo "profile.sh: --allocs needs \`cc\` and \`addr2line\`" >&2
  exit 2
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
