#!/usr/bin/env bash
# Regenerate or check the committed text results. Each results/<bin>.txt
# is the standard output of the bench binary <bin> at its default
# (paper) scale, except the figure files: `figures <kernel>` prints a
# kernel's bandwidth figure and then its breakdowns, each table opened
# by a blank line, and results/fig<N>_*.txt is one of those tables (see
# figure_of). Each kernel's grid runs at most once per invocation.
#
#   scripts/results.sh                     # rewrite every results/*.txt
#   scripts/results.sh --check             # diff each against a fresh run; exit 1 on drift
#   scripts/results.sh [--check] NAME...   # only results/NAME.txt for each NAME
#
# The comparison ignores only `host_secs=` lines (host wall time, which
# no two runs share). The seconds each file took are printed (a figure
# file's include its kernel's run, if it was the first to need it), then
# the total: about 70 s on a 2-CPU host. Workers follow E10_JOBS as in
# every bench binary.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/results.sh [--check] [NAME...]" >&2
  exit 2
}

# The `figures` kernel and the table (1 = the first) that a figure file
# holds; nothing for the files of the other binaries.
figure_of() {
  case $1 in
    fig4_collperf_bw) echo "collperf 1" ;;
    fig5_collperf_breakdown_cache) echo "collperf 2" ;;
    fig6_collperf_breakdown_nocache) echo "collperf 3" ;;
    fig7_flashio_bw) echo "flashio 1" ;;
    fig8_flashio_breakdown) echo "flashio 2" ;;
    fig9_ior_bw) echo "ior 1" ;;
    fig10_ior_breakdown) echo "ior 2" ;;
  esac
}

check=0
if [ "${1-}" = --check ]; then
  check=1
  shift
fi
files=()
for name in "$@"; do
  [[ $name != -* && -f results/$name.txt ]] || usage
  files+=("results/$name.txt")
done
if [ ${#files[@]} -eq 0 ]; then
  files=(results/*.txt)
fi

cargo build -q --release -p e10-bench --bins
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

strip() { grep -v '^host_secs=' "$1" || true; }

# run OUT BIN [ARG...]: BIN's standard output into OUT, or fail loudly.
run() {
  local out=$1 bin=$2
  shift 2
  if ! "target/release/$bin" "$@" >"$out" 2>"$tmp/err"; then
    cat "$tmp/err" >&2
    echo "results.sh: $bin $* failed" >&2
    exit 1
  fi
}

drift=0
t_all=$SECONDS
for file in "${files[@]}"; do
  name=$(basename "$file" .txt)
  t=$SECONDS
  read -r kernel table <<<"$(figure_of "$name")" || true
  if [ -n "$kernel" ]; then
    [ -f "$tmp/$kernel" ] || run "$tmp/$kernel" figures "$kernel"
    awk -v n="$table" '$0 == "" { k++ } k == n' "$tmp/$kernel" >"$tmp/out"
    if [ ! -s "$tmp/out" ]; then
      echo "results.sh: figures $kernel printed no table $table" >&2
      exit 1
    fi
  else
    run "$tmp/out" "$name"
  fi
  if ((check)); then
    if diff <(strip "$file") <(strip "$tmp/out"); then
      status=same
    else
      status=DRIFT
      drift=1
    fi
  else
    cp "$tmp/out" "$file"
    status=written
  fi
  printf '    [%3ds] %-44s %s\n' $((SECONDS - t)) "$file" "$status"
done
echo "    [$((SECONDS - t_all))s] total"
exit "$drift"
