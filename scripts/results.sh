#!/usr/bin/env bash
# Regenerate or check the committed text results. Each results/<row>.txt
# is the standard output of `e10-bench <row>`, the bench binary running
# the row <row> of e10_bench::GATES at its default (paper) scale, except
# the figure files: a kernel's row (collperf, flashio, ior) prints its
# bandwidth figure and then its breakdowns, each table opened by a blank
# line, and results/fig<N>_*.txt is one of those tables (see figure_of).
# Each kernel's grid runs at most once per invocation.
#
#   scripts/results.sh                     # rewrite every results/*.txt
#   scripts/results.sh --check             # diff each against a fresh run; exit 1 on drift
#   scripts/results.sh [--check] NAME...   # only results/NAME.txt for each NAME
#
# The comparison ignores only `host_secs=` lines (host wall time, which
# no two runs share). The seconds each file took are printed (a figure
# file's include its kernel's run, if it was the first to need it), then
# the total: about 50 s on a 2-CPU host. Workers follow E10_JOBS as in
# every experiment.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/results.sh [--check] [NAME...]" >&2
  exit 2
}

# The figure row and the table (1 = the first) that a figure file
# holds; nothing for the files of the other rows.
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

cargo build -q --release -p e10-bench
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

strip() { grep -v '^host_secs=' "$1" || true; }

# run OUT ROW: the row's standard output into OUT, or fail loudly.
run() {
  if ! target/release/e10-bench "$2" >"$1" 2>"$tmp/err"; then
    cat "$tmp/err" >&2
    echo "results.sh: e10-bench $2 failed" >&2
    exit 1
  fi
}

drift=0
t_all=$SECONDS
for file in "${files[@]}"; do
  name=$(basename "$file" .txt)
  t=$SECONDS
  read -r row table <<<"$(figure_of "$name")" || true
  if [ -n "$row" ]; then
    [ -f "$tmp/$row" ] || run "$tmp/$row" "$row"
    awk -v n="$table" '$0 == "" { k++ } k == n' "$tmp/$row" >"$tmp/out"
    if [ ! -s "$tmp/out" ]; then
      echo "results.sh: e10-bench $row printed no table $table" >&2
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
