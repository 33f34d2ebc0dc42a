#!/usr/bin/env bash
# Regenerate or check the committed text results. Each results/<bin>.txt
# is the standard output of the bench binary <bin> at its default
# (paper) scale.
#
#   scripts/results.sh                     # rewrite every results/*.txt
#   scripts/results.sh --check             # diff each against a fresh run; exit 1 on drift
#   scripts/results.sh [--check] BIN...    # only results/BIN.txt for each BIN
#
# The comparison ignores only `host_secs=` lines (host wall time, which
# no two runs share). The seconds each file took are printed, then the
# total: about 110 s on a 2-CPU host. Workers follow E10_JOBS as in every
# bench binary.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/results.sh [--check] [BIN...]" >&2
  exit 2
}

check=0
if [ "${1-}" = --check ]; then
  check=1
  shift
fi
files=()
for bin in "$@"; do
  [[ $bin != -* && -f results/$bin.txt ]] || usage
  files+=("results/$bin.txt")
done
if [ ${#files[@]} -eq 0 ]; then
  files=(results/*.txt)
fi

cargo build -q --release -p e10-bench --bins
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

strip() { grep -v '^host_secs=' "$1" || true; }

drift=0
t_all=$SECONDS
for file in "${files[@]}"; do
  bin=$(basename "$file" .txt)
  t=$SECONDS
  if ! "target/release/$bin" >"$tmp/out" 2>"$tmp/err"; then
    cat "$tmp/err" >&2
    echo "results.sh: $bin failed" >&2
    exit 1
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
