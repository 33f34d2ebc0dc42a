#!/usr/bin/env bash
# Production vs test lines of Rust source, per file and per crate.
#
#   scripts/loc.sh [path...]      # default: crates/*/src
#
# A file's lines up to its first test module (a `#[cfg(test)]` whose
# next line opens a `mod … {`) are production, the rest are test; a
# `#[cfg(test)]` on a lone item in the middle of production code, or on
# a `mod name;` declaration, does not split the file. A file named
# tests.rs, or under a tests/ directory, is test throughout. `wc -l`
# cannot tell deleted code from code moved into a test module; this
# can. Columns: production, test, path; then
# one total per crate (the directory above src/) and a grand total.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
  set -- crates/*/src
fi

find "$@" -name '*.rs' -print | LC_ALL=C sort | while IFS= read -r f; do
  case "$f" in
    */tests.rs | */tests/*) echo "0 $(wc -l < "$f") $f" ;;
    *)
      awk -v f="$f" '
        !split_at && attr && /^[[:space:]]*(pub(\([a-z]+\))? +)?mod .*\{[[:space:]]*$/ { split_at = attr }
        { attr = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ ? NR : 0 }
        !split_at && /^[[:space:]]*#!\[cfg\(test\)\]/ { split_at = NR }
        END {
          prod = split_at ? split_at - 1 : NR
          print prod, NR - prod, f
        }' "$f"
      ;;
  esac
done | awk '
  {
    printf "%6d %6d  %s\n", $1, $2, $3
    crate = $3
    if (!sub(/\/src\/.*/, "", crate)) sub(/\/[^\/]*$/, "", crate)
    if (!(crate in prod)) order[++n] = crate
    prod[crate] += $1; test[crate] += $2
    all_prod += $1; all_test += $2
  }
  END {
    print "  prod   test"
    for (i = 1; i <= n; i++)
      printf "%6d %6d  %s (crate)\n", prod[order[i]], test[order[i]], order[i]
    printf "%6d %6d  total\n", all_prod, all_test
  }'
