#!/usr/bin/env bash
# Non-test, non-comment Rust lines per crate (ROADMAP aim 2: "Line count
# per crate is tracked; growth has to be paid for by behaviour").
#
# Counts each crate's src/ tree, then the vendored stand-ins' src/ trees
# as one `vendor` row. A file is cut at its first
# `#[cfg(test)]` line (this workspace keeps unit tests in one trailing
# `mod tests`), then blank lines and `//` comment lines (plain, doc and
# module-doc alike) are dropped. Each crate's delta is against
# scripts/loc_baseline.txt, the table committed at the previous PR's
# head (`-` for a crate the baseline lacks); refresh the baseline as the
# last step of a PR with `scripts/loc.sh | awk '{print $1, $2}' >
# scripts/loc_baseline.txt`. Usage: scripts/loc.sh [repo-root]
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "${root}"

# delta NAME LINES: signed growth of NAME against the baseline.
delta() {
  local base
  base="$(awk -v name="$1" '$1 == name { print $2 }' scripts/loc_baseline.txt 2>/dev/null)"
  if [ -n "${base}" ]; then printf '%+d' "$(($2 - base))"; else printf '%s' '-'; fi
}

# count DIR...: counted lines of every .rs file under the given trees.
count() {
  find "$@" -name '*.rs' -print0 | sort -z |
    xargs -0 awk '
      FNR == 1 { in_tests = 0 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
      in_tests { next }
      /^[[:space:]]*$/ { next }
      /^[[:space:]]*\/\// { next }
      { n++ }
      END { print n + 0 }'
}

# row NAME LINES: one table line.
row() { printf '%-14s %8d %8s\n' "$1" "$2" "$(delta "$1" "$2")"; }

total=0
printf '%-14s %8s %8s\n' "crate" "lines" "delta"
for manifest in crates/*/Cargo.toml; do
  name="$(sed -n 's/^name = "\(.*\)"/\1/p' "${manifest}" | head -n 1)"
  lines="$(count "$(dirname "${manifest}")/src")"
  row "${name}" "${lines}"
  total=$((total + lines))
done
row total "${total}"
# Vendored code is this repository's code too, but not a workspace
# crate: its own row, outside the crates' total.
row vendor "$(count vendor/*/src)"
