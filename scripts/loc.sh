#!/usr/bin/env bash
# Non-test, non-comment Rust lines per crate (ROADMAP aim 2: "Line count
# per crate is tracked; growth has to be paid for by behaviour").
#
# Counts each crate's src/ tree. A file is cut at its first
# `#[cfg(test)]` line (this workspace keeps unit tests in one trailing
# `mod tests`), then blank lines and `//` comment lines (plain, doc and
# module-doc alike) are dropped. Usage: scripts/loc.sh [repo-root]
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "${root}"

total=0
printf '%-14s %8s\n' "crate" "lines"
for manifest in crates/*/Cargo.toml; do
  dir="$(dirname "${manifest}")"
  name="$(sed -n 's/^name = "\(.*\)"/\1/p' "${manifest}" | head -n 1)"
  lines="$(find "${dir}/src" -name '*.rs' -print0 | sort -z |
    xargs -0 awk '
      FNR == 1 { in_tests = 0 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
      in_tests { next }
      /^[[:space:]]*$/ { next }
      /^[[:space:]]*\/\// { next }
      { n++ }
      END { print n + 0 }')"
  printf '%-14s %8d\n' "${name}" "${lines}"
  total=$((total + lines))
done
printf '%-14s %8d\n' "total" "${total}"
