#!/usr/bin/env bash
# Net Rust line count of the working tree against a base revision, from
# `git diff --numstat`, split into source (`crates/*/src`, `shims/*/src`),
# tests (`tests/`, `crates/*/tests`) and other `.rs` files. New files
# count once they are staged (`git add -A`).
# Usage: scripts/net_lines.sh <base-rev>
set -euo pipefail
if [ $# -ne 1 ]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
git diff --numstat --no-renames "$1" -- '*.rs' | awk '
  {
    if ($3 ~ /^(crates|shims)\/[^\/]+\/src\//) k = "source"
    else if ($3 ~ /^(crates\/[^\/]+\/)?tests\//) k = "tests"
    else k = "other"
    add[k] += $1; del[k] += $2
  }
  END {
    printf "%-7s %8s %8s %8s\n", "", "added", "removed", "net"
    split("source tests other", kinds, " ")
    for (i = 1; i <= 3; i++) {
      k = kinds[i]
      printf "%-7s %8d %8d %+8d\n", k, add[k], del[k], add[k] - del[k]
      ta += add[k]; td += del[k]
    }
    printf "%-7s %8d %8d %+8d\n", "total", ta, td, ta - td
  }'
