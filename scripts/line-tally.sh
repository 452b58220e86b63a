#!/usr/bin/env bash
# Print the non-test Rust line tally: the lines before the first
# `#[cfg(test)]` of every `.rs` file under crates/, files under a
# `tests/` directory excluded.
#
# Usage: scripts/line-tally.sh   (no arguments; run from any directory)
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."
find crates -name '*.rs' -not -path '*/tests/*' \
  -exec awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; \
  | awk '{ s += $1 } END { print s }'
