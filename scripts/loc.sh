#!/usr/bin/env bash
# Counts non-test Rust lines, the number the ROADMAP's line budgets use.
#
#   scripts/loc.sh          # prints the total
#
# Definition: every `*.rs` file under `crates/*/src`, `crates/*/benches`,
# `src/` and `examples/`, counted line by line (blank and comment lines
# included) up to, not including, the first line that is exactly
# `#[cfg(test)]` (surrounding whitespace allowed). Integration tests
# (`tests/`, `crates/*/tests`), the dibs-lint fixtures
# (`crates/lint/fixtures`) and the separate `perfbench/` workspace are
# not counted.

set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src crates/*/benches src examples -name '*.rs' -type f 2>/dev/null |
    while IFS= read -r f; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { exit } { n++ } END { print n + 0 }' "$f")
        echo "$n"
    done |
    awk '{ total += $1 } END { print total + 0 }'
