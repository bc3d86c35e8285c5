#!/bin/sh
# Counts non-test Rust lines: for every .rs file under crates/ and vendor/
# (integration tests under */tests/ excluded), the lines above its first
# `#[cfg(test)]`, or the whole file when it has none. Prints the total
# (xargs may split the file list over several awk runs; their counts add).
#
# Usage: scripts/nontest_lines.sh [repo-root]   (default: the script's repo)
set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"
find crates vendor -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' |
    awk '{ total += $1 } END { print total + 0 }'
