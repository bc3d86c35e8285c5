#!/bin/sh
# Counts non-test Rust lines: for every .rs file under crates/ and vendor/
# (integration tests under */tests/ excluded), the lines above its first
# `#[cfg(test)]`, or the whole file when it has none. Prints one subtotal
# line per crate (`crates/<name> N`) and one for `vendor`, then the
# `crates/h2o-exec/src/kernels` subtotal (already part of the h2o-exec
# line, not added again), then the total alone on the last line.
#
# Usage: scripts/nontest_lines.sh [repo-root]   (default: the script's repo)
set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"

# Non-test lines under one directory (xargs may split the file list over
# several awk runs; their counts add).
count() {
    find "$1" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 |
        xargs -0 awk '
            FNR == 1 { counting = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }
        ' |
        awk '{ total += $1 } END { print total + 0 }'
}

total=0
for dir in crates/*/ vendor/; do
    dir=${dir%/}
    n=$(count "$dir")
    printf '%-28s %6d\n' "$dir" "$n"
    total=$((total + n))
done
kernels=crates/h2o-exec/src/kernels
printf '%-28s %6d\n' "$kernels" "$(count "$kernels")"
echo "$total"
