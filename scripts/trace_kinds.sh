#!/bin/sh
# Prints the per-request-kind span means of a traced bench_suite run: one
# `<kind> <span> <count> <mean_us>` line per (kind, span) pair of the
# trace file's `by_kind` table, e.g. each join_steady kind's `exec.join`.
#
# Make the trace first (from the repo root):
#   cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
#       --workload join_steady --quick --trace 1
#
# Usage: scripts/trace_kinds.sh [workload] [repo-root]
#        (defaults: join_steady, the script's repo)
set -eu
workload=${1:-join_steady}
root=${2:-$(dirname "$0")/..}
jq -r '.by_kind[] | "\(.kind) \(.span) \(.count) \(.mean_us)"' "$root/benchmark/out/trace_$workload.json"
