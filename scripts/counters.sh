#!/usr/bin/env bash
# counters.sh — exact pins of the benchmark's deterministic work counters.
#
# Usage: scripts/counters.sh
#
# For each workload in scripts/counters.json, runs
#   bash perfbench/run.sh --workload W --seed 1 --seconds 0 --trace 1
# (one untraced round, then one traced round) and requires each pinned
# counter in the metrics of the run's last JSON line to equal the
# committed value exactly. On a mismatch it prints the measured values
# of the pinned counters and fails.
#
# The pins are raw work counts (§5.2.1 search nodes, cost evaluations
# and recomputes, profiling runs, simulated instructions, cache and
# incremental-store traffic) plus two figure summaries. They repeat
# exactly for a seed, whatever the machine and GOMAXPROCS, so any change
# in them is a change in the work the code does. A change that moves a
# counter on purpose updates scripts/counters.json and gives the reason
# in CHANGES.md. Timer-driven counts (service.flushes) and derived
# ratios are not pinned.
set -euo pipefail
cd "$(dirname "$0")/.."

pins=scripts/counters.json
fail=0
for w in $(jq -r 'keys_unsorted[]' "$pins"); do
    want=$(jq -c --arg w "$w" '.[$w]' "$pins")
    json=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 0 --trace 1 | grep '^{' | tail -n 1)
    got=$(jq -c --argjson want "$want" \
        '.metrics | with_entries(select(.key | in($want)) | .value |= .value)' <<<"$json")
    if jq -e --argjson got "$got" '. == $got' <<<"$want" >/dev/null; then
        echo "counters: $w: $(jq 'length' <<<"$want") pins match"
        continue
    fi
    fail=1
    echo "counters: $w: MISMATCH"
    jq -r --argjson got "$got" 'to_entries[] | select($got[.key] != .value)
        | "  \(.key): pinned \(.value), measured \($got[.key])"' <<<"$want"
    echo "  measured: $got"
done
exit $fail
