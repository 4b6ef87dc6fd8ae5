#!/usr/bin/env bash
# bench.sh — run the hot-path micro-benchmarks and emit BENCH_pr10.json.
#
# The JSON has two sections:
#   "baseline" — the pre-change numbers committed in
#                scripts/bench_baseline_pr10.json (the PR 9 tree:
#                batched bytecode engine + compilation service, before
#                the memory-model fast paths), kept for the perf
#                trajectory;
#   "current"  — this run of BenchmarkPartitionSearch,
#                BenchmarkCostPropagation, BenchmarkSimulate (bytecode
#                engine), BenchmarkSimulateTree (reference walker —
#                the ratio to BenchmarkSimulate is the engine speedup),
#                BenchmarkRunBatch/{w1,wmax} (suite sweep),
#                BenchmarkPartitionSearchParallel/{serial,w1,
#                w2,w4,w8}, BenchmarkCompile/{serial,w8} and
#                BenchmarkCompileIncremental/{cold,warm,one-dirty-loop}
#                (ns/op, B/op, allocs/op, plus reported metrics such as
#                search_nodes and sim_instructions).
#
# Parallel-search and batch-scheduler scaling is only visible with
# GOMAXPROCS > 1; on a single-core runner the wN sub-benchmarks measure
# coordination overhead (search also keeps its shared-bound pruning win).
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=2s COUNT=1 scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-BENCH_pr10.json}
benchtime=${BENCHTIME:-2s}
count=${COUNT:-1}
baseline=scripts/bench_baseline_pr10.json

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' \
    -bench '^(BenchmarkPartitionSearch|BenchmarkCostPropagation|BenchmarkSimulate|BenchmarkSimulateTree|BenchmarkRunBatch|BenchmarkPartitionSearchParallel|BenchmarkCompile|BenchmarkCompileIncremental)$' \
    -benchmem -benchtime "$benchtime" -count "$count" . | tee "$tmp"

# Parse `BenchmarkName-8  N  v1 unit1  v2 unit2 ...` lines into a JSON
# object; repeated names (COUNT>1) keep the last measurement.
parse() {
    awk '
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        body = "    \"iterations\": " $2
        for (i = 3; i + 1 <= NF; i += 2) {
            unit = $(i + 1); gsub(/\//, "_", unit)
            body = body ",\n    \"" unit "\": " $i
        }
        entries[name] = body
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    }
    END {
        printf "{\n"
        for (i = 1; i <= n; i++) {
            printf "  \"%s\": {\n%s\n  }%s\n", order[i], entries[order[i]], (i < n ? "," : "")
        }
        printf "}\n"
    }' "$1"
}

current=$(parse "$tmp")
if [ -f "$baseline" ]; then
    base=$(cat "$baseline")
else
    echo "warning: $baseline missing; using this run as its own baseline" >&2
    base=$current
fi

{
    echo '{'
    echo '  "benchmarks": ["BenchmarkPartitionSearch", "BenchmarkCostPropagation", "BenchmarkSimulate", "BenchmarkSimulateTree", "BenchmarkRunBatch", "BenchmarkPartitionSearchParallel", "BenchmarkCompile", "BenchmarkCompileIncremental"],'
    echo "  \"baseline\": $(echo "$base" | sed 's/^/  /' | sed '1s/^  //'),"
    echo "  \"current\": $(echo "$current" | sed 's/^/  /' | sed '1s/^  //')"
    echo '}'
} >"$out"
echo "wrote $out" >&2
