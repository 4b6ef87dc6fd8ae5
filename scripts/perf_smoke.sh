#!/usr/bin/env bash
# perf_smoke.sh — run the simulate micro-benchmarks and fail on ns/op
# regression against the checked-in baseline.
#
# Compares each simulate benchmark's ns/op to
# scripts/bench_baseline_pr10.json and fails when any exceeds the
# baseline by more than PERF_SMOKE_TOLERANCE percent (default 25). The
# committed baseline was measured on one reference machine; CI runners
# differ in absolute speed, so the tolerance is deliberately loose — the
# gate catches order-of-magnitude mistakes (an accidental O(n^2) walk, a
# dropped fast path), not single-digit drift. Raise the tolerance via
# the environment when a runner class changes.
#
# Only the single-program simulate benchmarks are gated: the batched
# suite benchmarks (BenchmarkRunBatch*) run ~1 s/op, so a benchtime
# window holds 2-3 iterations and a single background hiccup reads as
# a 50% "regression". They stay in scripts/bench.sh for the recorded
# artifact; here they would only produce noise failures.
#
# Each benchmark runs PERF_SMOKE_COUNT times (default 5) and the
# minimum ns/op is compared — the min-of-N estimator from
# EXPERIMENTS.md "Memory-model fast paths": background load only ever
# inflates a run, so the minimum is the least-contended measurement.
#
# Usage: scripts/perf_smoke.sh [output.json]
#   PERF_SMOKE_TOLERANCE=40 PERF_SMOKE_COUNT=3 scripts/perf_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-PERF_SMOKE.json}
benchtime=${BENCHTIME:-1s}
count=${PERF_SMOKE_COUNT:-5}
tolerance=${PERF_SMOKE_TOLERANCE:-25}
baseline=scripts/bench_baseline_pr10.json

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' \
    -bench '^(BenchmarkSimulate|BenchmarkSimulateTree)$' \
    -benchtime "$benchtime" -count "$count" . | tee "$tmp"

# `BenchmarkName-8  N  12345 ns/op ...` -> {"BenchmarkName": min_ns_op, ...}
awk '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 3; i + 1 <= NF; i += 2) {
        if ($(i + 1) == "ns/op" && (!(name in ns) || $i + 0 < ns[name] + 0)) ns[name] = $i
    }
}
END {
    printf "{"
    sep = ""
    for (n in ns) { printf "%s\n  \"%s\": %s", sep, n, ns[n]; sep = "," }
    printf "\n}\n"
}' "$tmp" >"$out"
echo "wrote $out" >&2

jq -n --argjson cur "$(cat "$out")" \
      --argjson base "$(cat "$baseline")" \
      --argjson tol "$tolerance" '
    [ $cur | to_entries[]
      | . as {key: $name, value: $ns}
      | ($base[$name].ns_op // empty) as $b
      | {name: $name, current: $ns, baseline: $b,
         pct: ((($ns - $b) / $b) * 100 | floor)}
    ] as $rows
    | ($rows | map(select(.pct > $tol))) as $bad
    | ($rows[] | "\(.name): \(.current) ns/op vs baseline \(.baseline) (\(.pct)%)"),
      (if ($bad | length) > 0 then
         "FAIL: \($bad | length) benchmark(s) regressed more than \($tol)%\n" | halt_error(1)
       else
         "perf smoke OK (tolerance \($tol)%)"
       end)
' -r
