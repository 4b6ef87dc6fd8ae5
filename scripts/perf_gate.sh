#!/usr/bin/env bash
# perf_gate.sh — same-runner relative timing check of the simulator and
# the partition search: BenchmarkSimulate and BenchmarkPartitionSearch at
# HEAD against a base commit.
#
# Usage: scripts/perf_gate.sh BASE
#   scripts/perf_gate.sh HEAD^
#   scripts/perf_gate.sh "$(git merge-base origin/main HEAD)"
#
# Builds the root package's test binary from the committed files of BASE
# and of HEAD (temporary worktrees, scripts/worktrees.sh), then runs
#   BINARY -test.run '^$' -test.bench '^(BenchmarkSimulate|BenchmarkPartitionSearch)$' \
#       -test.benchtime 1s -test.timeout 5m
# from the two binaries alternately, pairs times each, switching which
# side runs first from pair to pair. Background load only ever inflates a
# run, so each side's minimum ns/op per benchmark is its least-contended
# measurement. The check fails when HEAD's minimum exceeds BASE's by more
# than the tolerance on either benchmark. Both constants were set from
# A/A runs (one binary against a copy of itself) on a shared 2-CPU VM:
# over 55 windows of 10 pairs, the two BenchmarkSimulate minima differed
# by up to 19.5%, because one unusually fast run on one side sets its
# minimum; BenchmarkPartitionSearch spread less. EXPERIMENTS.md "Perf
# gate" has the data.
#
# Machine speed cancels out: both sides run on the same runner, in the
# same minutes. The deterministic work behind the timing (search nodes,
# cost evaluations, simulated instructions) is pinned exactly by
# scripts/counters.sh; this check covers what counters cannot see, a
# constant-factor slowdown of the same work.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)

pairs=10
tolerance=1.25 # max HEAD/BASE ratio of the per-side minimum ns/op

if [[ $# -ne 1 ]]; then
    sed -n '2,7p' "$0" >&2
    exit 2
fi
base_rev=$(git rev-parse --verify "$1^{commit}")
head_rev=$(git rev-parse --verify HEAD)

source scripts/worktrees.sh
worktrees "$base_rev" "$head_rev"

for side in base head; do
    (cd "$tmp/$side" && go test -c -o "$tmp/$side.test" .)
done

# run SIDE PAIR runs the benchmarks once from SIDE's binary, appends
# "BENCH<TAB>SIDE<TAB>ns/op" to ns.tsv and prints the times.
run() {
    # In the background, so that a signal interrupts the wait at once.
    (cd "$tmp/$1" && exec "$tmp/$1.test" -test.run '^$' \
        -test.bench '^(BenchmarkSimulate|BenchmarkPartitionSearch)$' \
        -test.benchtime 1s -test.timeout 5m) >"$tmp/out.txt" &
    wait $!
    awk -v side="$1" -v pair="$2" -v tsv="$tmp/ns.tsv" '
        $1 ~ /^Benchmark(Simulate|PartitionSearch)(-[0-9]+)?$/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            printf "%s\t%s\t%s\n", name, side, $3 >>tsv
            printf "pair %2d %-4s %-24s %10.3f ms/op\n", pair, side, name, $3 / 1e6
            found++
        }
        END { if (found != 2) { print "perf gate: " side " run printed " found + 0 " of 2 ns/op lines" >"/dev/stderr"; exit 1 } }' "$tmp/out.txt"
}

echo "perf gate: BenchmarkSimulate and BenchmarkPartitionSearch, $(git rev-parse --short "$base_rev") (base) vs $(git rev-parse --short "$head_rev") (head), $pairs pairs"
: >"$tmp/ns.tsv"
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order=(base head); else order=(head base); fi
    for side in "${order[@]}"; do
        run "$side" "$i"
    done
done

awk -F'\t' -v tol="$tolerance" '
    { k = $1 SUBSEP $2 }
    !(k in min) || $3 + 0 < min[k] { min[k] = $3 + 0 }
    END {
        fail = 0
        n = split("BenchmarkSimulate BenchmarkPartitionSearch", names, " ")
        for (i = 1; i <= n; i++) {
            b = names[i]
            ratio = min[b, "head"] / min[b, "base"]
            printf "%s min ms/op: base %.3f, head %.3f; head/base %.3f (tolerance %.2f)\n",
                b, min[b, "base"] / 1e6, min[b, "head"] / 1e6, ratio, tol
            if (ratio > tol) { print "FAIL: " b " slowed down beyond the tolerance"; fail = 1 }
        }
        if (fail) exit 1
        print "perf gate OK"
    }' "$tmp/ns.tsv"
