#!/usr/bin/env bash
# perf_gate.sh — same-runner relative timing check of the simulator and
# the partition search: BenchmarkSimulate, BenchmarkPartitionSearch and
# BenchmarkPartitionSearchParallel/serial at HEAD against a base commit.
#
# Usage: scripts/perf_gate.sh BASE
#   scripts/perf_gate.sh HEAD^
#   scripts/perf_gate.sh "$(git merge-base origin/main HEAD)"
#
# Builds the root package's test binary from the committed files of BASE
# and of HEAD (temporary worktrees, scripts/worktrees.sh), then runs
#   BINARY -test.run '^$' -test.bench PATTERN -test.benchtime 1s -test.timeout 5m
# for each of the two patterns below from the two binaries alternately,
# pairs times each, switching which side runs first from pair to pair.
# (A pattern with a sub-benchmark level skips the benchmarks that have
# no sub-benchmarks, so the serial sub-benchmark gets its own run.)
# BenchmarkPartitionSearch is one 844-node search of a small loop;
# BenchmarkPartitionSearchParallel/serial is the wide-fan search of the
# `search` workload, whose time goes to walker push/pop as well as to
# cost evaluation.
#
# Background load only ever inflates a run, so the lower quartile of
# each side's ns/op per benchmark comes from the quieter runs, yet no
# single quiet run sets it, as it sets a minimum. The check fails when
# HEAD's lower quartile exceeds BASE's by more than the tolerance on any
# benchmark. Both constants were set from A/A runs (one binary against a
# copy of itself) on a shared 2-CPU VM: over every window of 15
# consecutive pairs in four 20-pair series, the two lower quartiles
# differed by at most 1.124x on any of the three benchmarks; with 10
# pairs they reached 1.229x, and the two minima 1.392x. EXPERIMENTS.md
# "Perf gate" has the data.
#
# Machine speed cancels out: both sides run on the same runner, in the
# same minutes. The deterministic work behind the timing (search nodes,
# cost evaluations, simulated instructions) is pinned exactly by
# scripts/counters.sh; this check covers what counters cannot see, a
# constant-factor slowdown of the same work.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)

pairs=15
tolerance=1.18 # max HEAD/BASE ratio of the per-side lower-quartile ns/op
names=(BenchmarkSimulate BenchmarkPartitionSearch BenchmarkPartitionSearchParallel/serial)
patterns=('^(BenchmarkSimulate|BenchmarkPartitionSearch)$' '^BenchmarkPartitionSearchParallel$/^serial$')

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
    (cd "$tmp/$1" && for p in "${patterns[@]}"; do
        "$tmp/$1.test" -test.run '^$' -test.bench "$p" -test.benchtime 1s -test.timeout 5m || exit
    done) >"$tmp/out.txt" &
    wait $!
    awk -v side="$1" -v pair="$2" -v tsv="$tmp/ns.tsv" -v want="${#names[@]}" '
        $1 ~ /^Benchmark(Simulate|PartitionSearch|PartitionSearchParallel\/serial)(-[0-9]+)?$/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            printf "%s\t%s\t%s\n", name, side, $3 >>tsv
            printf "pair %2d %-4s %-40s %10.3f ms/op\n", pair, side, name, $3 / 1e6
            found++
        }
        END { if (found != want) { print "perf gate: " side " run printed " found + 0 " of " want " ns/op lines" >"/dev/stderr"; exit 1 } }' "$tmp/out.txt"
}

echo "perf gate: ${names[*]}, $(git rev-parse --short "$base_rev") (base) vs $(git rev-parse --short "$head_rev") (head), $pairs pairs"
: >"$tmp/ns.tsv"
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order=(base head); else order=(head base); fi
    for side in "${order[@]}"; do
        run "$side" "$i"
    done
done

# The lower quartile interpolates linearly between order statistics, as
# scripts/ab.sh does.
sort -t $'\t' -k1,1 -k2,2 -k3,3g "$tmp/ns.tsv" | awk -F'\t' -v tol="$tolerance" -v names="${names[*]}" '
    { k = $1 SUBSEP $2; x[k, ++cnt[k]] = $3 + 0 }
    function q1(k,   h, lo) {
        h = 1 + (cnt[k] - 1) * 0.25; lo = int(h)
        return lo >= cnt[k] ? x[k, cnt[k]] : x[k, lo] + (h - lo) * (x[k, lo + 1] - x[k, lo])
    }
    END {
        fail = 0
        n = split(names, b, " ")
        for (i = 1; i <= n; i++) {
            base = q1(b[i] SUBSEP "base")
            head = q1(b[i] SUBSEP "head")
            ratio = head / base
            printf "%s lower-quartile ms/op: base %.3f, head %.3f; head/base %.3f (tolerance %.2f)\n",
                b[i], base / 1e6, head / 1e6, ratio, tol
            if (ratio > tol) { print "FAIL: " b[i] " slowed down beyond the tolerance"; fail = 1 }
        }
        if (fail) exit 1
        print "perf gate OK"
    }'
