#!/usr/bin/env bash
# ab.sh — interleaved same-machine A/B of the repository benchmark:
# a base commit against HEAD.
#
# Usage: scripts/ab.sh BASE [workload...]
#   scripts/ab.sh HEAD~1                  # every workload in BENCHMARK.json
#   AB_PAIRS=10 AB_SEED=2 scripts/ab.sh main suite
#   AB_TRACE=1 scripts/ab.sh main suite   # per-layer rows from traced runs
#
# Checks out the committed files of BASE and HEAD into temporary git
# worktrees outside the repository (scripts/worktrees.sh), then runs
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace T
# in both, with S the run_seconds of BENCHMARK.json, one seed per pair,
# switching which side runs first from pair to pair. Each side builds
# from its own checkout on its first run.
#
# Prints, per workload, one row per end-to-end metric of BENCHMARK.json
# that the workload reports: each side's median [q1, q3], the pairs the
# change won (ties count for neither side), and the ratio of medians,
# oriented so that above 1× is better. "gain" marks a metric the change
# won in at least nine tenths of the pairs by more than the base's
# interquartile range; "OUT OF BOUND" marks a change median worse than
# the base median by more than the metric's bound. Runs that exit
# non-zero are listed after the table.
#
# With AB_TRACE=1 the runs pass --trace 1, which reports the per-layer
# metrics of BENCHMARK.json in place of the end-to-end ones; the table
# then has one row per per-layer metric the runs report, with the same
# columns but no gain or bound flag.
#
# Environment: AB_PAIRS (default 10) pairs per workload; AB_SEED (default
# 1) the first seed; AB_TRACE (default 0) the --trace value. On exit,
# also on a signal, the script kills the runs it started and removes the
# worktrees.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)

if [[ $# -lt 1 ]]; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
base_rev=$(git rev-parse --verify "$1^{commit}")
head_rev=$(git rev-parse --verify HEAD)
shift
bench=$repo/BENCHMARK.json
if [[ $# -gt 0 ]]; then
    workloads=("$@")
else
    mapfile -t workloads < <(jq -r '.workloads[].name' "$bench")
fi
pairs=${AB_PAIRS:-10}
seed0=${AB_SEED:-1}
traced=${AB_TRACE:-0}
if [[ $traced != 0 && $traced != 1 ]]; then
    echo "ab.sh: AB_TRACE must be 0 or 1" >&2
    exit 2
fi
seconds=$(jq -r '.run_seconds' "$bench")

source scripts/worktrees.sh
worktrees "$base_rev" "$head_rev"

# raw.tsv: workload, pair, side, metric, value — one line per metric of
# every completed run.
raw=$tmp/raw.tsv
failures=$tmp/failures.txt
: >"$raw"
: >"$failures"

# run SIDE WORKLOAD PAIR SEED runs one benchmark and appends its metrics.
run() {
    local side=$1 w=$2 pair=$3 seed=$4 out=$tmp/out.txt status=0
    # In the background, so that a signal interrupts the wait at once.
    (cd "$tmp/$side" && exec bash perfbench/run.sh --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace "$traced") >"$out" 2>"$tmp/err.txt" &
    wait $! || status=$?
    if [[ $status -ne 0 ]]; then
        echo "$w seed $seed $side: exit $status: $(tail -n 3 "$tmp/err.txt" | tr '\n' ' ')" >>"$failures"
    fi
    local json
    json=$(grep '^{' "$out" | tail -n 1 || true)
    if [[ -z $json ]]; then
        echo "$w seed $seed $side: no result line" >>"$failures"
        return
    fi
    jq -r --arg w "$w" --arg p "$pair" --arg s "$side" \
        '.metrics | to_entries[] | [$w, $p, $s, .key, .value.value] | @tsv' <<<"$json" >>"$raw"
    echo "ab: $w seed $seed $side: $(jq -r '[.metrics | to_entries[] | "\(.key)=\(.value.value)"] | join(" ")' <<<"$json")" >&2
}

for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((seed0 + i))
        if ((i % 2 == 0)); then order=(base head); else order=(head base); fi
        for side in "${order[@]}"; do
            run "$side" "$w" "$i" "$seed"
        done
    done
done

# stats reads numbers, one per line, and prints "median q1 q3"
# (quartiles by linear interpolation between order statistics).
stats() {
    sort -g | awk '
        { x[NR] = $1 }
        function q(p,   h, lo) {
            h = 1 + (NR - 1) * p; lo = int(h)
            return lo >= NR ? x[NR] : x[lo] + (h - lo) * (x[lo + 1] - x[lo])
        }
        END { if (NR > 0) printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

echo "A/B $(git -C "$repo" rev-parse --short "$base_rev") (base) vs $(git -C "$repo" rev-parse --short "$head_rev") (change): $pairs pairs per workload, seeds $seed0..$((seed0 + pairs - 1)), ${seconds}s runs"
echo
echo "| workload | metric | base median [q1, q3] | change median [q1, q3] | pairs won | ratio | flag |"
echo "|---|---|---|---|---|---|---|"
# values WORKLOAD METRIC SIDE prints "pair<TAB>value" lines, sorted by
# pair for join.
values() {
    awk -F'\t' -v w="$1" -v m="$2" -v s="$3" '$1 == w && $4 == m && $3 == s { print $2 "\t" $5 }' "$raw" | sort -k1,1
}

for w in "${workloads[@]}"; do
    while IFS=$'\t' read -r metric better bound; do
        base_vals=$(values "$w" "$metric" base)
        head_vals=$(values "$w" "$metric" head)
        [[ -n $base_vals && -n $head_vals ]] || continue
        read -r bm bq1 bq3 < <(cut -f2 <<<"$base_vals" | stats)
        read -r hm hq1 hq3 < <(cut -f2 <<<"$head_vals" | stats)
        won=$(join -t $'\t' <(echo "$base_vals") <(echo "$head_vals") | awk -F'\t' -v b="$better" '
            (b == "lower" && $3 < $2) || (b == "higher" && $3 > $2) { n++ } END { print n + 0 "/" NR }')
        awk -v w="$w" -v m="$metric" -v b="$better" -v bound="$bound" -v won="$won" \
            -v bm="$bm" -v bq1="$bq1" -v bq3="$bq3" -v hm="$hm" -v hq1="$hq1" -v hq3="$hq3" '
            BEGIN {
                sgn = b == "lower" ? -1 : 1
                ratio = "—"
                if (bm != 0 && hm != 0) ratio = sprintf("%.3f×", b == "lower" ? bm / hm : hm / bm)
                else if (bm == hm) ratio = "1.000×"
                split(won, wn, "/")
                flag = ""
                if (bound == "") flag = ""
                else if (bm != 0 && sgn * (bm - hm) / (bm < 0 ? -bm : bm) > bound) flag = sprintf("OUT OF BOUND (%+.1f%%, bound %g%%)", 100 * (hm - bm) / bm, 100 * bound)
                else if (wn[1] >= 0.9 * wn[2] && sgn * (hm - bm) > bq3 - bq1) flag = "gain"
                printf "| %s | `%s` | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %s | %s | %s |\n", w, m, bm, bq1, bq3, hm, hq1, hq3, won, ratio, flag
            }'
    done < <(jq -r --argjson traced "$traced" '(.end_to_end[] | [.name, .better, .bound]),
        (if $traced == 1 then .per_layer[] | [.name, .better, ""] else empty end) | @tsv' "$bench")
done
if [[ -s $failures ]]; then
    echo
    echo "Failed runs:"
    cat "$failures"
fi
