// Command perfbench is the repository's benchmark. It drives one of
// three workloads through the layers' public functions and prints, as
// the last line of standard output, one JSON object with the run's
// correctness verdict and its metrics:
//
//	suite    the paper's full evaluation (evalharness.RunSuite, 1 worker)
//	search   a seeded edit-compile session against one shared incr.Store
//	service  an in-process sptd daemon driven by two closed-loop clients
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload suite|search|service --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 rounds alternate untraced and traced, and
// the metrics are the per-layer ones read from the traced rounds' spans.
// Every output is checked after the timed phase, outside every timing;
// any mismatch makes the command exit 1. METRICS.md defines each metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"sptc/internal/trace"
)

// outDir holds the benchmark's scratch files and the traced run's
// Chrome trace, relative to the repository root it runs from.
var outDir = filepath.Join(".bench_build", "perfbench")

// setupReps is how many times a run performs its workload's set-up;
// setup_s is the median.
const setupReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: suite|search|service")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced rounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newW, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q or --trace %d\n", *name, *traced)
		return 2
	}
	res, err := measure(newW, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", *name, f)
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-26s %14.6g %-6s samples=%d\n", m.name, m.value, m.unit, m.samples)
	}
	out := map[string]any{
		"correct":   res.failed == 0 && len(res.failures) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metricsJSON(),
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out["correct"].(bool) {
		return 1
	}
	return 0
}

// workload is one benchmark workload after set-up.
type workload interface {
	// round runs one fixed unit of work. A non-nil tracer switches on
	// the layers' tracing for the round.
	round(tr *trace.Tracer) (*roundResult, error)
	// check verifies every output the timed rounds produced. It runs
	// after the timed phase and returns the number of operations it
	// found wrong, with a line per problem.
	check(rounds []*roundResult) (failed int, problems []string)
	// speedup is the workload's simulated speedup geomean (never 0).
	speedup() float64
	close()
}

var workloads = map[string]func(seed int64, dir string) (workload, error){
	"suite":   newSuite,
	"search":  newSearch,
	"service": newService,
}

// roundResult is what one round measured.
type roundResult struct {
	traced    bool
	wall, cpu time.Duration
	allocB    uint64
	ops       int
	cold      []time.Duration // per-operation latencies, never pooled
	warm      []time.Duration
	// counts are the round's work counters, read from spans (traced
	// rounds) or responses; they must repeat exactly across rounds of
	// one kind.
	counts map[string]float64
	// layers are the per-layer metrics of a traced round.
	layers map[string]float64
	// clients is how many tracks record at once (1 unless the
	// workload's clients run concurrently).
	clients int
	// problems are self-consistency failures the round found.
	problems []string
	tracer   *trace.Tracer
	payload  any // workload-specific outputs kept for check
}

type result struct {
	attempted, failed int
	failures          []string
	notes             []string // printed before the metrics
	metrics           []metric
}

type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

func (r *result) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

func (r *result) metricsJSON() map[string]any {
	m := make(map[string]any, len(r.metrics))
	for _, x := range r.metrics {
		m[x.name] = map[string]any{"value": x.value, "unit": x.unit}
	}
	return m
}

// measure sets the workload up setupReps times (keeping the last
// instance), runs rounds until the timed phase is over, checks every
// output, and derives the metrics.
func measure(newW func(int64, string) (workload, error), seed int64, length time.Duration, traced bool, name string) (*result, error) {
	tmp := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var setups []float64
	var w workload
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		w, err = newW(seed, filepath.Join(dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	// Rounds: at least two (the suite's first round is its cold sample;
	// a traced run needs an untraced and a traced round), then as many as
	// fit in the timed phase: a round starts only if one more round of the
	// last one's length would end within it.
	var rounds []*roundResult
	start := time.Now()
	for i := 0; i < 2 || time.Since(start)+rounds[i-1].wall <= length; i++ {
		var tr *trace.Tracer
		if traced && i%2 == 1 {
			tr = trace.New()
		}
		rr, err := timedRound(w, tr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, rr)
	}
	timed := time.Since(start)
	rss := peakRSSMB() // before the checks, which are not the workload

	res := &result{}
	res.failed, res.failures = w.check(rounds)
	for _, rr := range rounds {
		res.attempted += rr.ops
		res.failures = append(res.failures, rr.problems...)
	}
	if traced {
		layerMetrics(res, rounds)
		if err := writeTraces(rounds, outDir, name); err != nil {
			return nil, err
		}
	} else {
		e2eMetrics(res, rounds, setups, timed, rss, w.speedup())
	}
	res.failures = append(res.failures, consistency(rounds)...)
	return res, nil
}

// timedRound runs one round, measuring wall time, process CPU time and
// heap allocation around it.
func timedRound(w workload, tr *trace.Tracer) (*roundResult, error) {
	// Every round starts from a collected heap, so the rounds' wall, CPU
	// and allocation figures do not depend on garbage the previous round
	// left behind.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	cpu0 := cpuTime()
	start := time.Now()
	rr, err := w.round(tr)
	if err != nil {
		return nil, err
	}
	rr.wall = time.Since(start)
	rr.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	rr.allocB = ms.TotalAlloc - alloc0
	rr.traced = tr != nil
	rr.tracer = tr
	return rr, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// consistency checks what must hold across rounds: every round
// completes the same number of operations, traced or not, and the work
// counters of rounds of one kind repeat exactly.
func consistency(rounds []*roundResult) []string {
	var probs []string
	first := map[bool]*roundResult{}
	for i, rr := range rounds {
		if rr.ops != rounds[0].ops {
			probs = append(probs, fmt.Sprintf("round %d completed %d operations, round 0 %d", i, rr.ops, rounds[0].ops))
		}
		ref := first[rr.traced]
		if ref == nil {
			first[rr.traced] = rr
			continue
		}
		for k, v := range ref.counts {
			if rr.counts[k] != v {
				probs = append(probs, fmt.Sprintf("round %d counter %s = %v, earlier round %v", i, k, rr.counts[k], v))
			}
		}
	}
	return probs
}

// e2eMetrics derives the end-to-end metrics from the untraced rounds.
func e2eMetrics(res *result, rounds []*roundResult, setups []float64, timed time.Duration, rss, speedup float64) {
	var walls, cpus, allocs []float64
	var cold, warm []time.Duration
	var coldTails, warmTails []float64
	ops := 0
	for _, rr := range rounds {
		walls = append(walls, rr.wall.Seconds())
		cpus = append(cpus, rr.cpu.Seconds())
		allocs = append(allocs, float64(rr.allocB)/(1<<20))
		cold = append(cold, rr.cold...)
		warm = append(warm, rr.warm...)
		if len(rr.cold) > 0 {
			coldTails = append(coldTails, tailMs(rr.cold))
		}
		if len(rr.warm) > 0 {
			warmTails = append(warmTails, tailMs(rr.warm))
		}
		ops += rr.ops
	}
	n := len(rounds)
	res.add("setup_s", median(setups), "s", len(setups))
	res.add("wall_s", median(walls), "s", n)
	res.add("cpu_s", median(cpus), "s", n)
	res.add("req_per_s", float64(ops)/timed.Seconds(), "1/s", ops)
	res.add("warm_p50_ms", medianMs(warm), "ms", len(warm))
	res.add("warm_tail_ms", median(warmTails), "ms", len(warm))
	res.add("cold_p50_ms", medianMs(cold), "ms", len(cold))
	res.add("cold_tail_ms", median(coldTails), "ms", len(cold))
	res.add("alloc_mb", median(allocs), "MiB", n)
	res.add("peak_rss_mb", rss, "MiB", 1)
	res.add("speedup_geomean", speedup, "x", 1)
	ok := 1.0
	if res.attempted > 0 {
		ok = float64(res.attempted-res.failed) / float64(res.attempted)
	}
	res.add("ok_ratio", ok, "ratio", res.attempted)
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func toMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func medianMs(ds []time.Duration) float64 { return median(toMs(ds)) }

// tailMs is one round's tail latency: the highest percentile with at
// least ten samples beyond it (the 11th-largest sample), or the maximum
// when the round holds at most 20 samples, where the 11th-largest would
// sit at or below the median. Runs report the median of the per-round
// tails, so one stall in one round cannot move the figure.
func tailMs(ds []time.Duration) float64 {
	s := toMs(ds)
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	if len(s) <= 20 {
		return s[len(s)-1]
	}
	return s[len(s)-11]
}
