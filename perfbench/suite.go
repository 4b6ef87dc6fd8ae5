package main

import (
	"fmt"
	"math/rand"
	"time"

	"sptc/internal/benchprog"
	"sptc/internal/core"
	"sptc/internal/evalharness"
	"sptc/internal/trace"
)

// suiteWork is the suite workload: the paper's whole evaluation (10
// programs x base/basic/best/anticipated plus the coverage simulations)
// through evalharness.RunSuite with one worker and no incr store. The
// seed orders the programs; the programs and their inputs are the
// paper's fixed suite, so the suite's work counters do not depend on it.
type suiteWork struct {
	order  []string
	rounds int
	last   *evalharness.SuiteResult
}

// suiteWarmup is the program evaluated once during set-up, so code
// paths and the heap are warm before the first timed round.
const suiteWarmup = "gap"

func newSuite(seed int64, _ string) (workload, error) {
	w := &suiteWork{order: benchprog.Names()}
	rand.New(rand.NewSource(seed)).Shuffle(len(w.order), func(i, j int) {
		w.order[i], w.order[j] = w.order[j], w.order[i]
	})
	opt := suiteOptions([]string{suiteWarmup}, nil)
	if _, err := evalharness.RunSuite(opt); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

func suiteOptions(benches []string, tr *trace.Tracer) evalharness.Options {
	opt := evalharness.DefaultEvalOptions()
	opt.Workers = 1
	opt.Benchmarks = benches
	opt.Trace = tr
	return opt
}

// suiteOutputs is one round's program outputs, kept for check.
type suiteOutputs map[string][]string // program -> base, then level outputs

func (w *suiteWork) round(tr *trace.Tracer) (*roundResult, error) {
	bench := tr.StartTrack("bench")
	sp := bench.Start("RunSuite")
	start := time.Now()
	res, err := evalharness.RunSuite(suiteOptions(w.order, tr))
	wall := time.Since(start)
	sp.End()
	if err != nil {
		return nil, err
	}
	// The first evaluation in the process is the cold sample, later ones
	// are warm; the per-job latencies are never reported, because the
	// jobs' costs differ by two orders of magnitude.
	rr := &roundResult{counts: map[string]float64{}, layers: map[string]float64{}}
	if w.rounds == 0 {
		rr.cold = []time.Duration{wall}
	} else {
		rr.warm = []time.Duration{wall}
	}
	w.rounds++
	outs := suiteOutputs{}
	for _, run := range res.Runs {
		rr.ops++
		o := []string{run.BaseOutput}
		if run.BaseStatus != evalharness.StatusOK {
			o[0] = "status " + run.BaseStatus.String()
		}
		rr.counts["sim_ops"] += float64(run.BaseMetrics.SimOps)
		for _, lvl := range res.Levels {
			rr.ops++
			lr := run.Levels[lvl]
			out := lr.Output
			if lr.Status != evalharness.StatusOK {
				out = "status " + lr.Status.String()
			} else {
				rr.counts["search_nodes"] += float64(lr.Metrics.SearchNodes)
				rr.counts["sim_ops"] += float64(lr.Metrics.SimOps)
			}
			o = append(o, out)
		}
		outs[run.Name] = o
	}
	rr.payload = outs
	w.last = res
	rr.layers["evalharness.jobs"] = float64(rr.ops)
	if tr != nil {
		var roots time.Duration
		for _, tk := range tr.Tracks() {
			if tk == bench {
				continue
			}
			for _, s := range tk.Spans() {
				if s.Depth == 0 {
					roots += s.Dur
				}
			}
		}
		rr.layers["evalharness.overhead_ms"] = float64(wall-roots) / float64(time.Millisecond)
	}
	var mis float64
	rows := res.Fig18(core.LevelBest)
	for _, r := range rows {
		mis += r.MisspecRatio
	}
	if len(rows) > 0 {
		rr.layers["machine.misspec_pct"] = 100 * mis / float64(len(rows))
	}
	var mae float64
	pts := res.Fig19(core.LevelBest)
	for _, p := range pts {
		d := p.EstCost - p.Measured
		if d < 0 {
			d = -d
		}
		mae += d
	}
	if len(pts) > 0 {
		rr.layers["cost.fig19_mae"] = mae / float64(len(pts))
	}
	return rr, nil
}

// check compares every simulated output of every round with the
// output interp prints for the unoptimised program.
func (w *suiteWork) check(rounds []*roundResult) (int, []string) {
	failed := 0
	var probs []string
	refs := map[string]string{}
	for _, name := range w.order {
		ref, err := interpOutput(name, benchprog.ByName(name).Source)
		if err != nil {
			return rounds[0].ops * len(rounds), []string{err.Error()}
		}
		refs[name] = ref
	}
	for i, rr := range rounds {
		for name, outs := range rr.payload.(suiteOutputs) {
			for j, o := range outs {
				if o != refs[name] {
					failed++
					probs = append(probs, fmt.Sprintf("round %d: %s job %d: output differs from interp", i, name, j))
				}
			}
		}
	}
	return failed, probs
}

func (w *suiteWork) speedup() float64 {
	_, geo := w.last.Fig14()
	return geo[core.LevelBest]
}

func (w *suiteWork) close() {}
