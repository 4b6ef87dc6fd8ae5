package core_test

// Worker-count invariance of the parallel pass 1: Compile with
// SearchWorkers ∈ {0, 1, 2, 8} must produce identical reports,
// decisions, degradation events, and transformed-program output. Run
// under -race in CI, the sweep also exercises the pass-1 job pool and
// the per-loop budget pre-split for data races.

import (
	"fmt"
	"strings"
	"testing"

	"sptc/internal/core"
	"sptc/internal/interp"
	"sptc/internal/resilience"
	"sptc/internal/splgen"
)

// searchWorkerSources is the compile corpus for the invariance sweeps:
// the fail-soft selection loop plus generated and adversarial programs.
func searchWorkerSources() map[string]string {
	srcs := map[string]string{"failsoft": failsoftSrc}
	for seed := int64(1); seed <= 4; seed++ {
		srcs[fmt.Sprintf("gen%d", seed)] = splgen.Generate(seed)
		srcs[fmt.Sprintf("adv%d", seed)] = splgen.Adversarial(seed)
	}
	return srcs
}

// sameCompile asserts two compiles of one source reached identical
// observable outcomes: SPT loops, degradation events, and per-loop
// decisions and partitions.
func sameCompile(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if len(got.SPT) != len(want.SPT) {
		t.Errorf("%s: %d SPT loops, want %d", label, len(got.SPT), len(want.SPT))
	}
	if len(got.Degradations) != len(want.Degradations) {
		t.Errorf("%s: %d degradations, want %d", label, len(got.Degradations), len(want.Degradations))
	} else {
		for i, ev := range got.Degradations {
			w := want.Degradations[i]
			if ev.Phase != w.Phase || ev.Unit != w.Unit || ev.Reason != w.Reason {
				t.Errorf("%s: degradation %d = {%s %s %s}, want {%s %s %s}",
					label, i, ev.Phase, ev.Unit, ev.Reason, w.Phase, w.Unit, w.Reason)
			}
		}
	}
	if len(got.Reports) != len(want.Reports) {
		t.Fatalf("%s: %d reports, want %d", label, len(got.Reports), len(want.Reports))
	}
	for i, rep := range got.Reports {
		w := want.Reports[i]
		if rep.Decision != w.Decision {
			t.Errorf("%s report %d: decision %s, want %s", label, i, rep.Decision, w.Decision)
		}
		if rep.EstCost != w.EstCost || rep.PreForkSize != w.PreForkSize || rep.VCCount != w.VCCount {
			t.Errorf("%s report %d: (cost %v, prefork %d, vcs %d), want (%v, %d, %d)",
				label, i, rep.EstCost, rep.PreForkSize, rep.VCCount, w.EstCost, w.PreForkSize, w.VCCount)
		}
		if (rep.Partition == nil) != (w.Partition == nil) {
			t.Errorf("%s report %d: partition presence differs", label, i)
		}
	}
}

// sameSearchNodes asserts two compiles of one source explored the same
// number of search nodes per loop. partition.Options.Workers promises
// this among parallel searches (Workers >= 1) only: the serial DFS
// updates its incumbent as it goes, while the parallel search freezes
// one per frontier, so the serial search may prune more.
func sameSearchNodes(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	for i, rep := range got.Reports {
		w := want.Reports[i]
		if rep.Partition != nil && w.Partition != nil && rep.Partition.SearchNodes != w.Partition.SearchNodes {
			t.Errorf("%s report %d: %d search nodes, want %d",
				label, i, rep.Partition.SearchNodes, w.Partition.SearchNodes)
		}
	}
}

// runCompiled interprets the transformed program and returns its output.
func runCompiled(t *testing.T, res *core.Result) string {
	t.Helper()
	var out strings.Builder
	m := interp.New(res.Prog, &out)
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String()
}

// TestSearchWorkersInvariance: the three-phase parallel pass 1 reaches
// the same compilation as the classic serial one at every worker count
// — same decisions, same partitions, same transformed-program output —
// and the parallel search explores the same number of nodes at every
// worker count (the serial DFS may explore fewer; see sameSearchNodes).
func TestSearchWorkersInvariance(t *testing.T) {
	for name, src := range searchWorkerSources() {
		t.Run(name, func(t *testing.T) {
			serial, err := core.CompileSource(name+".spl", src, core.DefaultOptions(core.LevelBest))
			if err != nil {
				t.Fatalf("serial compile: %v", err)
			}
			baseOut := runCompiled(t, serial)
			var one *core.Result
			for _, workers := range []int{1, 2, 8} {
				opt := core.DefaultOptions(core.LevelBest)
				opt.SearchWorkers = workers
				res, err := core.CompileSource(name+".spl", src, opt)
				if err != nil {
					t.Fatalf("workers=%d: compile: %v", workers, err)
				}
				label := fmt.Sprintf("workers=%d", workers)
				sameCompile(t, label, serial, res)
				if one == nil {
					one = res
				}
				sameSearchNodes(t, label, one, res)
				if out := runCompiled(t, res); out != baseOut {
					t.Errorf("%s: transformed output %q, serial %q", label, out, baseOut)
				}
			}
		})
	}
}

// TestSearchWorkersBudgetSplit: a shared search budget is pre-split
// deterministically across candidate loops, so which loops degrade —
// and the resulting compile — is identical at every parallel worker
// count and across repeated runs.
func TestSearchWorkersBudgetSplit(t *testing.T) {
	compile := func(workers int) *core.Result {
		t.Helper()
		opt := core.DefaultOptions(core.LevelBest)
		opt.SearchWorkers = workers
		opt.Partition.Budget = resilience.NewBudget(nil, 2)
		res, err := core.CompileSource("budget.spl", failsoftSrc, opt)
		if err != nil {
			t.Fatalf("workers=%d: compile: %v", workers, err)
		}
		return res
	}
	want := compile(2)
	sawBudget := false
	for _, ev := range want.Degradations {
		if ev.Reason == resilience.ReasonBudget {
			sawBudget = true
		}
	}
	if !sawBudget {
		t.Fatal("budget of 2 nodes exhausted nothing; test is vacuous")
	}
	check := func(label string, got *core.Result) {
		sameCompile(t, label, want, got)
		sameSearchNodes(t, label, want, got)
	}
	check("workers=8", compile(8))
	for run := 0; run < 3; run++ {
		check(fmt.Sprintf("workers=2 run %d", run), compile(2))
	}
}

// TestSearchWorkersFailSoft: a panic inside a pass-1 worker goroutine is
// contained by the per-loop guard exactly like in the serial pass — the
// loop is demoted to serial, the pool survives, the compile completes.
func TestSearchWorkersFailSoft(t *testing.T) {
	defer resilience.DisarmAll()
	base, clean := compileFailsoft(t, nil)
	if len(clean.SPT) == 0 {
		t.Fatal("clean compile selected no SPT loops; test is vacuous")
	}
	resilience.Arm("core.pass1.loop", resilience.Fault{Kind: resilience.FaultPanic})
	got, res := compileFailsoft(t, func(o *core.Options) { o.SearchWorkers = 4 })
	if got != base {
		t.Fatalf("degraded compile changed program output: %q vs %q", got, base)
	}
	if len(res.SPT) != 0 {
		t.Fatalf("panicking pass 1 still produced %d SPT loops", len(res.SPT))
	}
	for _, ev := range res.Degradations {
		if ev.Phase != "pass1.loop" || ev.Reason != resilience.ReasonPanic {
			t.Fatalf("unexpected event %+v", ev)
		}
	}
}
