package partition_test

// Worker-count invariance of the parallel branch-and-bound: for every
// graph in the corpus, Search with Workers ∈ {1, 2, 8} must return the
// same partition as the serial search — same Move/CopyConds/Cost, same
// pre-fork VCs — and, under a node budget (frozen-incumbent mode), the
// same SearchNodes and degradation decision. Run under -race in CI, the
// same sweep also exercises the per-worker evaluators, the CAS-published
// incumbent, and the atomic budget for data races.

import (
	"fmt"
	"sort"
	"testing"

	"sptc/internal/cost"
	"sptc/internal/depgraph"
	"sptc/internal/partition"
	"sptc/internal/resilience"
)

// workerCorpus returns the graphs the invariance sweeps run over:
// structured loops, wide independent fans (worst-case subset trees),
// and the splgen + adversarial fuzz corpora.
func workerCorpus(t *testing.T) ([]*depgraph.Graph, []*cost.Model) {
	t.Helper()
	var graphs []*depgraph.Graph
	var models []*cost.Model
	add := func(src string) {
		gs, ms := mainLoopGraphs(t, src)
		graphs = append(graphs, gs...)
		models = append(models, ms...)
	}
	add(fig2ish)
	add(wideVCSource(8))
	add(wideVCSource(12))
	for seed := int64(0); seed < 6; seed++ {
		add(fuzzSource(seed))  // splgen.Generate
		add(fuzzSource(-seed)) // splgen.Adversarial
	}
	return graphs, models
}

// vcIDs is a canonical form of the pre-fork VC list for comparison.
func vcIDs(r *partition.Result) []int {
	ids := make([]int, 0, len(r.PreForkVCs))
	for _, vc := range r.PreForkVCs {
		ids = append(ids, vc.ID)
	}
	sort.Ints(ids)
	return ids
}

func sameResult(t *testing.T, label string, want, got *partition.Result) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Errorf("%s: cost %v, want %v", label, got.Cost, want.Cost)
	}
	if got.PreForkSize != want.PreForkSize {
		t.Errorf("%s: pre-fork size %d, want %d", label, got.PreForkSize, want.PreForkSize)
	}
	if w, g := fmt.Sprint(vcIDs(want)), fmt.Sprint(vcIDs(got)); w != g {
		t.Errorf("%s: pre-fork VCs %s, want %s", label, g, w)
	}
	if len(got.Move) != len(want.Move) {
		t.Errorf("%s: move set size %d, want %d", label, len(got.Move), len(want.Move))
	}
	for s := range want.Move {
		if !got.Move[s] {
			t.Errorf("%s: move set missing s%d", label, s.ID)
		}
	}
	if len(got.CopyConds) != len(want.CopyConds) {
		t.Errorf("%s: copy-cond set size %d, want %d", label, len(got.CopyConds), len(want.CopyConds))
	}
	for s := range want.CopyConds {
		if !got.CopyConds[s] {
			t.Errorf("%s: copy-cond set missing s%d", label, s.ID)
		}
	}
	if got.Degraded != want.Degraded {
		t.Errorf("%s: degraded %v, want %v", label, got.Degraded, want.Degraded)
	}
}

// TestWorkersInvariance: the parallel search returns the serial result
// byte for byte at every worker count, and — because the default node
// budget selects frozen-incumbent mode — explores a worker-count-
// independent number of nodes.
func TestWorkersInvariance(t *testing.T) {
	graphs, models := workerCorpus(t)
	for gi, g := range graphs {
		serial := partition.Search(g, models[gi], partition.DefaultOptions())
		var nodes1 int
		for _, workers := range []int{1, 2, 8} {
			opt := partition.DefaultOptions()
			opt.Workers = workers
			r := partition.Search(g, models[gi], opt)
			label := fmt.Sprintf("graph %d (%d VCs) workers %d", gi, len(g.VCs), workers)
			sameResult(t, label, serial, r)
			if workers == 1 {
				nodes1 = r.SearchNodes
			} else if r.SearchNodes != nodes1 {
				t.Errorf("%s: %d search nodes, want %d (frozen mode is worker-count-invariant)",
					label, r.SearchNodes, nodes1)
			}
			if r.Workers != workers {
				t.Errorf("%s: result echoes Workers=%d", label, r.Workers)
			}
		}
	}
}

// TestWorkersUnbudgeted: with no node budget the workers share a live
// CAS-published incumbent; explored node counts may then differ between
// worker counts, but the partition may not.
func TestWorkersUnbudgeted(t *testing.T) {
	graphs, models := workerCorpus(t)
	for gi, g := range graphs {
		opt := partition.DefaultOptions()
		opt.MaxSearchNodes = 0
		serial := partition.Search(g, models[gi], opt)
		for _, workers := range []int{1, 2, 8} {
			opt := partition.DefaultOptions()
			opt.MaxSearchNodes = 0
			opt.Workers = workers
			r := partition.Search(g, models[gi], opt)
			sameResult(t, fmt.Sprintf("graph %d workers %d (unbudgeted)", gi, workers), serial, r)
		}
	}
}

// TestWorkersAnytime: under tight node budgets the parallel search keeps
// the anytime contract — a valid partition no worse than the serial
// fallback — and both the budget verdict and the partition are
// identical at every worker count >= 1 (deterministic pre-split shares,
// frozen incumbents).
func TestWorkersAnytime(t *testing.T) {
	graphs, models := workerCorpus(t)
	budgets := []int{1, 4, 64, 1024}
	for gi, g := range graphs {
		if len(g.VCs) == 0 {
			continue
		}
		for _, budget := range budgets {
			var first *partition.Result
			for _, workers := range []int{1, 2, 8} {
				opt := partition.DefaultOptions()
				opt.MaxSearchNodes = budget
				opt.Workers = workers
				r := partition.Search(g, models[gi], opt)
				validateAnytime(t, r, models[gi])
				label := fmt.Sprintf("graph %d budget %d workers %d", gi, budget, workers)
				if r.Degraded && r.DegradeReason != resilience.ReasonBudget {
					t.Errorf("%s: degrade reason %v", label, r.DegradeReason)
				}
				if first == nil {
					first = r
					continue
				}
				sameResult(t, label, first, r)
				if r.SearchNodes != first.SearchNodes {
					t.Errorf("%s: %d search nodes, want %d", label, r.SearchNodes, first.SearchNodes)
				}
			}
		}
	}
}

// TestWorkersRepeatable: the same (graph, budget, workers) triple gives
// the same answer on every run — the parallel search has no hidden
// scheduling dependence even while goroutines share the live incumbent.
func TestWorkersRepeatable(t *testing.T) {
	graphs, models := workerCorpus(t)
	for gi, g := range graphs {
		if len(g.VCs) < 4 {
			continue
		}
		opt := partition.DefaultOptions()
		opt.Workers = 8
		first := partition.Search(g, models[gi], opt)
		for run := 0; run < 3; run++ {
			r := partition.Search(g, models[gi], opt)
			sameResult(t, fmt.Sprintf("graph %d run %d", gi, run), first, r)
			if r.SearchNodes != first.SearchNodes {
				t.Errorf("graph %d run %d: %d search nodes, want %d", gi, run, r.SearchNodes, first.SearchNodes)
			}
		}
	}
}

// TestWorkersAgainstOracle: the parallel search satisfies the exhaustive
// reference oracle exactly like the serial one.
func TestWorkersAgainstOracle(t *testing.T) {
	for seed := int64(-4); seed < 4; seed++ {
		graphs, models := mainLoopGraphs(t, fuzzSource(seed))
		for gi, g := range graphs {
			if len(g.VCs) == 0 || len(g.VCs) > maxOracleVCs {
				continue
			}
			opt := partition.DefaultOptions()
			opt.Workers = 4
			checkSearchAgainstReference(t, g, models[gi], opt)
		}
	}
}

// TestWorkersCountersInvariant: every walker owns its evaluators and
// nothing else is shared, so under a node budget the work counters —
// not only the partition and SearchNodes — are the same at every worker
// count: each subtree task evaluates and reuses the same sets, and
// improves on the frozen incumbent as often, whichever worker runs it.
// Only Recomputes depends on which worker ran which task.
func TestWorkersCountersInvariant(t *testing.T) {
	gs, ms := mainLoopGraphs(t, wideVCSource(12))
	serial := partition.Search(gs[0], ms[0], partition.DefaultOptions())
	var first *partition.Result
	for _, workers := range []int{1, 2, 8} {
		opt := partition.DefaultOptions()
		opt.Workers = workers
		r := partition.Search(gs[0], ms[0], opt)
		label := fmt.Sprintf("wide fan workers %d", workers)
		sameResult(t, label, serial, r)
		t.Logf("%s: nodes=%d evals=%d dedup=%d recomputes=%d bound-updates=%d",
			label, r.SearchNodes, r.CostEvals, r.DedupHits, r.Recomputes, r.BoundUpdates)
		if first == nil {
			first = r
			continue
		}
		if r.SearchNodes != first.SearchNodes || r.CostEvals != first.CostEvals ||
			r.DedupHits != first.DedupHits || r.BoundUpdates != first.BoundUpdates {
			t.Errorf("%s: nodes/evals/dedup/bound-updates %d/%d/%d/%d, want %d/%d/%d/%d", label,
				r.SearchNodes, r.CostEvals, r.DedupHits, r.BoundUpdates,
				first.SearchNodes, first.CostEvals, first.DedupHits, first.BoundUpdates)
		}
	}
}
