package partition_test

import (
	"context"
	"math"
	"testing"

	"sptc/internal/cost"
	"sptc/internal/depgraph"
	"sptc/internal/ir"
	"sptc/internal/parser"
	"sptc/internal/partition"
	"sptc/internal/profile"
	"sptc/internal/sem"
	"sptc/internal/splgen"
	"sptc/internal/ssa"
)

// refResult is the outcome of the naive reference search.
type refResult struct {
	emptyCost float64
	cost      float64
	size      int
	nodes     int
}

// referenceSearch is the specification the optimized branch-and-bound is
// checked against: enumerate every legal downward-closed VC subset in
// the same DFS order, with plain maps and from-scratch model
// evaluations — no pruning, no bitsets, no memoization, no incremental
// propagation.
func referenceSearch(g *depgraph.Graph, m *cost.Model, sizeLimit int) *refResult {
	vcs := g.VCs
	n := len(vcs)

	// VC-dep predecessors via intra-iteration true-dependence
	// reachability (§5.1), recomputed here independently of the package.
	intraPreds := map[*ir.Stmt][]*ir.Stmt{}
	for _, e := range g.True {
		if !e.Cross {
			intraPreds[e.To] = append(intraPreds[e.To], e.From)
		}
	}
	isVC := map[*ir.Stmt]bool{}
	for _, vc := range vcs {
		isVC[vc] = true
	}
	var collect func(s *ir.Stmt, seen, out map[*ir.Stmt]bool)
	collect = func(s *ir.Stmt, seen, out map[*ir.Stmt]bool) {
		if seen[s] {
			return
		}
		seen[s] = true
		for _, p := range intraPreds[s] {
			if isVC[p] {
				out[p] = true
			}
			collect(p, seen, out)
		}
	}
	preds := make([]map[*ir.Stmt]bool, n)
	for i, vc := range vcs {
		out := map[*ir.Stmt]bool{}
		collect(vc, map[*ir.Stmt]bool{}, out)
		delete(out, vc)
		preds[i] = out
	}

	closures := make([]partition.Closure, n)
	for i, vc := range vcs {
		closures[i] = partition.ComputeClosure(g, vc)
	}

	in := make([]bool, n)
	sc := ir.NewSizeCache()

	// moveSet/condSet/size are recomputed from scratch out of the chosen
	// subset on every query; only the subset itself is incremental.
	moveSet := func() map[*ir.Stmt]bool {
		mv := map[*ir.Stmt]bool{}
		for i := range in {
			if in[i] {
				for s := range closures[i].Move {
					mv[s] = true
				}
			}
		}
		return mv
	}
	condSet := func() map[*ir.Stmt]bool {
		cd := map[*ir.Stmt]bool{}
		for i := range in {
			if in[i] {
				for s := range closures[i].CopyConds {
					cd[s] = true
				}
			}
		}
		return cd
	}
	sizeOf := func(mv, cd map[*ir.Stmt]bool) int {
		sz := 0
		for s := range mv {
			sz += sc.StmtOps(s)
		}
		for s := range cd {
			if !mv[s] {
				sz += sc.StmtOps(s)
			}
		}
		return sz
	}

	r := &refResult{emptyCost: m.Evaluate(nil)}
	r.cost, r.size = r.emptyCost, 0

	record := func() {
		mv := moveSet()
		sz := sizeOf(mv, condSet())
		if sz > sizeLimit {
			return
		}
		c := m.Evaluate(mv)
		if c < r.cost-1e-12 || (c < r.cost+1e-12 && sz < r.size) {
			r.cost, r.size = c, sz
		}
	}

	var walk func(last int)
	walk = func(last int) {
		r.nodes++
		for i := last + 1; i < n; i++ {
			legal := true
			for p := range preds[i] {
				inP := false
				for j, vc := range vcs {
					if vc == p && in[j] {
						inP = true
						break
					}
				}
				if !inP {
					legal = false
					break
				}
			}
			if !legal {
				continue
			}
			in[i] = true
			record()
			walk(i)
			in[i] = false
		}
	}
	record()
	walk(-1)
	return r
}

// maxOracleVCs bounds the exhaustive enumeration (2^n subsets).
const maxOracleVCs = 10

// checkSearchAgainstReference runs both the optimized search (under the
// given options — callers vary Workers to put the parallel search
// through the same oracle) and the naive reference on one loop and
// cross-checks every observable: optimal cost, empty cost, pre-fork
// size, node counts, that the returned partition re-evaluates (from
// scratch, on the plain model) to the claimed cost, and that every lower
// bound the search reuses instead of propagating is exact.
func checkSearchAgainstReference(tb testing.TB, g *depgraph.Graph, m *cost.Model, opt partition.Options) {
	tb.Helper()
	if len(g.VCs) > maxOracleVCs {
		return
	}
	r := partition.Search(g, m, opt)
	if r.Skipped {
		return
	}
	ref := referenceSearch(g, m, r.SizeLimit)

	if math.Abs(r.EmptyCost-ref.emptyCost) > 1e-9 {
		tb.Fatalf("empty cost: search %.9f, reference %.9f", r.EmptyCost, ref.emptyCost)
	}
	if math.Abs(r.Cost-ref.cost) > 1e-9 {
		tb.Fatalf("optimal cost: search %.9f, reference %.9f", r.Cost, ref.cost)
	}
	// The pruned search guarantees the optimal *cost* but not the size
	// tie-break: the lower bound ignores size, so a subtree holding an
	// equal-cost smaller partition may be cut. The unpruned search below
	// must match the reference's size exactly.
	if r.SearchNodes > ref.nodes {
		tb.Fatalf("pruned search explored %d nodes, exhaustive space is %d", r.SearchNodes, ref.nodes)
	}

	// The returned partition must be self-consistent under the plain
	// model: its move set evaluates to the claimed cost, and its size
	// matches the size the search reported.
	if c := m.Evaluate(r.Move); math.Abs(c-r.Cost) > 1e-9 {
		tb.Fatalf("returned move set evaluates to %.9f, search claimed %.9f", c, r.Cost)
	}
	sc := ir.NewSizeCache()
	sz := 0
	for s := range r.Move {
		sz += sc.StmtOps(s)
	}
	for s := range r.CopyConds {
		if !r.Move[s] {
			sz += sc.StmtOps(s)
		}
	}
	if sz != r.PreForkSize {
		tb.Fatalf("returned sets size %d, search claimed %d", sz, r.PreForkSize)
	}

	// Without pruning the search must enumerate exactly the reference's
	// DFS space and land on the same optimum.
	noPrune := opt
	noPrune.PruneBound = false
	noPrune.PruneSize = false
	rn := partition.Search(g, m, noPrune)
	if rn.SearchNodes != ref.nodes {
		tb.Fatalf("unpruned search explored %d nodes, reference %d", rn.SearchNodes, ref.nodes)
	}
	if math.Abs(rn.Cost-ref.cost) > 1e-9 {
		tb.Fatalf("unpruned cost %.9f, reference %.9f", rn.Cost, ref.cost)
	}
	if rn.PreForkSize != ref.size {
		tb.Fatalf("unpruned pre-fork size: search %d, reference %d (cost %.4f)", rn.PreForkSize, ref.size, rn.Cost)
	}
	if bad := partition.LowerBoundMismatches(g, m); bad != 0 {
		tb.Fatalf("%d of %d lower bounds differ from a fresh propagation", bad, ref.nodes)
	}
}

// checkAnytimeOracle checks the anytime contract on one loop: under any
// node budget the search must return a valid, self-consistent partition
// that never costs more than the serial fallback, and an un-degraded
// result must equal the unbudgeted optimum.
func checkAnytimeOracle(tb testing.TB, g *depgraph.Graph, m *cost.Model) {
	tb.Helper()
	full := partition.Search(g, m, partition.DefaultOptions())
	if full.Skipped {
		return
	}
	for _, budget := range []int{1, 4, 64} {
		opt := partition.DefaultOptions()
		opt.MaxSearchNodes = budget
		r := partition.Search(g, m, opt)
		if r.Cost > r.EmptyCost+1e-9 {
			tb.Fatalf("budget %d: anytime cost %.9f exceeds serial fallback %.9f", budget, r.Cost, r.EmptyCost)
		}
		if r.Cost < full.Cost-1e-9 {
			tb.Fatalf("budget %d: anytime cost %.9f beats the unbudgeted optimum %.9f", budget, r.Cost, full.Cost)
		}
		if c := m.Evaluate(r.Move); math.Abs(c-r.Cost) > 1e-9 {
			tb.Fatalf("budget %d: move set evaluates to %.9f, search claimed %.9f", budget, c, r.Cost)
		}
		if r.SearchNodes > budget {
			tb.Fatalf("budget %d: search explored %d nodes", budget, r.SearchNodes)
		}
		if !r.Degraded && math.Abs(r.Cost-full.Cost) > 1e-9 {
			tb.Fatalf("budget %d: un-degraded result cost %.9f differs from optimum %.9f", budget, r.Cost, full.Cost)
		}
	}
}

// mainLoopGraphs compiles src, profiles it, and returns the dependence
// graph and cost model of every loop in main.
func mainLoopGraphs(tb testing.TB, src string) ([]*depgraph.Graph, []*cost.Model) {
	tb.Helper()
	p, err := parser.Parse("t.spl", src)
	if err != nil {
		tb.Fatalf("parse: %v\n%s", err, src)
	}
	info, err := sem.Check(p)
	if err != nil {
		tb.Fatalf("check: %v\n%s", err, src)
	}
	prog, err := ir.Build(info)
	if err != nil {
		tb.Fatalf("build: %v\n%s", err, src)
	}
	an := make(map[*ir.Func]*depgraph.Analysis)
	nests := make(map[*ir.Func]*ssa.LoopNest)
	for _, f := range prog.Funcs {
		ssa.Repair(f)
		an[f] = depgraph.Analyze(f)
		nests[f] = an[f].Loops
	}
	prof, err := profile.Run(context.Background(), prog, nests, discard{}, 0)
	if err != nil {
		tb.Fatalf("profile: %v\n%s", err, src)
	}
	prof.Edge.Apply(prog)

	f := prog.Main
	effects := depgraph.ComputeEffects(prog)
	var gs []*depgraph.Graph
	var ms []*cost.Model
	for _, l := range nests[f].Loops {
		g := depgraph.Build(l, depgraph.Config{
			UseProfile: true,
			Dep:        prof.Dep,
			Effects:    effects,
			Analysis:   an[f],
		})
		if g == nil {
			continue
		}
		gs = append(gs, g)
		ms = append(ms, cost.Build(g))
	}
	return gs, ms
}

// TestSearchMatchesReference is the equivalence oracle on fixed inputs:
// the hand-written loop plus a block of generated programs.
func TestSearchMatchesReference(t *testing.T) {
	g, m := loopGraph(t, fig2ish, 0)
	checkSearchAgainstReference(t, g, m, partition.DefaultOptions())

	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		gs, ms := mainLoopGraphs(t, splgen.Generate(seed))
		for i := range gs {
			checkSearchAgainstReference(t, gs[i], ms[i], partition.DefaultOptions())
		}
	}
}

// fuzzSource maps a fuzzed seed to a program: non-negative seeds sample
// the transformation space (splgen.Generate), negative seeds produce
// search-adversarial programs (splgen.Adversarial) — deep VC chains and
// wide dependence fans that stress the branch-and-bound and the anytime
// budget paths.
func fuzzSource(seed int64) string {
	if seed < 0 {
		return splgen.Adversarial(-(seed + 1))
	}
	return splgen.Generate(seed)
}

// FuzzPartitionSearch feeds generated programs to the oracles: for every
// loop of every generated program, the bitset branch-and-bound must
// agree with the exhaustive map-based reference, and the budgeted search
// must honor the anytime contract.
func FuzzPartitionSearch(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	for seed := int64(-1); seed >= -4; seed-- {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		gs, ms := mainLoopGraphs(t, fuzzSource(seed))
		for i := range gs {
			checkSearchAgainstReference(t, gs[i], ms[i], partition.DefaultOptions())
			checkAnytimeOracle(t, gs[i], ms[i])
		}
	})
}

// TestAdversarialPrograms pins the adversarial generator into the
// regular test suite: both oracles over a block of pathological
// programs, independent of whether the fuzzer ever runs.
func TestAdversarialPrograms(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		gs, ms := mainLoopGraphs(t, splgen.Adversarial(seed))
		if len(gs) == 0 {
			t.Fatalf("seed %d: adversarial program produced no loop graphs", seed)
		}
		for i := range gs {
			checkSearchAgainstReference(t, gs[i], ms[i], partition.DefaultOptions())
			checkAnytimeOracle(t, gs[i], ms[i])
		}
	}
}
