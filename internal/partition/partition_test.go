package partition_test

import (
	"context"
	"testing"

	"sptc/internal/cost"
	"sptc/internal/depgraph"
	"sptc/internal/ir"
	"sptc/internal/parser"
	"sptc/internal/partition"
	"sptc/internal/profile"
	"sptc/internal/sem"
	"sptc/internal/ssa"
)

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// loopGraph compiles src and returns the dependence graph and cost model
// of the loop with the given index in main.
func loopGraph(t *testing.T, src string, idx int) (*depgraph.Graph, *cost.Model) {
	t.Helper()
	p, err := parser.Parse("t.spl", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(p)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	prog, err := ir.Build(info)
	if err != nil {
		t.Fatalf("build: %v", err)
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
		t.Fatalf("profile: %v", err)
	}
	prof.Edge.Apply(prog)

	f := prog.Main
	nest := nests[f]
	if idx >= len(nest.Loops) {
		t.Fatalf("loop %d of %d", idx, len(nest.Loops))
	}
	g := depgraph.Build(nest.Loops[idx], depgraph.Config{
		UseProfile: true,
		Dep:        prof.Dep,
		Effects:    depgraph.ComputeEffects(prog),
		Analysis:   an[f],
	})
	if g == nil {
		t.Fatal("nil graph")
	}
	return g, cost.Build(g)
}

const fig2ish = `
var a int[256];
var s int;
func main() {
	var i int = 0;
	while (i < 256) {
		var x int = a[i] * 3 + (a[i] >> 2) + (a[i] & 15);
		x = x + x % 7 + (x >> 1) % 5 + x % 11 + (x >> 3) % 13;
		s = s + (x & 63);
		i = i + 1;
	}
	print(s);
}
`

func TestSearchMovesInduction(t *testing.T) {
	g, m := loopGraph(t, fig2ish, 0)
	r := partition.Search(g, m, partition.DefaultOptions())
	if r.Skipped {
		t.Fatal("search skipped")
	}
	if r.Cost >= r.EmptyCost {
		t.Fatalf("optimal cost %.3f should beat the empty partition %.3f", r.Cost, r.EmptyCost)
	}
	// The induction update must be among the moved violation candidates.
	movedInduction := false
	for _, vc := range r.PreForkVCs {
		if vc.Dst != nil && vc.Dst.Base.Name == "i" {
			movedInduction = true
		}
	}
	if !movedInduction {
		t.Errorf("induction update not moved: %s", r)
	}
	if r.PreForkSize > r.SizeLimit {
		t.Errorf("pre-fork %d exceeds limit %d", r.PreForkSize, r.SizeLimit)
	}
}

func TestSearchOptimalityAgainstBruteForce(t *testing.T) {
	g, m := loopGraph(t, fig2ish, 0)
	opt := partition.DefaultOptions()
	r := partition.Search(g, m, opt)

	// Brute force over all downward-closed VC subsets.
	vcs := g.VCs
	if len(vcs) > 12 {
		t.Skip("too many VCs for brute force")
	}
	best := r.EmptyCost
	for mask := 0; mask < 1<<len(vcs); mask++ {
		move := map[*ir.Stmt]bool{}
		conds := map[*ir.Stmt]bool{}
		size := 0
		for i, vc := range vcs {
			if mask&(1<<i) == 0 {
				continue
			}
			cl := partition.ComputeClosure(g, vc)
			for s := range cl.Move {
				move[s] = true
			}
			for s := range cl.CopyConds {
				conds[s] = true
			}
		}
		sc := ir.NewSizeCache()
		for s := range move {
			size += sc.StmtOps(s)
		}
		for s := range conds {
			if !move[s] {
				size += sc.StmtOps(s)
			}
		}
		if size > r.SizeLimit {
			continue
		}
		if c := m.Evaluate(move); c < best {
			best = c
		}
	}
	if r.Cost > best+1e-9 {
		t.Errorf("branch-and-bound cost %.4f worse than brute force %.4f", r.Cost, best)
	}
}

func TestPruningPreservesOptimum(t *testing.T) {
	g, m := loopGraph(t, fig2ish, 0)

	with := partition.DefaultOptions()
	without := partition.DefaultOptions()
	without.PruneBound = false
	without.PruneSize = false

	rw := partition.Search(g, m, with)
	ro := partition.Search(g, m, without)
	if rw.Cost != ro.Cost {
		t.Errorf("pruning changed the optimum: %.4f vs %.4f", rw.Cost, ro.Cost)
	}
	if rw.SearchNodes > ro.SearchNodes {
		t.Errorf("pruning explored more nodes (%d) than exhaustive (%d)", rw.SearchNodes, ro.SearchNodes)
	}
}

func TestVCLimitSkips(t *testing.T) {
	g, m := loopGraph(t, fig2ish, 0)
	opt := partition.DefaultOptions()
	opt.MaxVCs = 0 // no limit
	if r := partition.Search(g, m, opt); r.Skipped {
		t.Error("MaxVCs=0 should not skip")
	}
	if len(g.VCs) > 0 {
		opt.MaxVCs = len(g.VCs) - 1
		if opt.MaxVCs == 0 {
			opt.MaxVCs = -0 // keep zero meaning "no limit"; skip the check
			return
		}
		if r := partition.Search(g, m, opt); !r.Skipped {
			t.Errorf("expected skip with MaxVCs=%d < %d VCs", opt.MaxVCs, len(g.VCs))
		}
	}
}

func TestClosureContainsProducers(t *testing.T) {
	g, _ := loopGraph(t, `
var out int[128];
var s int;
func main() {
	var i int = 0;
	while (i < 128) {
		var t1 int = i * 3;
		var t2 int = t1 + 7;
		out[i & 127] = t2;
		s = s + t2 % 5;
		i = i + 1;
	}
	print(s);
}
`, 0)
	// Moving the accumulator must drag its producers t2 and t1.
	var sVC *ir.Stmt
	for _, vc := range g.VCs {
		if vc.Kind == ir.StmtStoreG && vc.G.Name == "s" {
			sVC = vc
		}
	}
	if sVC == nil {
		t.Skip("accumulator not a VC in this shape")
	}
	cl := partition.ComputeClosure(g, sVC)
	names := map[string]bool{}
	for st := range cl.Move {
		if st.Dst != nil {
			names[st.Dst.Base.Name] = true
		}
	}
	if !names["t2"] || !names["t1"] {
		t.Errorf("closure of s misses producers: %v", names)
	}
}

func TestCopyCondsForConditionalVC(t *testing.T) {
	g, m := loopGraph(t, `
var best int;
var data int[512];
func main() {
	var i int = 0;
	while (i < 512) {
		var v int = data[i & 511] * 3 + (i & 63) + (i % 7) + (i >> 2) % 5;
		v = v + v % 13 + (v >> 1) % 11 + (i % 17);
		if (v > best + 60) {
			best = v;
		}
		i = i + 1;
	}
	print(best);
}
`, 0)
	var bestVC *ir.Stmt
	for _, vc := range g.VCs {
		if vc.Kind == ir.StmtStoreG && vc.G.Name == "best" {
			bestVC = vc
		}
	}
	if bestVC == nil {
		t.Fatal("conditional store not a VC")
	}
	cl := partition.ComputeClosure(g, bestVC)
	if len(cl.CopyConds) == 0 {
		t.Error("moving a conditional store must copy its controlling branch (Figure 12)")
	}
	_ = m
}

// TestMonotonicityOnRealLoop mirrors the §5 pruning premise on a real
// dependence graph: growing the moved VC set never increases cost.
func TestMonotonicityOnRealLoop(t *testing.T) {
	g, m := loopGraph(t, fig2ish, 0)
	if len(g.VCs) > 10 {
		t.Skip("too many VCs")
	}
	costOf := func(mask int) float64 {
		move := map[*ir.Stmt]bool{}
		for i, vc := range g.VCs {
			if mask&(1<<i) != 0 {
				cl := partition.ComputeClosure(g, vc)
				for s := range cl.Move {
					move[s] = true
				}
			}
		}
		return m.Evaluate(move)
	}
	for mask := 0; mask < 1<<len(g.VCs); mask++ {
		base := costOf(mask)
		for i := range g.VCs {
			if mask&(1<<i) != 0 {
				continue
			}
			if bigger := costOf(mask | 1<<i); bigger > base+1e-9 {
				t.Errorf("adding VC %d to %b increased cost %.4f -> %.4f", i, mask, base, bigger)
			}
		}
	}
}
