package cost

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"sptc/internal/benchprog"
	"sptc/internal/bitset"
	"sptc/internal/depgraph"
	"sptc/internal/ir"
	"sptc/internal/parser"
	"sptc/internal/profile"
	"sptc/internal/sem"
	"sptc/internal/splgen"
	"sptc/internal/ssa"
)

// loopModels compiles and profiles src and returns the cost model of
// every loop of every function that has a dependence graph.
func loopModels(tb testing.TB, src string) []*Model {
	tb.Helper()
	p, err := parser.Parse("t.spl", src)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(p)
	if err != nil {
		tb.Fatalf("check: %v", err)
	}
	prog, err := ir.Build(info)
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	an := make(map[*ir.Func]*depgraph.Analysis)
	nests := make(map[*ir.Func]*ssa.LoopNest)
	for _, f := range prog.Funcs {
		ssa.Repair(f)
		an[f] = depgraph.Analyze(f)
		nests[f] = an[f].Loops
	}
	prof, err := profile.Run(context.Background(), prog, nests, io.Discard, 0)
	if err != nil {
		tb.Fatalf("profile: %v", err)
	}
	prof.Edge.Apply(prog)
	effects := depgraph.ComputeEffects(prog)
	var ms []*Model
	for _, f := range prog.Funcs {
		for _, l := range nests[f].Loops {
			g := depgraph.Build(l, depgraph.Config{UseProfile: true, Dep: prof.Dep, Effects: effects, Analysis: an[f]})
			if g != nil {
				ms = append(ms, Build(g))
			}
		}
	}
	return ms
}

// TestEvaluatorRandomWalks drives one evaluator per model through a
// random walk of zero-sets, as the partition search does: mostly a few
// candidates flipped per step, sometimes a jump to an unrelated set.
// Every answer must equal a fresh evaluator's answer for the same set
// bit for bit — the sum tree and the dirty worklist leave no trace of
// the history — and the from-scratch Evaluate within 1e-12 relative.
// The models are the loops of generated, adversarial and benchmark
// programs plus hand-built ones with 0, 1 and more than 64 dynamic
// nodes, so the dirty bitset spans several words.
func TestEvaluatorRandomWalks(t *testing.T) {
	type named struct {
		name string
		m    *Model
	}
	var models []named
	for _, tc := range edgeCaseModels() {
		models = append(models, named{"edge/" + tc.name, tc.model})
	}
	r := rand.New(rand.NewSource(1))
	for _, size := range []struct{ pseudo, ops int }{{3, 70}, {8, 150}, {12, 300}} {
		m, _ := randomModel(r, size.pseudo, size.ops)
		models = append(models, named{fmt.Sprintf("random/%dx%d", size.pseudo, size.ops), m})
	}
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	var srcs []benchprog.Benchmark
	for s := 1; s <= seeds; s++ {
		srcs = append(srcs,
			benchprog.Benchmark{Name: fmt.Sprintf("splgen/%d", s), Source: splgen.Generate(int64(s))},
			benchprog.Benchmark{Name: fmt.Sprintf("adversarial/%d", s), Source: splgen.Adversarial(int64(s))})
	}
	srcs = append(srcs, benchprog.Suite()...)
	for _, src := range srcs {
		for i, m := range loopModels(t, src.Source) {
			models = append(models, named{fmt.Sprintf("%s/loop%d", src.Name, i), m})
		}
	}

	var sawEmpty, sawOne, sawWide bool
	for _, nm := range models {
		m := nm.m
		e := m.NewEvaluator()
		n := e.NumVCs()
		nDyn := len(e.dynIdx)
		sawEmpty = sawEmpty || nDyn == 0
		sawOne = sawOne || nDyn == 1
		sawWide = sawWide || nDyn > 64
		vcs := make([]*ir.Stmt, n)
		for _, nd := range m.Nodes {
			if nd.Pseudo {
				vcs[e.Ordinal(nd.VC)] = nd.VC
			}
		}
		zero := bitset.New(n)
		for step := 0; step < 60; step++ {
			switch {
			case n == 0:
			case r.Intn(8) == 0:
				for ord := 0; ord < n; ord++ {
					if r.Intn(2) == 0 {
						zero.Add(ord)
					} else {
						zero.Remove(ord)
					}
				}
			default:
				for k := 1 + r.Intn(3); k > 0; k-- {
					if ord := r.Intn(n); zero.Has(ord) {
						zero.Remove(ord)
					} else {
						zero.Add(ord)
					}
				}
			}
			got := e.EvalSet(zero)
			if fresh := m.NewEvaluator().EvalSet(zero); got != fresh {
				t.Fatalf("%s step %d: walked evaluator %.17g, fresh evaluator %.17g", nm.name, step, got, fresh)
			}
			pre := map[*ir.Stmt]bool{}
			zero.ForEach(func(ord int) { pre[vcs[ord]] = true })
			if want := m.Evaluate(pre); math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("%s step %d: incremental %.17g, Evaluate %.17g", nm.name, step, got, want)
			}
			if step == 30 {
				// Continue on a clone: same answers from copied state.
				e = e.Clone()
			}
		}
	}
	if !sawEmpty || !sawOne || !sawWide {
		t.Errorf("models with 0, 1, >64 dynamic nodes: %v, %v, %v; want all", sawEmpty, sawOne, sawWide)
	}
}
