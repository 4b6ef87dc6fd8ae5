package core

import (
	"testing"

	"sptc/internal/benchprog"
	"sptc/internal/depgraph"
	"sptc/internal/ssa"
)

// TestProfiledDependencesReachGraphs pins the loop identity the
// dependence profile is keyed by. Every dependence graph pass 1 and SVP
// build for the suite at best and anticipated, for a loop whose header
// has profiled pairs between its body statements seen within one
// iteration or at distance one, must find them through LoopPairs and
// turn at least one into a memory edge: at these levels the graph's
// memory edges come from the profile alone. (Pairs seen only at larger
// distances make no edge; the cost model speculates one iteration
// ahead.)
func TestProfiledDependencesReachGraphs(t *testing.T) {
	type built struct {
		g   *depgraph.Graph
		cfg depgraph.Config
	}
	var graphs []built
	defer func(orig func(*ssa.Loop, depgraph.Config) *depgraph.Graph) { buildGraph = orig }(buildGraph)
	buildGraph = func(l *ssa.Loop, cfg depgraph.Config) *depgraph.Graph {
		g := depgraph.Build(l, cfg)
		if g != nil {
			graphs = append(graphs, built{g, cfg})
		}
		return g
	}
	checked := 0
	for _, b := range benchprog.Suite() {
		for _, level := range []Level{LevelBest, LevelAnticipated} {
			graphs = nil
			if _, err := CompileSource(b.Name, b.Source, DefaultOptions(level)); err != nil {
				t.Fatalf("%s/%s: %v", b.Name, level, err)
			}
			for _, gb := range graphs {
				g, dep := gb.g, gb.cfg.Dep
				profiled := 0
				for k := range dep.Pairs {
					_, w := g.Order[k.W]
					_, r := g.Order[k.R]
					if c := dep.Pairs[k]; k.Header == g.Loop.Header && w && r && c.Intra+c.Cross1 > 0 {
						profiled++
					}
				}
				if profiled == 0 {
					continue
				}
				checked++
				if len(dep.LoopPairs(g.Loop.Header)) == 0 {
					t.Errorf("%s/%s %v: %d profiled pairs, LoopPairs empty", b.Name, level, g.Loop, profiled)
				}
				mem := false
				for _, e := range g.True {
					mem = mem || e.Kind == depgraph.EdgeMemory
				}
				if !mem {
					t.Errorf("%s/%s %v: %d profiled pairs, no memory edge", b.Name, level, g.Loop, profiled)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no graph had profiled pairs; test is vacuous")
	}
	t.Logf("%d graphs with profiled pairs", checked)
}
