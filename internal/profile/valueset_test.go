package profile_test

import (
	"fmt"
	"testing"

	"sptc/internal/benchprog"
	"sptc/internal/core"
	"sptc/internal/depgraph"
	"sptc/internal/ir"
	"sptc/internal/profile"
	"sptc/internal/splgen"
	"sptc/internal/ssa"
)

// TestSVPQueriesOnlyProfiledValues pins the value profile's static
// statement set against its one reader. At every profiling run of a
// compile at the SVP levels, it builds the dependence graph of every
// executed loop as core's applySVP does, and requires every violation
// candidate FindSVPCandidate could query — an integer assignment — to be
// one the profiler keeps a value histogram for.
func TestSVPQueriesOnlyProfiledValues(t *testing.T) {
	var queried int
	check := func(t *testing.T, name, src string, level core.Level) {
		opt := core.DefaultOptions(level)
		opt.ProfileMemo = profile.NewMemo()
		profile.ObserveMemo(opt.ProfileMemo, func(prog *ir.Program, nests map[*ir.Func]*ssa.LoopNest, prof *profile.Profiles, hit bool) {
			set := profile.ValueStmts(prog, nests)
			prof.Edge.Apply(prog)
			effects := depgraph.ComputeEffects(prog)
			for _, f := range prog.Funcs {
				a := depgraph.Analyze(f)
				for _, l := range a.Loops.Loops {
					if prof.Edge.Stats(l).Iterations == 0 {
						continue
					}
					g := depgraph.Build(l, depgraph.Config{UseProfile: true, Dep: prof.Dep, Effects: effects, Analysis: a})
					if g == nil {
						continue
					}
					for _, vc := range g.VCs {
						if vc.Kind != ir.StmtAssign || vc.Dst == nil || vc.Dst.Kind != ir.ValInt {
							continue
						}
						queried++
						if !set[vc] {
							t.Errorf("%s %v: violation candidate s%d %s has no value histogram", f.Name, l, vc.ID, ir.FormatStmt(vc))
						}
					}
				}
			}
		})
		if _, err := core.CompileSource(name, src, opt); err != nil {
			t.Fatalf("%s: %v", level, err)
		}
	}
	for _, b := range benchprog.Suite() {
		for _, level := range []core.Level{core.LevelBest, core.LevelAnticipated} {
			t.Run(b.Name+"/"+level.String(), func(t *testing.T) { check(t, b.Name, b.Source, level) })
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("splgen/%d", seed), func(t *testing.T) {
			src := splgen.Generate(seed)
			for _, level := range []core.Level{core.LevelBest, core.LevelAnticipated} {
				check(t, "gen.spl", src, level)
			}
		})
	}
	if queried == 0 {
		t.Fatal("no integer violation candidate in the corpus: the test checks nothing")
	}
	t.Logf("checked %d integer violation candidates", queried)
}
