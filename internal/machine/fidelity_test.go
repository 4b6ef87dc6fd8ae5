package machine_test

import (
	"reflect"
	"strings"
	"testing"

	"sptc"
	"sptc/internal/benchprog"
	"sptc/internal/machine"
)

// fidelityLevels are the compilation levels the differential oracle
// sweeps: the non-SPT reference plus the two speculation-heavy levels,
// so forks, speculative legs, violation re-execution, and value
// prediction are all exercised under both engines.
var fidelityLevels = []sptc.Level{sptc.LevelBase, sptc.LevelBest, sptc.LevelAnticipated}

// runEngine executes one compiled program under the given engine and
// returns the result plus the program output.
func runEngine(t *testing.T, res *sptc.Result, kind machine.EngineKind) (*machine.Result, string) {
	t.Helper()
	opt := sptc.SimulationOptions(res)
	var out strings.Builder
	opt.Out = &out
	opt.Engine = kind
	sim, err := machine.Run(res.Prog, machine.DefaultConfig(), opt)
	if err != nil {
		t.Fatalf("engine %v: %v", kind, err)
	}
	return sim, out.String()
}

// requireIdentical asserts two results are bit-identical: same output
// bytes, same cycle count (exact float equality — the engines must
// accumulate in the same order), and the same value for every counter
// and per-loop statistic.
func requireIdentical(t *testing.T, label string, tree, bc *machine.Result, treeOut, bcOut string) {
	t.Helper()
	if treeOut != bcOut {
		t.Errorf("%s: output differs: tree %q, bytecode %q", label, treeOut, bcOut)
	}
	if tree.Cycles != bc.Cycles {
		t.Errorf("%s: cycles differ: tree %v, bytecode %v", label, tree.Cycles, bc.Cycles)
	}
	if tree.Ops != bc.Ops {
		t.Errorf("%s: sim_instructions differ: tree %d, bytecode %d", label, tree.Ops, bc.Ops)
	}
	if tree.BranchLookups != bc.BranchLookups || tree.BranchMisses != bc.BranchMisses {
		t.Errorf("%s: branch counters differ: tree %d/%d, bytecode %d/%d",
			label, tree.BranchLookups, tree.BranchMisses, bc.BranchLookups, bc.BranchMisses)
	}
	if tree.MemAccesses != bc.MemAccesses {
		t.Errorf("%s: mem_accesses differ: tree %d, bytecode %d", label, tree.MemAccesses, bc.MemAccesses)
	}
	if !reflect.DeepEqual(tree.CyclesByLoop, bc.CyclesByLoop) {
		t.Errorf("%s: attributed cycles differ: tree %v, bytecode %v", label, tree.CyclesByLoop, bc.CyclesByLoop)
	}
	if len(tree.Loops) != len(bc.Loops) {
		t.Errorf("%s: loop-stat sets differ: tree %d loops, bytecode %d", label, len(tree.Loops), len(bc.Loops))
		return
	}
	for id, tl := range tree.Loops {
		bl := bc.Loops[id]
		if bl == nil {
			t.Errorf("%s: loop %d present only under tree engine", label, id)
			continue
		}
		if *tl != *bl {
			t.Errorf("%s: loop %d stats differ:\n tree    %+v\n bytecode %+v", label, id, *tl, *bl)
		}
	}
}

// TestEngineFidelity is the differential oracle for the bytecode engine:
// every benchmark in the suite, at every compilation level, must produce
// bit-identical results (output, cycles, instruction counts, branch and
// memory counters, per-loop speculation statistics) under the flat
// bytecode engine and the reference tree-walking interpreter.
func TestEngineFidelity(t *testing.T) {
	suite := benchprog.Suite()
	if testing.Short() {
		suite = suite[:3]
	}
	for _, b := range suite {
		for _, level := range fidelityLevels {
			b, level := b, level
			t.Run(b.Name+"/"+level.String(), func(t *testing.T) {
				t.Parallel()
				res, err := sptc.Compile(b.Name+".spl", b.Source, level)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				tree, treeOut := runEngine(t, res, machine.EngineTree)
				bc, bcOut := runEngine(t, res, machine.EngineBytecode)
				requireIdentical(t, b.Name+"/"+level.String(), tree, bc, treeOut, bcOut)
			})
		}
	}
}

// TestEngineFidelitySmallPrograms covers the hand-written kernels used
// elsewhere in this package (an SPT-friendly float loop and a serial
// recurrence) so failures localize to a small IR.
func TestEngineFidelitySmallPrograms(t *testing.T) {
	for _, tc := range []struct {
		name, src string
	}{{"specFriendly", specFriendly}, {"serialLoop", serialLoop}} {
		for _, level := range fidelityLevels {
			res, err := sptc.Compile(tc.name+".spl", tc.src, level)
			if err != nil {
				t.Fatalf("compile %s: %v", tc.name, err)
			}
			tree, treeOut := runEngine(t, res, machine.EngineTree)
			bc, bcOut := runEngine(t, res, machine.EngineBytecode)
			requireIdentical(t, tc.name+"/"+level.String(), tree, bc, treeOut, bcOut)
		}
	}
}

// TestPooledEngineFidelity checks that an Engine reused across jobs (the
// RunBatch worker pattern) matches fresh runs bit-for-bit: pooled
// memory, cache and predictor tables, frame pools, and speculative
// buffers must reset to run-fresh semantics.
func TestPooledEngineFidelity(t *testing.T) {
	progs := []benchprog.Benchmark{
		*benchprog.ByName("bzip2"),
		*benchprog.ByName("vpr"),
		{Name: "specFriendly", Source: specFriendly},
	}
	for _, kind := range []machine.EngineKind{machine.EngineTree, machine.EngineBytecode} {
		e := machine.NewEngine()
		for round := 0; round < 2; round++ {
			for _, b := range progs {
				res, err := sptc.Compile(b.Name+".spl", b.Source, sptc.LevelBest)
				if err != nil {
					t.Fatalf("compile %s: %v", b.Name, err)
				}
				fresh, freshOut := runEngine(t, res, kind)
				opt := sptc.SimulationOptions(res)
				var out strings.Builder
				opt.Out = &out
				opt.Engine = kind
				pooled, err := e.Run(res.Prog, machine.DefaultConfig(), opt)
				if err != nil {
					t.Fatalf("pooled run %s: %v", b.Name, err)
				}
				label := b.Name + "/" + kind.String() + "/round" + string(rune('0'+round))
				requireIdentical(t, label, fresh, pooled, freshOut, out.String())
			}
		}
	}
}

// TestAttributionIsPureObserver pins what lets the evaluation measure
// Figure 16's maximum coverage on the base simulation itself: loop
// attribution (CoverageOptions) changes nothing the run reports besides
// CyclesByLoop — not the output, cycles, instruction, branch and memory
// counters, or per-loop statistics — on either engine.
func TestAttributionIsPureObserver(t *testing.T) {
	for _, b := range benchprog.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			res, err := sptc.Compile(b.Name+".spl", b.Source, sptc.LevelBase)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, kind := range []machine.EngineKind{machine.EngineTree, machine.EngineBytecode} {
				plain, plainOut := runEngine(t, res, kind)
				opt, sizes := sptc.CoverageOptions(res.Prog, 1000)
				if len(sizes) == 0 {
					t.Fatal("no loops to attribute")
				}
				var out strings.Builder
				opt.Out = &out
				opt.Engine = kind
				attr, err := machine.Run(res.Prog, machine.DefaultConfig(), opt)
				if err != nil {
					t.Fatalf("engine %v: %v", kind, err)
				}
				if len(attr.CyclesByLoop) == 0 {
					t.Errorf("%v: attributed no cycles", kind)
				}
				// Everything but the attribution itself must match.
				cmp := *attr
				cmp.CyclesByLoop = plain.CyclesByLoop
				requireIdentical(t, b.Name+"/"+kind.String()+": plain vs attributed", plain, &cmp, plainOut, out.String())
			}
		})
	}
}
