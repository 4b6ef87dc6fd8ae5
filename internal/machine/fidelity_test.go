package machine_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"sptc"
	"sptc/internal/benchprog"
	"sptc/internal/ir"
	"sptc/internal/machine"
)

// fidelityLevels are the compilation levels the differential oracle
// sweeps: the non-SPT reference plus the two speculation-heavy levels,
// so forks, speculative legs, violation re-execution, and value
// prediction are all exercised under both engines.
var fidelityLevels = []sptc.Level{sptc.LevelBase, sptc.LevelBest, sptc.LevelAnticipated}

// engine is one of the two simulators under comparison: the bytecode
// engine that production runs, or the reference tree walker.
type engine struct {
	name string
	new  func() *machine.Engine
}

var (
	bytecodeEngine = engine{"bytecode", machine.NewEngine}
	treeEngine     = engine{"tree", machine.NewTreeEngine}
	bothEngines    = []engine{treeEngine, bytecodeEngine}
)

// runEngine executes one compiled program under the given engine and
// returns the result plus the program output.
func runEngine(t *testing.T, res *sptc.Result, eng engine) (*machine.Result, string) {
	t.Helper()
	opt := sptc.SimulationOptions(res)
	var out strings.Builder
	opt.Out = &out
	sim, err := eng.new().Run(res.Prog, machine.DefaultConfig(), opt)
	if err != nil {
		t.Fatalf("engine %s: %v", eng.name, err)
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
				tree, treeOut := runEngine(t, res, treeEngine)
				bc, bcOut := runEngine(t, res, bytecodeEngine)
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
			tree, treeOut := runEngine(t, res, treeEngine)
			bc, bcOut := runEngine(t, res, bytecodeEngine)
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
	for _, eng := range bothEngines {
		e := eng.new()
		for round := 0; round < 2; round++ {
			for _, b := range progs {
				res, err := sptc.Compile(b.Name+".spl", b.Source, sptc.LevelBest)
				if err != nil {
					t.Fatalf("compile %s: %v", b.Name, err)
				}
				fresh, freshOut := runEngine(t, res, eng)
				opt := sptc.SimulationOptions(res)
				var out strings.Builder
				opt.Out = &out
				pooled, err := e.Run(res.Prog, machine.DefaultConfig(), opt)
				if err != nil {
					t.Fatalf("pooled run %s: %v", b.Name, err)
				}
				label := b.Name + "/" + eng.name + "/round" + string(rune('0'+round))
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
			for _, eng := range bothEngines {
				plain, plainOut := runEngine(t, res, eng)
				opt, sizes := sptc.CoverageOptions(res.Prog, 1000)
				if len(sizes) == 0 {
					t.Fatal("no loops to attribute")
				}
				var out strings.Builder
				opt.Out = &out
				attr, err := eng.new().Run(res.Prog, machine.DefaultConfig(), opt)
				if err != nil {
					t.Fatalf("engine %s: %v", eng.name, err)
				}
				if len(attr.CyclesByLoop) == 0 {
					t.Errorf("%s: attributed no cycles", eng.name)
				}
				// Everything but the attribution itself must match.
				cmp := *attr
				cmp.CyclesByLoop = plain.CyclesByLoop
				requireIdentical(t, b.Name+"/"+eng.name+": plain vs attributed", plain, &cmp, plainOut, out.String())
			}
		})
	}
}

// returnThroughLoop builds find(), whose SPT loop returns from inside
// its body, and a main that prints find()'s result:
//
//	find: b0: i0 = 0; goto b1
//	      b1: i1 = phi(i0, i2); fork; i2 = i1 + 1; if i2 < limit goto b2 else b3
//	      b2: goto b1
//	      b3: return i2 * 10
//
// The return block b3 is listed among the loop's blocks, which no
// natural loop does: a return block cannot reach its loop's header.
func returnThroughLoop(limit int64) (*ir.Program, machine.RunOptions) {
	prog := ir.NewProgram()
	f := prog.NewFunc("find", ir.ValInt)
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = b0
	b0.Succs = []*ir.Block{b1}
	b1.Preds = []*ir.Block{b0, b2}
	b1.Succs = []*ir.Block{b2, b3}
	b2.Preds, b2.Succs = []*ir.Block{b1}, []*ir.Block{b1}
	b3.Preds = []*ir.Block{b1}

	constI := func(v int64) *ir.Op {
		o := f.NewOp(ir.OpConstInt, ir.ValInt)
		o.ConstI = v
		return o
	}
	useVar := func(v *ir.Var) *ir.Op {
		o := f.NewOp(ir.OpUseVar, ir.ValInt)
		o.Var = v
		return o
	}
	bin := func(op ir.BinOp, x, y *ir.Op) *ir.Op {
		o := f.NewOp(ir.OpBin, ir.ValInt)
		o.Bin = op
		o.Args = []*ir.Op{x, y}
		return o
	}
	i0, i1, i2 := f.NewVar("i0", ir.ValInt), f.NewVar("i1", ir.ValInt), f.NewVar("i2", ir.ValInt)
	init := f.NewStmt(ir.StmtAssign)
	init.Dst, init.RHS = i0, constI(0)
	b0.Stmts = []*ir.Stmt{init, f.NewStmt(ir.StmtGoto)}
	phi := f.NewStmt(ir.StmtPhi)
	phi.Dst, phi.PhiArgs = i1, []*ir.Var{i0, i2}
	inc := f.NewStmt(ir.StmtAssign)
	inc.Dst, inc.RHS = i2, bin(ir.BinAdd, useVar(i1), constI(1))
	iff := f.NewStmt(ir.StmtIf)
	iff.RHS = bin(ir.BinLt, useVar(i2), constI(limit))
	b1.Stmts = []*ir.Stmt{phi, f.NewStmt(ir.StmtFork), inc, iff}
	b2.Stmts = []*ir.Stmt{f.NewStmt(ir.StmtGoto)}
	ret := f.NewStmt(ir.StmtRet)
	ret.RHS = bin(ir.BinMul, useVar(i2), constI(10))
	b3.Stmts = []*ir.Stmt{ret}

	m := prog.NewFunc("main", ir.ValInt)
	mb := m.NewBlock()
	m.Entry = mb
	call := m.NewOp(ir.OpCall, ir.ValInt)
	call.Str, call.Func = "find", f
	print := m.NewOp(ir.OpCall, ir.ValVoid)
	print.Str, print.Builtin, print.Args = "print", true, []*ir.Op{call}
	show := m.NewStmt(ir.StmtCall)
	show.RHS = print
	mret := m.NewStmt(ir.StmtRet)
	mret.RHS = m.NewOp(ir.OpConstInt, ir.ValInt)
	mb.Stmts = []*ir.Stmt{show, mret}

	return prog, machine.RunOptions{
		SPTHeaders: map[*ir.Block]int{b1: 0},
		LoopBlocks: map[*ir.Block]map[*ir.Block]bool{b1: {b1: true, b2: true, b3: true}},
	}
}

// TestEngineFidelityReturnThroughLoop: both engines reject a loop
// block set holding a returning block with the same typed error, before
// the program runs (nothing is printed).
func TestEngineFidelityReturnThroughLoop(t *testing.T) {
	var msgs [2]string
	for i, eng := range bothEngines {
		prog, ro := returnThroughLoop(40)
		var out strings.Builder
		ro.Out = &out
		_, err := eng.new().Run(prog, machine.DefaultConfig(), ro)
		var le *machine.LoopBlocksError
		if !errors.As(err, &le) {
			t.Fatalf("%s: err = %v, want a *machine.LoopBlocksError", eng.name, err)
		}
		if le.Header != 1 || le.Block != 3 {
			t.Errorf("%s: rejected loop b%d block b%d, want loop b1 block b3", eng.name, le.Header, le.Block)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q before rejecting the run", eng.name, out.String())
		}
		msgs[i] = err.Error()
	}
	if msgs[0] != msgs[1] {
		t.Errorf("engines disagree on the error: %q vs %q", msgs[0], msgs[1])
	}
}
