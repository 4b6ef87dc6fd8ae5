package machine_test

import (
	"strings"
	"testing"

	"sptc/internal/ir"
	"sptc/internal/machine"
	"sptc/internal/trace"
)

// TestForkKillChargeOneOpEach pins the fork/kill accounting convention:
// each executes as exactly one dynamic instruction on whichever core
// runs it. The hand-built program is main() { fork; kill; return 0 },
// so the expected op count is exact: one for the fork, one for the
// kill, one for the return. The pre-fix walker charged no op for
// StmtFork (Ops would read 2 here), while StmtKill did charge one —
// an asymmetry that skewed sim_instructions on every SPT run.
func TestForkKillChargeOneOpEach(t *testing.T) {
	build := func() *ir.Program {
		prog := ir.NewProgram()
		f := prog.NewFunc("main", ir.ValInt)
		b := f.NewBlock()
		f.Entry = b
		fork := f.NewStmt(ir.StmtFork)
		kill := f.NewStmt(ir.StmtKill)
		ret := f.NewStmt(ir.StmtRet)
		c := f.NewOp(ir.OpConstInt, ir.ValInt)
		ret.RHS = c
		b.Stmts = []*ir.Stmt{fork, kill, ret}
		return prog
	}
	cfg := machine.DefaultConfig()
	for _, eng := range bothEngines {
		res, err := eng.new().Run(build(), cfg, machine.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if res.Ops != 3 {
			t.Errorf("%s: Ops = %d, want 3 (fork + kill + return, one op each)", eng.name, res.Ops)
		}
		want := cfg.CallOverhead + cfg.KillOverhead + cfg.IssueCost
		if res.Cycles != want {
			t.Errorf("%s: Cycles = %v, want %v (call + kill + return issue)", eng.name, res.Cycles, want)
		}
	}
}

// calleeTaintLoop hand-builds the transformed loop the regression needs
// (the partition search would hoist the violating call into the
// pre-fork region, hiding the bug):
//
//	func touch() int { t = load g; store g = t + 3; return t }
//	func main() {
//	  b0: i0 = 0; goto b1
//	  b1: i1 = phi(i0, i2); i2 = i1 + 1        // induction pre-fork
//	      fork
//	      v = touch()                          // violating read, post-fork
//	      c1 = v + 1; ... c8 = c7 + 1          // caller chain tainted
//	                                           // only via v's return taint
//	      store out = c8
//	      if i2 < 300 goto b1 else b2
//	  b2: kill; return 0
//	}
//
// The speculative leg's only violation is touch's load of g (written by
// the main leg after its fork point), so the taint reaching c1..c8 and
// the store exists purely through the callee's *return value* — the
// call has no arguments to carry it.
func calleeTaintLoop() (*ir.Program, machine.RunOptions) {
	prog := ir.NewProgram()
	g := &ir.Global{Name: "g", Elem: ir.ValInt}
	out := &ir.Global{Name: "out", Elem: ir.ValInt}
	prog.AddGlobal(g)
	prog.AddGlobal(out)

	touch := prog.NewFunc("touch", ir.ValInt)
	tb := touch.NewBlock()
	touch.Entry = tb
	tv := touch.NewVar("t", ir.ValInt)
	load := touch.NewStmt(ir.StmtAssign)
	load.Dst = tv
	load.RHS = touch.NewOp(ir.OpLoadG, ir.ValInt)
	load.RHS.G = g
	store := touch.NewStmt(ir.StmtStoreG)
	store.G = g
	add := touch.NewOp(ir.OpBin, ir.ValInt)
	add.Bin = ir.BinAdd
	use := touch.NewOp(ir.OpUseVar, ir.ValInt)
	use.Var = tv
	three := touch.NewOp(ir.OpConstInt, ir.ValInt)
	three.ConstI = 3
	add.Args = []*ir.Op{use, three}
	store.RHS = add
	ret := touch.NewStmt(ir.StmtRet)
	ret.RHS = touch.NewOp(ir.OpUseVar, ir.ValInt)
	ret.RHS.Var = tv
	tb.Stmts = []*ir.Stmt{load, store, ret}

	f := prog.NewFunc("main", ir.ValInt)
	b0, b1, b2 := f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = b0
	b0.Succs = []*ir.Block{b1}
	b1.Preds = []*ir.Block{b0, b1}
	b1.Succs = []*ir.Block{b1, b2}
	b2.Preds = []*ir.Block{b1}

	newVar := f.NewVar
	i0, i1, i2 := newVar("i0", ir.ValInt), newVar("i1", ir.ValInt), newVar("i2", ir.ValInt)
	assign := func(dst *ir.Var, rhs *ir.Op) *ir.Stmt {
		st := f.NewStmt(ir.StmtAssign)
		st.Dst, st.RHS = dst, rhs
		return st
	}
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

	b0.Stmts = []*ir.Stmt{assign(i0, constI(0)), f.NewStmt(ir.StmtGoto)}

	phi := f.NewStmt(ir.StmtPhi)
	phi.Dst = i1
	phi.PhiArgs = []*ir.Var{i0, i2}
	b1.Stmts = []*ir.Stmt{phi, assign(i2, bin(ir.BinAdd, useVar(i1), constI(1))), f.NewStmt(ir.StmtFork)}
	call := f.NewOp(ir.OpCall, ir.ValInt)
	call.Str, call.Func = "touch", touch
	v := newVar("v", ir.ValInt)
	b1.Stmts = append(b1.Stmts, assign(v, call))
	prev := v
	for k := 0; k < 8; k++ {
		c := newVar("c", ir.ValInt)
		b1.Stmts = append(b1.Stmts, assign(c, bin(ir.BinAdd, useVar(prev), constI(1))))
		prev = c
	}
	sto := f.NewStmt(ir.StmtStoreG)
	sto.G = out
	sto.RHS = useVar(prev)
	iff := f.NewStmt(ir.StmtIf)
	iff.RHS = bin(ir.BinLt, useVar(i2), constI(300))
	b1.Stmts = append(b1.Stmts, sto, iff)

	retz := f.NewStmt(ir.StmtRet)
	retz.RHS = constI(0)
	b2.Stmts = []*ir.Stmt{f.NewStmt(ir.StmtKill), retz}

	opt := machine.RunOptions{
		SPTHeaders: map[*ir.Block]int{b1: 0},
		LoopBlocks: map[*ir.Block]map[*ir.Block]bool{b1: {b1: true}},
	}
	return prog, opt
}

// TestCalleeReturnTaintPropagates is the regression test for the
// dropped-callee-return-taint bug: evalCall used to report only the
// argument taint as the call's taint, so a violation observed inside
// the callee never tainted the caller's dependent chain and the
// re-executed-op count missed almost the whole iteration. With the fix,
// every statement downstream of v = touch() is charged as re-executed
// work, so ReexecOps per misspeculated iteration must cover the caller
// chain, not just the callee's couple of statements.
func TestCalleeReturnTaintPropagates(t *testing.T) {
	for _, eng := range bothEngines {
		prog, ro := calleeTaintLoop()
		sim, err := eng.new().Run(prog, machine.DefaultConfig(), ro)
		if err != nil {
			t.Fatalf("%s: simulate: %v", eng.name, err)
		}
		ls := sim.Loops[0]
		if ls == nil || ls.SpecIters == 0 {
			t.Fatalf("%s: loop did not speculate: %+v", eng.name, ls)
		}
		if ls.MisspecIters != ls.SpecIters {
			t.Errorf("%s: MisspecIters = %d of %d speculative iters; every leg reads the advanced cursor and must violate",
				eng.name, ls.MisspecIters, ls.SpecIters)
		}
		// Each misspeculated iteration re-executes the caller's dependent
		// chain (v = touch(), c1..c8, the store: ten statements at two or
		// more charged ops each) on top of the callee's own tainted
		// statements. Pre-fix only the callee's three statements were
		// charged (~6 ops/iteration), far below this floor.
		if ls.ReexecOps < 15*ls.MisspecIters {
			t.Errorf("%s: ReexecOps = %d for %d misspeculated iters (%.1f/iter); callee return taint is not reaching the caller",
				eng.name, ls.ReexecOps, ls.MisspecIters, float64(ls.ReexecOps)/float64(ls.MisspecIters))
		}
	}
}

// TestMainMissingTagsTraceSpan is the regression test for the untagged
// trace span on the prog.Main == nil error path: machine.Run must tag
// the simulate span with the error like every other early return, so a
// trace of a failed batch shows which job died and why.
func TestMainMissingTagsTraceSpan(t *testing.T) {
	tr := trace.New()
	tk := tr.StartTrack("job")
	_, err := machine.Run(ir.NewProgram(), machine.DefaultConfig(), machine.RunOptions{Trace: tk})
	if err == nil {
		t.Fatal("expected an error for a program without main")
	}
	sp := tk.Find("simulate")
	if sp == nil {
		t.Fatal("no simulate span recorded")
	}
	var tagged bool
	for _, a := range sp.Args {
		if a.Key == "error" && strings.Contains(a.S, "no main") {
			tagged = true
		}
	}
	if !tagged {
		t.Errorf("simulate span not tagged with the error: args = %+v", sp.Args)
	}
}
