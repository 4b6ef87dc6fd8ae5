package machine

import (
	"fmt"
	"math"
	"sync"

	"sptc/internal/interp"
	"sptc/internal/ir"
)

// This file implements the compile-once bytecode engine: each ir.Func is
// lowered into a dense flat instruction array (branch-threaded jumps by
// instruction index, per-op cycle costs pre-resolved from the Config,
// phi moves flattened into per-block parallel-copy sequences) and cached
// per (program, config), so repeated simulations of the same compiled
// program skip both lowering and the tree walk entirely.
//
// The engine is bit-identical to the reference tree walker, which lives
// in walker_test.go as its differential oracle: every cycle charge, op
// count, step, branch-predictor lookup, memory access, error message and
// output byte is issued in exactly the same order. TestEngineFidelity
// and TestEngineFidelityGenerated enforce the equivalence.

// bcOp enumerates bytecode opcodes.
type bcOp uint8

const (
	bcInvalid bcOp = iota

	// Block and control flow.
	bcEnter       // block entry: SPT check, attribution, phi parallel copy
	bcStep        // per-statement bookkeeping (steps, limits, c0/o0)
	bcGoto        // a = target pc, blk = source block
	bcIf          // a = then pc, b = else pc, st, blk = source block
	bcFellThrough // blk: block without terminator was executed to the end

	// Expression operands (push onto the value stack).
	bcConst    // val
	bcUseVar   // v
	bcLoadG    // g
	bcAddrInit // push the address accumulator for an array access
	bcAddrIdx  // a = dim, g, st: fold one index into the accumulator
	bcLoadAddr // g, st: pop accumulator, load element
	bcBinII    // bin = BinOp, xm/ym modes, cost: non-trapping int binary op
	bcBinFF    // bin = BinOp, xm/ym modes, cost: non-trapping float binary op
	bcBin      // o, st, cost: generic binary op (div/rem, mixed errors)
	bcUn       // o, cost
	bcCast     // o, cost
	bcCall     // o, st, a = argument count: user function call
	bcBuiltin  // o, st, a = argument count, b = builtin kind, cost
	bcLoadA1   // g, st, c = dims[0], xm index mode: 1-dim array load

	// Statement-fused forms: one dispatch for a whole statement whose
	// operands are variables or constants (charge-free), folding the
	// bcStep bookkeeping in. a/b carry the destination's (ID, Base.ID).
	bcAsgMove   // st, v = dst, xm: dst = operand
	bcAsgBinII  // st, v = dst, bin, xm/ym, cost: dst = x intop y
	bcAsgBinFF  // st, v = dst, bin, xm/ym, cost: dst = x floatop y
	bcAsgLoadG  // st, v = dst, g: dst = global
	bcAsgLoadA1 // st, v = dst, g, c = dims[0], xm: dst = g[x]
	bcStoreGF   // st, g, xm: global = operand
	bcStoreA1F  // st, g, c = dims[0], xm index, ym value: g[x] = y
	bcIfBinII   // st, blk, bin, xm/ym, a/b targets, cost: if (x intop y)
	bcIfVal     // st, blk, xm, bin = float flag, a/b targets: if (operand)

	// Finisher-merged forms: the statement's last expression op and its
	// finisher in one dispatch. Unlike the statement-fused forms these
	// follow a bcStep (operands may be charging stack expressions), so
	// they use the step's c0/o0 baseline for speculative charging.
	bcBinAsgII  // st, v = dst, bin, xm/ym, cost: dst = x intop y
	bcBinAsgFF  // st, v = dst, bin, xm/ym, cost: dst = x floatop y
	bcLoadAsgA1 // st, v = dst, g, c = dims[0], xm: dst = g[x]
	bcStoreA1NS // st, g, c = dims[0], xm index (stack), ym value: g[x] = y

	// print builtin (interleaved with argument evaluation, like the
	// walker: the taint accumulator lives on the value stack).
	bcPrintBegin // cost = PrintCost
	bcPrintSpace
	bcPrintStr // str
	bcPrintVal // b = 1 for float formatting
	bcPrintEnd

	// Statement finishers.
	bcAssign   // st, v = destination, cost = IssueCost
	bcStoreG   // st, g, cost
	bcStoreA   // st, g, cost (pops value then address accumulator)
	bcCallStmt // st: call evaluated for effect
	bcRet      // st, a = 1 when a value is returned, cost
	bcFork     // st
	bcKill     // st, cost = KillOverhead

	bcBad // str: pre-formatted runtime error (reached only if executed)

	// bcBinII2 chains two non-trapping int binary ops in one dispatch:
	// the first op is a full bcBinII; its result feeds the second op
	// directly (no stack round-trip). Second-op encoding in the hot
	// instr: d packs bin2<<16 | rIsY<<8 | ym2, c holds the operand (var
	// ID, or the int32 constant value), cost2 holds the second op's
	// cycle cost, and aux.v holds the operand var for the speculative
	// read path. Emitted by the emit peephole when a bcBinII
	// immediately consumes the previous bcBinII's result.
	bcBinII2
)

// bcStepped flags an instruction that folds the preceding bare bcStep's
// statement prologue (step count, limit check, context poll, c0/o0
// capture) into its own dispatch. emit sets it when it would otherwise
// append an instruction right after a bare bcStep, replacing the step's
// slot: the prologue runs first, then the op, exactly the sequence the
// two separate dispatches produced. A bare bcStep carries no state of
// its own (its st pointer is never read), so the merge is
// semantics-preserving; executors mask the flag off before switching.
const bcStepped bcOp = 0x80

// Builtin kinds for bcBuiltin.b.
const (
	bFabs = iota
	bFsqrt
	bFmin
	bFmax
	bIabs
	bImin
	bImax
	bUnknown
)

// Fused-operand modes (instr.xm / instr.ym): where a binary or fused
// statement operand comes from. Stack operands were evaluated by
// preceding instructions; const and var operands are fetched inline,
// which is safe because their evaluation is charge-free and effect-free
// in the walker too.
const (
	bcMStack = iota
	bcMConst // x: val2, y: val
	bcMVar   // x: xv, y: yv
)

// linstr is one instruction in its lowering-time form, carrying the IR
// pointers the lowering rules work with. After fixup resolution each
// linstr is split (splitInstr) into a compact hot instr the dispatch
// loop fetches, plus an instrAux entry for the cold fields.
type linstr struct {
	op     bcOp
	bin    uint8 // fused binary operator; bcIf/bcIfVal: 1 = float condition
	xm, ym uint8 // fused operand modes
	a, b   int32 // jump targets, arg counts, or fused dst (ID, Base.ID)
	c      int32 // fused 1-dim array ops: g.Dims[0]; bcBinII2 second-op const
	cost   float64
	val    Value // bcConst value; fused y-operand const
	val2   Value // fused x-operand const
	st     *ir.Stmt
	o      *ir.Op
	v      *ir.Var // bcUseVar/bcAssign var; fused dst
	xv, yv *ir.Var // fused operand vars
	g      *ir.Global
	blk    *ir.Block
	str    string

	// bcBinII2 second-op fields (set by the emit peephole).
	bin2  uint8   // second operator
	ym2   uint8   // second non-result operand mode (bcMVar or bcMConst)
	rIsY  uint8   // 1 when the first op's result is the second op's y
	y2v   *ir.Var // second operand var (ym2 == bcMVar)
	cost2 float64 // second op's cycle cost (charged as its own add)
}

// instr is one executed instruction: a 64-byte record holding only what
// the dispatch loop's fast paths read, so a fetch touches one cache
// line. Derived scalars replace pointer chases: operand variable IDs
// (xid/yid), global addresses (c or d), branch-predictor sites and
// unary/cast kinds are pre-resolved by splitInstr. Slow paths (spec
// reads, calls, errors) find the original IR pointers in the parallel
// aux array at the same index.
type instr struct {
	op     bcOp
	bin    uint8 // fused BinOp; if: float-cond flag; un/cast: kind
	xm, ym uint8 // fused operand modes
	a, b   int32 // jump targets, arg counts, dst (ID, Base.ID), var ID
	c      int32 // 1-dim ops: g.Dims[0]; global/addr ops: g.Addr
	d      int32 // 1-dim ops: g.Addr; branches: predictor site (st.ID)
	xid    int32 // x operand variable ID (xm == bcMVar)
	yid    int32 // y operand variable ID (ym == bcMVar)
	cost   float64
	val    Value   // bcConst value; fused const operand (at most one)
	cost2  float64 // bcBinII2: the second op's cycle cost
	blk    *ir.Block
}

// instrAux holds an instruction's cold operands, off the fetch path.
type instrAux struct {
	st     *ir.Stmt
	o      *ir.Op
	v      *ir.Var // bcUseVar/bcAssign var; fused dst
	xv, yv *ir.Var // fused operand vars
	g      *ir.Global
	str    string
}

// lowFunc is one lowered function.
type lowFunc struct {
	fn     *ir.Func
	code   []instr
	aux    []instrAux          // cold halves, parallel to code
	entry  map[*ir.Block]int32 // block -> its bcEnter pc
	phis   [][]*ir.Stmt        // phi lists referenced by bcEnter.a
	blocks []*ir.Block         // dense block numbering (bcEnter.b indexes it)
	// maxStack is the deepest operand stack any single activation of this
	// function can reach; the executor pre-sizes its stack window with it
	// so pushes never reallocate mid-frame.
	maxStack int
}

// loweredProg is a whole program lowered against one machine config.
type loweredProg struct {
	fns map[*ir.Func]*lowFunc
}

// ---- lowering ----

type lowerer struct {
	cfg  Config
	f    *ir.Func
	lf   *lowFunc
	code []linstr // lowering-time instruction buffer, split after fixups
	fix  []fixup  // jump operands patched once all blocks are placed

	depth, maxDepth int // operand-stack depth tracking during lowering
}

// stk records an instruction's net operand-stack effect.
func (lo *lowerer) stk(d int) {
	lo.depth += d
	if lo.depth > lo.maxDepth {
		lo.maxDepth = lo.depth
	}
}

type fixup struct {
	pc     int32
	target *ir.Block
	field  uint8 // 0: a, 1: b
}

func (lo *lowerer) emit(in linstr) int32 {
	if n := len(lo.code); n > 0 {
		if lo.code[n-1].op == bcStep && in.op != bcStep {
			// Fold the statement's bcStep prologue into its first real
			// instruction (see bcStepped). Steps never start a block —
			// every block opens with bcEnter — so no jump target or entry
			// can reference the replaced slot.
			in.op |= bcStepped
			lo.code[n-1] = in
			return int32(n - 1)
		}
		if in.op == bcBinII {
			if prev := &lo.code[n-1]; prev.op&^bcStepped == bcBinII {
				if pc, ok := lo.mergeBinII(prev, &in, int32(n-1)); ok {
					return pc
				}
			}
		}
	}
	pc := int32(len(lo.code))
	lo.code = append(lo.code, in)
	return pc
}

// mergeBinII turns the just-emitted bcBinII (prev) plus a new bcBinII
// that consumes its result into one bcBinII2, when the new op's only
// stack operand is that result and its other operand is a variable or
// an int32-size constant. Expression trees lower the single stack
// operand's chain immediately before the consuming op, so the previous
// instruction's result is always the top of stack here. The pair
// charges exactly as the two separate ops did: two ops, two separate
// cycle-cost adds in the same order.
func (lo *lowerer) mergeBinII(prev, in *linstr, pc int32) (int32, bool) {
	var rIsY uint8
	var om uint8 // the non-result operand's mode
	var ov *ir.Var
	var oc Value
	switch {
	case in.xm == bcMStack && in.ym != bcMStack:
		rIsY, om, ov, oc = 0, in.ym, in.yv, in.val
	case in.ym == bcMStack && in.xm != bcMStack:
		rIsY, om, ov, oc = 1, in.xm, in.xv, in.val2
	default:
		return 0, false
	}
	switch om {
	case bcMVar:
		prev.c = 0 // splitInstr fills the var ID
	case bcMConst:
		if oc.Int() < -1<<31 || oc.Int() > 1<<31-1 {
			return 0, false
		}
		prev.c = int32(oc.Int())
	default:
		return 0, false
	}
	prev.op = bcBinII2 | (prev.op & bcStepped)
	prev.bin2 = in.bin
	prev.ym2 = om
	prev.rIsY = rIsY
	prev.y2v = ov
	prev.cost2 = in.cost
	return pc, true
}

// LoweringError reports a program the bytecode engine cannot lower: a
// global reaches past the int32 word addresses that lowered
// instructions hold. Such a program needs a memory image beyond 2^31
// words, so Run returns this error before sizing the image. Callers
// can tell it from a program error with errors.As.
type LoweringError struct {
	Global string
	Addr   int // first word of the global, from Program.Layout
	Size   int // words
}

func (e *LoweringError) Error() string {
	return fmt.Sprintf("machine: cannot lower program: global %s (words %d..%d) lies beyond the int32 address range",
		e.Global, e.Addr, e.Addr+e.Size-1)
}

// lowerProgramUncached lowers every function of prog, which must be laid
// out. Every global must end within the int32 range, so each address and
// array extent the lowered instructions store fits its int32 field.
func lowerProgramUncached(prog *ir.Program, cfg Config) (*loweredProg, error) {
	for _, g := range prog.Globals {
		if g.Addr+g.Size > math.MaxInt32 {
			return nil, &LoweringError{Global: g.Name, Addr: g.Addr, Size: g.Size}
		}
	}
	lp := &loweredProg{fns: make(map[*ir.Func]*lowFunc, len(prog.Funcs))}
	for _, f := range prog.Funcs {
		lp.fns[f] = lowerFunc(f, cfg)
	}
	return lp, nil
}

func lowerFunc(f *ir.Func, cfg Config) *lowFunc {
	lo := &lowerer{
		cfg: cfg,
		f:   f,
		lf:  &lowFunc{fn: f, entry: make(map[*ir.Block]int32, len(f.Blocks))},
	}
	for _, b := range f.Blocks {
		lo.depth = 0
		lo.lowerBlock(b)
	}
	lo.lf.maxStack = lo.maxDepth + 1 // +1: slack for the bcRet pop ordering
	for _, fx := range lo.fix {
		pc, ok := lo.lf.entry[fx.target]
		if !ok {
			// A successor outside f.Blocks: surface the walker's
			// fell-through error shape if control ever reaches it.
			pc = lo.emit(linstr{op: bcBad,
				str: fmt.Sprintf("machine: %s: jump to unplaced block b%d", f.Name, fx.target.ID)})
		}
		if fx.field == 0 {
			lo.code[fx.pc].a = pc
		} else {
			lo.code[fx.pc].b = pc
		}
	}
	lo.lf.code = make([]instr, len(lo.code))
	lo.lf.aux = make([]instrAux, len(lo.code))
	for i := range lo.code {
		splitInstr(&lo.code[i], &lo.lf.code[i], &lo.lf.aux[i])
	}
	return lo.lf
}

// splitInstr derives one executed instruction and its aux entry from the
// lowering-time form. Global addresses fit their int32 slots:
// lowerProgramUncached has checked every global's extent.
func splitInstr(li *linstr, in *instr, ax *instrAux) {
	*in = instr{op: li.op, bin: li.bin, xm: li.xm, ym: li.ym,
		a: li.a, b: li.b, c: li.c, cost: li.cost, val: li.val, blk: li.blk}
	*ax = instrAux{st: li.st, o: li.o, v: li.v, xv: li.xv, yv: li.yv, g: li.g, str: li.str}
	if li.xm == bcMConst {
		// At most one operand is a constant (lowering demotes the other
		// to a stack push), so the single val slot is free for it.
		in.val = li.val2
	}
	if li.xv != nil {
		in.xid = int32(li.xv.ID)
	}
	if li.yv != nil {
		in.yid = int32(li.yv.ID)
	}
	switch li.op &^ bcStepped {
	case bcLoadG, bcStoreG, bcStoreA, bcAsgLoadG, bcStoreGF, bcLoadAddr:
		in.c = int32(li.g.Addr)
	case bcLoadA1, bcAsgLoadA1, bcStoreA1F, bcLoadAsgA1, bcStoreA1NS:
		in.d = int32(li.g.Addr)
	case bcIf, bcIfVal, bcIfBinII:
		in.d = int32(li.st.ID)
	case bcBinII2:
		in.d = int32(li.bin2)<<16 | int32(li.rIsY)<<8 | int32(li.ym2)
		if li.ym2 == bcMVar {
			in.c = int32(li.y2v.ID)
		}
		ax.v = li.y2v
		in.cost2 = li.cost2
	case bcUseVar:
		in.a = int32(li.v.ID)
	case bcAssign:
		in.a, in.b = int32(li.v.ID), int32(li.v.Base.ID)
	case bcCast:
		// bin: 0 = no-op, 1 = int->float, 2 = float->int.
		o := li.o
		if o.Type == ir.ValFloat {
			if o.Args[0].Type != ir.ValFloat {
				in.bin = 1
			}
		} else if o.Args[0].Type == ir.ValFloat {
			in.bin = 2
		}
	case bcUn:
		// bin: 1 = neg float, 2 = neg int, 3 = not float, 4 = not int,
		// 5 = bitnot, 0 = invalid (errors at execution, like the walker).
		o := li.o
		switch o.Un {
		case ir.UnNeg:
			if o.Type == ir.ValFloat {
				in.bin = 1
			} else {
				in.bin = 2
			}
		case ir.UnNot:
			if o.Args[0].Type == ir.ValFloat {
				in.bin = 3
			} else {
				in.bin = 4
			}
		case ir.UnBitNot:
			in.bin = 5
		default:
			in.bin = 0
		}
	}
}

func (lo *lowerer) lowerBlock(b *ir.Block) {
	lf := lo.lf
	lf.entry[b] = int32(len(lo.code))
	phis := b.Phis()
	phiIdx := int32(-1)
	if len(phis) > 0 {
		phiIdx = int32(len(lf.phis))
		lf.phis = append(lf.phis, phis)
	}
	blkIdx := int32(len(lf.blocks))
	lf.blocks = append(lf.blocks, b)
	lo.emit(linstr{op: bcEnter, a: phiIdx, b: blkIdx, blk: b})

	terminated := false
	for _, st := range b.Stmts[len(phis):] {
		if handled, term := lo.lowerStmtFused(b, st); handled {
			if term {
				terminated = true
				break
			}
			continue
		}
		lo.emit(linstr{op: bcStep, st: st})
		switch st.Kind {
		case ir.StmtAssign:
			if lo.lowerAssignMerged(st) {
				break
			}
			lo.lowerOp(st, st.RHS)
			lo.emit(linstr{op: bcAssign, st: st, v: st.Dst, cost: lo.cfg.IssueCost})
			lo.stk(-1)

		case ir.StmtStoreG:
			lo.lowerOp(st, st.RHS)
			lo.emit(linstr{op: bcStoreG, st: st, g: st.G, cost: lo.cfg.IssueCost})
			lo.stk(-1)

		case ir.StmtStoreA:
			if len(st.Index) == 1 && fusable1Dim(st.G) {
				if ym, yc, yv, ok := fusedOperand(st.RHS); ok {
					// Index is a charging expression (the pure-index form was
					// statement-fused), value is pure: the bounds check still
					// precedes value fetch, matching the walker's order.
					lo.lowerOp(st, st.Index[0])
					lo.emit(linstr{op: bcStoreA1NS, st: st, g: st.G, c: int32(st.G.Dims[0]),
						ym: ym, val: yc, yv: yv, cost: lo.cfg.IssueCost})
					lo.stk(-1)
					break
				}
			}
			lo.emit(linstr{op: bcAddrInit})
			lo.stk(1)
			for d, ix := range st.Index {
				lo.lowerOp(st, ix)
				lo.emit(linstr{op: bcAddrIdx, a: int32(d), g: st.G, st: st})
				lo.stk(-1)
			}
			lo.lowerOp(st, st.RHS)
			lo.emit(linstr{op: bcStoreA, st: st, g: st.G, cost: lo.cfg.IssueCost})
			lo.stk(-2)

		case ir.StmtCall:
			lo.lowerOp(st, st.RHS)
			lo.emit(linstr{op: bcCallStmt, st: st})
			lo.stk(-1)

		case ir.StmtRet:
			hasVal := int32(0)
			if st.RHS != nil {
				lo.lowerOp(st, st.RHS)
				hasVal = 1
			}
			lo.emit(linstr{op: bcRet, st: st, a: hasVal, cost: lo.cfg.IssueCost})
			lo.stk(-int(hasVal))
			terminated = true

		case ir.StmtIf:
			lo.lowerOp(st, st.RHS)
			in := linstr{op: bcIf, st: st, blk: b, cost: lo.cfg.IssueCost}
			if st.RHS.Type == ir.ValFloat {
				in.bin = 1 // condition is a float value
			}
			pc := lo.emit(in)
			lo.stk(-1)
			lo.fix = append(lo.fix,
				fixup{pc, b.Succs[0], 0},
				fixup{pc, b.Succs[1], 1})
			terminated = true

		case ir.StmtGoto:
			pc := lo.emit(linstr{op: bcGoto, blk: b})
			lo.fix = append(lo.fix, fixup{pc, b.Succs[0], 0})
			terminated = true

		case ir.StmtFork:
			lo.emit(linstr{op: bcFork, st: st})

		case ir.StmtKill:
			lo.emit(linstr{op: bcKill, st: st, cost: lo.cfg.KillOverhead})

		default:
			lo.emit(linstr{op: bcBad,
				str: fmt.Sprintf("machine: invalid statement kind %s", st.Kind)})
			terminated = true
		}
		if terminated {
			break
		}
	}
	if !terminated {
		lo.emit(linstr{op: bcFellThrough, blk: b})
	}
}

// fusedOperand classifies an expression that a fused instruction can
// fetch inline: constants and variable reads are charge-free and
// effect-free in the walker, so fusing them cannot perturb cycle or op
// accounting, speculative bookkeeping, or error ordering.
func fusedOperand(o *ir.Op) (mode uint8, cv Value, v *ir.Var, ok bool) {
	switch o.Kind {
	case ir.OpConstInt:
		return bcMConst, interp.IntVal(o.ConstI), nil, true
	case ir.OpConstFloat:
		return bcMConst, interp.FloatVal(o.ConstF), nil, true
	case ir.OpUseVar:
		return bcMVar, 0, o.Var, true
	}
	return 0, 0, nil, false
}

// fastIntBin reports whether an integer binary op qualifies for the
// non-trapping fused opcodes. Div and rem qualify only when the divisor
// is a constant that can neither divide by zero nor overflow the
// quotient (INT64_MIN / -1), which makes them as pure as the other int
// ops; any other divisor keeps the generic bcBin path and its runtime
// checks.
func fastIntBin(o *ir.Op) bool {
	if o.Bin != ir.BinDiv && o.Bin != ir.BinRem {
		return true
	}
	d := o.Args[1]
	return d.Kind == ir.OpConstInt && d.ConstI != 0 && d.ConstI != -1
}

// fusable1Dim reports whether array accesses to g can use the fused
// single-dimension opcodes (dimension count 1 and a bound that fits the
// instruction's int32 field).
func fusable1Dim(g *ir.Global) bool {
	return len(g.Dims) == 1 && g.Dims[0] <= 1<<31-1
}

// lowerStmtFused lowers a whole statement into a single instruction when
// every operand is a constant or variable. The fused forms fold the
// bcStep bookkeeping in, so one dispatch covers statement prologue,
// operand fetch, the operation, and the statement finisher — in exactly
// the walker's charge order, which is possible precisely because the
// fused operands charge nothing.
func (lo *lowerer) lowerStmtFused(b *ir.Block, st *ir.Stmt) (handled, terminated bool) {
	switch st.Kind {
	case ir.StmtAssign:
		o := st.RHS
		switch o.Kind {
		case ir.OpConstInt, ir.OpConstFloat, ir.OpUseVar:
			m, cv, v, _ := fusedOperand(o)
			lo.emitDst(st, linstr{op: bcAsgMove, xm: m, val2: cv, xv: v, cost: lo.cfg.IssueCost})
			return true, false
		case ir.OpBin:
			xm, xc, xv, okx := fusedOperand(o.Args[0])
			ym, yc, yv, oky := fusedOperand(o.Args[1])
			if !okx || !oky || (xm == bcMConst && ym == bcMConst) {
				return false, false // both-const: merged form pushes one
			}
			lf := o.Args[0].Type == ir.ValFloat || o.Args[1].Type == ir.ValFloat
			var op bcOp
			switch {
			case !lf && fastIntBin(o):
				op = bcAsgBinII
			case lf && fastFloatBin(o.Bin):
				op = bcAsgBinFF
			default:
				return false, false // trapping/generic ops keep the stack path
			}
			lo.emitDst(st, linstr{op: op, bin: uint8(o.Bin), xm: xm, ym: ym,
				val2: xc, val: yc, xv: xv, yv: yv, cost: binCostFor(lo.cfg, o)})
			return true, false
		case ir.OpLoadG:
			lo.emitDst(st, linstr{op: bcAsgLoadG, g: o.G})
			return true, false
		case ir.OpLoadA:
			if len(o.Args) != 1 || !fusable1Dim(o.G) {
				return false, false
			}
			m, cv, v, ok := fusedOperand(o.Args[0])
			if !ok {
				return false, false
			}
			lo.emitDst(st, linstr{op: bcAsgLoadA1, g: o.G, c: int32(o.G.Dims[0]),
				xm: m, val2: cv, xv: v})
			return true, false
		}
		return false, false

	case ir.StmtStoreG:
		m, cv, v, ok := fusedOperand(st.RHS)
		if !ok {
			return false, false
		}
		lo.emit(linstr{op: bcStoreGF, st: st, g: st.G, xm: m, val2: cv, xv: v,
			cost: lo.cfg.IssueCost})
		return true, false

	case ir.StmtStoreA:
		if len(st.Index) != 1 || !fusable1Dim(st.G) {
			return false, false
		}
		xm, xc, xv, okx := fusedOperand(st.Index[0])
		ym, yc, yv, oky := fusedOperand(st.RHS)
		if !okx || !oky || (xm == bcMConst && ym == bcMConst) {
			return false, false // both-const: the bcStoreA1NS path pushes the index
		}
		lo.emit(linstr{op: bcStoreA1F, st: st, g: st.G, c: int32(st.G.Dims[0]),
			xm: xm, ym: ym, val2: xc, val: yc, xv: xv, yv: yv, cost: lo.cfg.IssueCost})
		return true, false

	case ir.StmtIf:
		o := st.RHS
		var in linstr
		if o.Kind == ir.OpBin {
			lf := o.Args[0].Type == ir.ValFloat || o.Args[1].Type == ir.ValFloat
			if lf || !fastIntBin(o) {
				return false, false
			}
			xm, xc, xv, okx := fusedOperand(o.Args[0])
			ym, yc, yv, oky := fusedOperand(o.Args[1])
			if !okx || !oky || (xm == bcMConst && ym == bcMConst) {
				return false, false // both-const: expression form pushes one
			}
			in = linstr{op: bcIfBinII, st: st, blk: b, bin: uint8(o.Bin), xm: xm, ym: ym,
				val2: xc, val: yc, xv: xv, yv: yv, cost: binCostFor(lo.cfg, o)}
		} else {
			m, cv, v, ok := fusedOperand(o)
			if !ok {
				return false, false
			}
			in = linstr{op: bcIfVal, st: st, blk: b, xm: m, val2: cv, xv: v,
				cost: lo.cfg.IssueCost}
			if o.Type == ir.ValFloat {
				in.bin = 1 // condition is a float value
			}
		}
		pc := lo.emit(in)
		lo.fix = append(lo.fix,
			fixup{pc, b.Succs[0], 0},
			fixup{pc, b.Succs[1], 1})
		return true, true
	}
	return false, false
}

// lowerAssignMerged lowers an assignment whose RHS top op has a fused
// form but whose operands include charging expressions: the bcStep has
// already been emitted, stack operands are lowered normally, and the
// final op plus the assign finisher collapse into one instruction.
func (lo *lowerer) lowerAssignMerged(st *ir.Stmt) bool {
	o := st.RHS
	switch o.Kind {
	case ir.OpBin:
		lf := o.Args[0].Type == ir.ValFloat || o.Args[1].Type == ir.ValFloat
		fastII := !lf && fastIntBin(o)
		if !fastII && !(lf && fastFloatBin(o.Bin)) {
			return false
		}
		in := linstr{op: bcBinAsgII, bin: uint8(o.Bin), cost: binCostFor(lo.cfg, o)}
		if !fastII {
			in.op = bcBinAsgFF
		}
		xm, xc, xv, okx := fusedOperand(o.Args[0])
		ym, yc, yv, oky := fusedOperand(o.Args[1])
		if okx && oky && xm == bcMConst && ym == bcMConst {
			okx = false // one const slot per instr: push x instead
		}
		nstack := 0
		if okx {
			in.xm, in.val2, in.xv = xm, xc, xv
		} else {
			lo.lowerOp(st, o.Args[0])
			nstack++
		}
		if oky {
			in.ym, in.val, in.yv = ym, yc, yv
		} else {
			lo.lowerOp(st, o.Args[1])
			nstack++
		}
		lo.emitDst(st, in)
		lo.stk(-nstack)
		return true
	case ir.OpLoadA:
		if len(o.Args) != 1 || !fusable1Dim(o.G) {
			return false
		}
		// The pure-index form was statement-fused; here the index is a
		// charging expression left on the stack.
		lo.lowerOp(st, o.Args[0])
		lo.emitDst(st, linstr{op: bcLoadAsgA1, g: o.G, c: int32(o.G.Dims[0])})
		lo.stk(-1)
		return true
	}
	return false
}

// emitDst emits a statement-fused assignment with the destination's
// fast-path indices (register and base slots) pre-resolved into a/b.
func (lo *lowerer) emitDst(st *ir.Stmt, in linstr) {
	in.st = st
	in.v = st.Dst
	in.a = int32(st.Dst.ID)
	in.b = int32(st.Dst.Base.ID)
	lo.emit(in)
}

// lowerOp lowers one expression tree in post-order, so charges happen in
// exactly the walker's evaluation order.
func (lo *lowerer) lowerOp(st *ir.Stmt, o *ir.Op) {
	switch o.Kind {
	case ir.OpConstInt:
		lo.emit(linstr{op: bcConst, val: interp.IntVal(o.ConstI)})
		lo.stk(1)
	case ir.OpConstFloat:
		lo.emit(linstr{op: bcConst, val: interp.FloatVal(o.ConstF)})
		lo.stk(1)
	case ir.OpConstStr:
		lo.emit(linstr{op: bcConst})
		lo.stk(1)
	case ir.OpUseVar:
		lo.emit(linstr{op: bcUseVar, v: o.Var})
		lo.stk(1)
	case ir.OpLoadG:
		lo.emit(linstr{op: bcLoadG, g: o.G})
		lo.stk(1)
	case ir.OpLoadA:
		if len(o.Args) == 1 && fusable1Dim(o.G) {
			in := linstr{op: bcLoadA1, g: o.G, st: st, c: int32(o.G.Dims[0])}
			if m, cv, v, ok := fusedOperand(o.Args[0]); ok {
				in.xm, in.val2, in.xv = m, cv, v
				lo.emit(in)
				lo.stk(1)
			} else {
				lo.lowerOp(st, o.Args[0]) // index on the stack (xm = bcMStack)
				lo.emit(in)
			}
			return
		}
		lo.emit(linstr{op: bcAddrInit})
		lo.stk(1)
		for d, ix := range o.Args {
			lo.lowerOp(st, ix)
			lo.emit(linstr{op: bcAddrIdx, a: int32(d), g: o.G, st: st})
			lo.stk(-1)
		}
		lo.emit(linstr{op: bcLoadAddr, g: o.G, st: st})
	case ir.OpBin:
		cost := binCostFor(lo.cfg, o)
		lf := o.Args[0].Type == ir.ValFloat || o.Args[1].Type == ir.ValFloat
		fastII := !lf && fastIntBin(o)
		if fastII || (lf && fastFloatBin(o.Bin)) {
			in := linstr{op: bcBinII, bin: uint8(o.Bin), cost: cost}
			if !fastII {
				in.op = bcBinFF
			}
			xm, xc, xv, okx := fusedOperand(o.Args[0])
			ym, yc, yv, oky := fusedOperand(o.Args[1])
			if okx && oky && xm == bcMConst && ym == bcMConst {
				okx = false // one const slot per instr: push x instead
			}
			nstack := 0
			if okx {
				in.xm, in.val2, in.xv = xm, xc, xv
			} else {
				lo.lowerOp(st, o.Args[0])
				nstack++
			}
			if oky {
				in.ym, in.val, in.yv = ym, yc, yv
			} else {
				lo.lowerOp(st, o.Args[1])
				nstack++
			}
			lo.emit(in)
			lo.stk(1 - nstack)
			return
		}
		lo.lowerOp(st, o.Args[0])
		lo.lowerOp(st, o.Args[1])
		lo.emit(linstr{op: bcBin, o: o, st: st, cost: cost})
		lo.stk(-1)
	case ir.OpUn:
		lo.lowerOp(st, o.Args[0])
		lo.emit(linstr{op: bcUn, o: o, cost: lo.cfg.IssueCost})
	case ir.OpCast:
		lo.lowerOp(st, o.Args[0])
		lo.emit(linstr{op: bcCast, o: o, cost: lo.cfg.IssueCost})
	case ir.OpCall:
		lo.lowerCall(st, o)
	default:
		lo.emit(linstr{op: bcBad,
			str: fmt.Sprintf("machine: invalid op kind %d", o.Kind)})
		lo.stk(1) // never executes, but keep depth accounting consistent
	}
}

func (lo *lowerer) lowerCall(st *ir.Stmt, o *ir.Op) {
	if o.Builtin {
		if o.Str == "print" {
			lo.emit(linstr{op: bcPrintBegin, cost: lo.cfg.PrintCost})
			lo.stk(1)
			for i, a := range o.Args {
				if i > 0 {
					lo.emit(linstr{op: bcPrintSpace})
				}
				if a.Kind == ir.OpConstStr {
					lo.emit(linstr{op: bcPrintStr, str: a.Str})
					continue
				}
				lo.lowerOp(st, a)
				isF := int32(0)
				if a.Type == ir.ValFloat {
					isF = 1
				}
				lo.emit(linstr{op: bcPrintVal, b: isF})
				lo.stk(-1)
			}
			lo.emit(linstr{op: bcPrintEnd})
			return
		}
		kind, cost := builtinKind(lo.cfg, o.Str)
		for _, a := range o.Args {
			lo.lowerOp(st, a)
		}
		lo.emit(linstr{op: bcBuiltin, o: o, st: st, a: int32(len(o.Args)), b: kind, cost: cost})
		lo.stk(1 - len(o.Args))
		return
	}
	if o.Func == nil {
		lo.emit(linstr{op: bcBad, str: fmt.Sprintf("machine: unresolved call %s", o.Str)})
		lo.stk(1)
		return
	}
	for _, a := range o.Args {
		lo.lowerOp(st, a)
	}
	lo.emit(linstr{op: bcCall, o: o, st: st, a: int32(len(o.Args))})
	lo.stk(1 - len(o.Args))
}

// binCostFor is the cycle cost of a binary op under cfg: the one cost
// table that lowering and the test walker both charge from.
func binCostFor(cfg Config, o *ir.Op) float64 {
	floatOperands := o.Args[0].Type == ir.ValFloat || o.Args[1].Type == ir.ValFloat
	switch o.Bin {
	case ir.BinMul:
		if floatOperands {
			return cfg.FloatCost
		}
		return cfg.IntMulCost
	case ir.BinDiv:
		if floatOperands {
			return cfg.FloatDivCost
		}
		return cfg.IntDivCost
	case ir.BinRem:
		return cfg.IntDivCost
	default:
		if floatOperands {
			return cfg.FloatCost
		}
		return cfg.IssueCost
	}
}

// fastFloatBin reports whether a float binary op has a non-trapping
// specialized opcode (division traps on zero; non-arithmetic operators
// on floats are runtime errors — both stay on the generic path).
func fastFloatBin(b ir.BinOp) bool {
	switch b {
	case ir.BinAdd, ir.BinSub, ir.BinMul,
		ir.BinEq, ir.BinNeq, ir.BinLt, ir.BinLeq, ir.BinGt, ir.BinGeq:
		return true
	}
	return false
}

func builtinKind(cfg Config, callee string) (int32, float64) {
	switch callee {
	case "fabs":
		return bFabs, cfg.IssueCost
	case "fsqrt":
		return bFsqrt, cfg.SqrtCost
	case "fmin":
		return bFmin, cfg.FloatCost
	case "fmax":
		return bFmax, cfg.FloatCost
	case "iabs":
		return bIabs, cfg.IssueCost
	case "imin":
		return bImin, cfg.IssueCost
	case "imax":
		return bImax, cfg.IssueCost
	}
	return bUnknown, 0
}

// ---- (program, config) lowering cache ----

const (
	lowCachePrograms = 64 // distinct programs retained
	lowCacheConfigs  = 16 // distinct configs retained per program
)

var (
	lowCacheMu    sync.Mutex
	lowCache      = make(map[*ir.Program]map[Config]*loweredProg)
	lowCacheOrder []*ir.Program // insertion order, for bounded eviction
)

// lowerProgram returns the cached lowering of prog against cfg, lowering
// it on a miss. Lowered code is immutable and safe to share between
// concurrent simulations. The cache is bounded: the oldest program entry
// is evicted when lowCachePrograms is exceeded (keyed by pointer
// identity, so recompiling a source produces a fresh entry). A program
// that cannot be lowered is not cached.
func lowerProgram(prog *ir.Program, cfg Config) (*loweredProg, error) {
	lowCacheMu.Lock()
	if byCfg := lowCache[prog]; byCfg != nil {
		if lp := byCfg[cfg]; lp != nil {
			lowCacheMu.Unlock()
			return lp, nil
		}
	}
	lowCacheMu.Unlock()

	lp, err := lowerProgramUncached(prog, cfg) // pure; done outside the lock
	if err != nil {
		return nil, err
	}

	lowCacheMu.Lock()
	defer lowCacheMu.Unlock()
	byCfg := lowCache[prog]
	if byCfg == nil {
		if len(lowCacheOrder) >= lowCachePrograms {
			oldest := lowCacheOrder[0]
			lowCacheOrder = lowCacheOrder[1:]
			delete(lowCache, oldest)
		}
		byCfg = make(map[Config]*loweredProg)
		lowCache[prog] = byCfg
		lowCacheOrder = append(lowCacheOrder, prog)
	}
	if ex := byCfg[cfg]; ex != nil {
		return ex, nil
	}
	if len(byCfg) >= lowCacheConfigs {
		clear(byCfg)
	}
	byCfg[cfg] = lp
	return lp, nil
}
