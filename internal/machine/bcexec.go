package machine

import (
	"fmt"
	"math"

	"sptc/internal/ir"
)

// tval is one value-stack slot: a runtime value plus its speculative
// taint. Values are always constructed exactly like the tree walker's
// (the unused half of the Value union stays zero), because speculative
// violation detection compares whole Values.
type tval struct {
	v Value
	t bool
}

// execByte is the simulator's executor. It runs one function activation
// over the lowered instruction stream, from blk (entered from prev) until
// the function returns; with leg set, the activation runs one iteration
// of the active SPT loop (a main or a speculative leg) and also stops,
// without executing it, at the first block that is the loop header or
// lies outside the loop (s.stopHdr, s.stopIn). The SPT pairwise runner,
// frames, speculative buffers and the memory hierarchy around it live in
// sim.go and spt.go. The reference tree walker in walker_test.go defines
// the same semantics over the IR; the fidelity tests hold the two
// bit-identical.
//
// The hot counters (cycles, ops, steps, memCycles) live in locals and
// are flushed to the sim around anything that observes them: SPT loop
// entry, the fork hook, calls, attribution, and every return. The float
// additions happen in exactly the walker's order, so the flushed totals
// are bit-identical. The operand stack is a pre-sized window of
// s.vstack addressed by sp; lowering computed the per-activation
// maximum depth, so pushes never reallocate mid-frame (only a nested
// call can move the backing array, and the window is reloaded after).
func (s *sim) execByte(fr *frame, blk, prev *ir.Block, leg bool) (execOutcome, error) {
	if s.walk != nil {
		return s.walk(s, fr, blk, prev, leg)
	}
	lfn := s.low.fns[fr.fn]
	code := lfn.code
	aux := lfn.aux
	sptID := s.sptID[fr.fn]
	pc := lfn.entry[blk]
	prevBlk := prev

	vbase := len(s.vstack)
	if need := vbase + lfn.maxStack; cap(s.vstack) < need {
		ns := make([]tval, vbase, need+32)
		copy(ns, s.vstack)
		s.vstack = ns
	}
	vs := s.vstack[:cap(s.vstack)]
	sp := vbase
	defer func() { s.vstack = s.vstack[:vbase] }()

	cycles, ops, steps, memCycles := s.cycles, s.ops, s.steps, s.memCycles
	maxSteps := s.cfg.MaxSteps
	mp := s.cfg.MispredictPenalty
	l1Lat := s.cfg.L1Lat
	isC := s.cfg.IssueCost
	ctx := s.ctx
	var c0 float64 // cycle/op counts at the current statement's start,
	var o0 int64   // for re-execution accounting; calls recurse fresh

	// With attribution off, a phi-less block's bcEnter is a no-op when
	// the SPT entry check cannot fire: inside an SPT region (sptActive)
	// nested entries are ignored, and with no header set there is nothing
	// to enter. Both are fixed for the duration of this activation, so
	// jumps may land directly past such enters.
	skipEnter := s.attr == nil && (s.sptActive || s.spt == nil)

	// The hierarchy, the memory image and the frame's register file
	// never move mid-run, so they are read through locals.
	hier := s.hier
	mem := s.mem
	regs, regGen := fr.regs, fr.regGen
	baseVals, baseGen := fr.baseVals, fr.baseGen
	gen := fr.gen

	for {
		in := &code[pc]
		op := in.op
		if op&bcStepped != 0 {
			// This instruction absorbed its statement's bare bcStep (see
			// bcStepped): run the prologue first, in the walker's order.
			steps++
			if steps > maxSteps {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, ErrStepLimit
			}
			if ctx != nil && steps%ctxPollSteps == 0 {
				if err := ctx.Err(); err != nil {
					s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
					return execOutcome{}, err
				}
			}
			c0, o0 = cycles, ops
			op &^= bcStepped
		}
		switch op {
		case bcEnter:
			b := in.blk
			// SPT loop entry: only from the outermost, non-speculative
			// context, and only when not already inside an SPT region.
			if !s.sptActive && sptID != nil {
				if id := int(sptID[in.b]); id >= 0 {
					s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
					s.vstack = vs[:sp]
					exit, exitPrev, err := s.runSPTLoop(fr, b, prevBlk, id)
					cycles, ops, steps, memCycles = s.cycles, s.ops, s.steps, s.memCycles
					vs = s.vstack[:cap(s.vstack)]
					if err != nil {
						return execOutcome{}, err
					}
					// No stop test on the exit: sptActive holds through
					// every leg, so a leg's activation never enters here.
					prevBlk = exitPrev
					pc = lfn.entry[exit]
					continue
				}
			}
			if s.attr != nil {
				s.cycles = cycles
				s.noteBlock(fr, b)
			}
			if in.a >= 0 && prevBlk != nil {
				// Phis evaluate in parallel from the predecessor's values.
				phis := lfn.phis[in.a]
				pi := b.PredIndex(prevBlk)
				if pi < 0 {
					s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
					return execOutcome{}, fmt.Errorf("machine: %s: b%d entered from non-pred b%d", fr.fn.Name, b.ID, prevBlk.ID)
				}
				if cap(s.phiVals) < len(phis) {
					s.phiVals = make([]Value, len(phis))
					s.phiTaints = make([]bool, len(phis))
				}
				vals := s.phiVals[:len(phis)]
				taints := s.phiTaints[:len(phis)]
				for i, phi := range phis {
					v, tnt := s.readVar(fr, phi.PhiArgs[pi])
					vals[i], taints[i] = v, tnt
				}
				for i, phi := range phis {
					s.defineVar(fr, phi.Dst, vals[i], taints[i])
				}
			}
			pc++

		case bcStep:
			steps++
			if steps > maxSteps {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, ErrStepLimit
			}
			if ctx != nil && steps%ctxPollSteps == 0 {
				if err := ctx.Err(); err != nil {
					s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
					return execOutcome{}, err
				}
			}
			c0, o0 = cycles, ops
			pc++

		case bcGoto:
			prevBlk = in.blk
			tgt := in.a
			te := &code[tgt]
			if leg && (te.blk == s.stopHdr || !s.stopIn[te.b]) {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{stopped: te.blk, prev: prevBlk}, nil
			}
			if skipEnter && te.a < 0 {
				tgt++ // phi-less enter is a no-op here; land past it
			}
			pc = tgt

		case bcIf:
			sp--
			cond := vs[sp]
			cycles += in.cost
			ops++
			var taken bool
			if in.bin != 0 {
				taken = cond.v.F != 0
			} else {
				taken = cond.v.I != 0
			}
			if !s.bp().predict(int(in.d), taken) {
				cycles += mp
			}
			tgt := in.b
			if taken {
				tgt = in.a
			}
			if sc := s.spec; sc != nil {
				sc.ops += ops - o0
				if cond.t {
					sc.reexecCycles += cycles - c0
					sc.reexecOps += ops - o0
				}
			}
			prevBlk = in.blk
			te := &code[tgt]
			if leg && (te.blk == s.stopHdr || !s.stopIn[te.b]) {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{stopped: te.blk, prev: prevBlk}, nil
			}
			if skipEnter && te.a < 0 {
				tgt++
			}
			pc = tgt

		case bcFellThrough:
			s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
			return execOutcome{}, fmt.Errorf("machine: %s: b%d fell through", fr.fn.Name, in.blk.ID)

		case bcConst:
			vs[sp] = tval{v: in.val}
			sp++
			pc++

		case bcUseVar:
			var tv tval
			if s.spec == nil {
				if regGen[in.a] == gen {
					tv.v = regs[in.a]
				}
			} else {
				tv.v, tv.t = s.readVar(fr, aux[pc].v)
			}
			vs[sp] = tv
			sp++
			pc++

		case bcLoadG:
			ops++
			addr := int(in.c)
			lat := hier.load(addr)
			cycles += lat
			if lat > l1Lat {
				memCycles += lat
			}
			if s.spec == nil {
				vs[sp] = tval{v: mem[addr]}
			} else {
				v, tnt := s.readMem(addr)
				vs[sp] = tval{v, tnt}
			}
			sp++
			pc++

		case bcAddrInit:
			vs[sp] = tval{}
			sp++
			pc++

		case bcAddrIdx:
			sp--
			ix := vs[sp]
			acc := &vs[sp-1]
			g := aux[pc].g
			d := int(in.a)
			i := int(ix.v.I)
			if i < 0 || i >= g.Dims[d] {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, fmt.Errorf("machine: %s: index %d out of range [0,%d) for %s (stmt s%d)",
					fr.fn.Name, i, g.Dims[d], g.Name, aux[pc].st.ID)
			}
			acc.v.I = acc.v.I*int64(g.Dims[d]) + int64(i)
			acc.t = acc.t || ix.t
			pc++

		case bcLoadAddr:
			acc := vs[sp-1]
			addr := int(in.c) + int(acc.v.I)
			ops++
			lat := hier.load(addr)
			cycles += lat
			if lat > l1Lat {
				memCycles += lat
			}
			if s.spec == nil {
				vs[sp-1] = tval{v: mem[addr], t: acc.t}
			} else {
				v, t2 := s.readMem(addr)
				vs[sp-1] = tval{v, acc.t || t2}
			}
			pc++

		case bcBinII:
			// Operand fetch: y first (it is on top when both are on the
			// stack), then x. Var/const fetches are pure, so the relative
			// order versus the walker's x-then-y evaluation is unobservable.
			var y tval
			switch in.ym {
			case bcMConst:
				y.v = in.val
			case bcMVar:
				if s.spec == nil {
					if regGen[in.yid] == gen {
						y.v = regs[in.yid]
					}
				} else {
					y.v, y.t = s.readVar(fr, aux[pc].yv)
				}
			default:
				sp--
				y = vs[sp]
			}
			var x tval
			switch in.xm {
			case bcMConst:
				x.v = in.val
			case bcMVar:
				if s.spec == nil {
					if regGen[in.xid] == gen {
						x.v = regs[in.xid]
					}
				} else {
					x.v, x.t = s.readVar(fr, aux[pc].xv)
				}
			default:
				sp--
				x = vs[sp]
			}
			ops++
			cycles += in.cost
			// The operator switch is written out here (rather than calling
			// intBin) because this is the single hottest opcode and the
			// switch is too large for the inliner.
			xi, yi := x.v.I, y.v.I
			var r int64
			switch ir.BinOp(in.bin) {
			case ir.BinAdd:
				r = xi + yi
			case ir.BinSub:
				r = xi - yi
			case ir.BinMul:
				r = xi * yi
			case ir.BinAnd:
				r = xi & yi
			case ir.BinOr:
				r = xi | yi
			case ir.BinXor:
				r = xi ^ yi
			case ir.BinShl:
				r = xi << uint(yi&63)
			case ir.BinShr:
				r = xi >> uint(yi&63)
			case ir.BinDiv:
				// Reached only with a constant nonzero, non-minus-one
				// divisor (fastIntBin): neither trap is possible.
				r = xi / yi
			case ir.BinRem:
				r = xi % yi
			case ir.BinEq:
				r = b2iInt(xi == yi)
			case ir.BinNeq:
				r = b2iInt(xi != yi)
			case ir.BinLt:
				r = b2iInt(xi < yi)
			case ir.BinLeq:
				r = b2iInt(xi <= yi)
			case ir.BinGt:
				r = b2iInt(xi > yi)
			case ir.BinGeq:
				r = b2iInt(xi >= yi)
			case ir.BinLAnd:
				r = b2iInt(xi != 0 && yi != 0)
			case ir.BinLOr:
				r = b2iInt(xi != 0 || yi != 0)
			}
			vs[sp] = tval{v: Value{I: r}, t: x.t || y.t}
			sp++
			pc++

		case bcBinII2:
			// A bcBinII pair fused by the emit peephole: the first op runs
			// exactly as bcBinII, its result feeds the second op without a
			// stack round-trip. Charging matches the separate ops: two
			// ops, two cycle-cost adds in order.
			var y tval
			switch in.ym {
			case bcMConst:
				y.v = in.val
			case bcMVar:
				if s.spec == nil {
					if regGen[in.yid] == gen {
						y.v = regs[in.yid]
					}
				} else {
					y.v, y.t = s.readVar(fr, aux[pc].yv)
				}
			default:
				sp--
				y = vs[sp]
			}
			var x tval
			switch in.xm {
			case bcMConst:
				x.v = in.val
			case bcMVar:
				if s.spec == nil {
					if regGen[in.xid] == gen {
						x.v = regs[in.xid]
					}
				} else {
					x.v, x.t = s.readVar(fr, aux[pc].xv)
				}
			default:
				sp--
				x = vs[sp]
			}
			ops++
			cycles += in.cost
			r := intBin(ir.BinOp(in.bin), x.v.I, y.v.I)
			d := uint32(in.d)
			var y2 tval
			if uint8(d) == bcMConst {
				y2.v.I = int64(in.c)
			} else if s.spec == nil {
				if regGen[in.c] == gen {
					y2.v = regs[in.c]
				}
			} else {
				y2.v, y2.t = s.readVar(fr, aux[pc].v)
			}
			ops++
			cycles += in.val.F
			x2, yi2 := r, y2.v.I
			if d&(1<<8) != 0 {
				x2, yi2 = yi2, x2
			}
			vs[sp] = tval{v: Value{I: intBin(ir.BinOp(d>>16), x2, yi2)}, t: x.t || y.t || y2.t}
			sp++
			pc++

		case bcBinFF:
			var y tval
			switch in.ym {
			case bcMConst:
				y.v = in.val
			case bcMVar:
				if s.spec == nil {
					if regGen[in.yid] == gen {
						y.v = regs[in.yid]
					}
				} else {
					y.v, y.t = s.readVar(fr, aux[pc].yv)
				}
			default:
				sp--
				y = vs[sp]
			}
			var x tval
			switch in.xm {
			case bcMConst:
				x.v = in.val
			case bcMVar:
				if s.spec == nil {
					if regGen[in.xid] == gen {
						x.v = regs[in.xid]
					}
				} else {
					x.v, x.t = s.readVar(fr, aux[pc].xv)
				}
			default:
				sp--
				x = vs[sp]
			}
			ops++
			cycles += in.cost
			vs[sp] = tval{v: floatBin(ir.BinOp(in.bin), x.v.F, y.v.F), t: x.t || y.t}
			sp++
			pc++

		case bcLoadA1:
			var ix tval
			switch in.xm {
			case bcMConst:
				ix.v = in.val
			case bcMVar:
				if s.spec == nil {
					if regGen[in.xid] == gen {
						ix.v = regs[in.xid]
					}
				} else {
					ix.v, ix.t = s.readVar(fr, aux[pc].xv)
				}
			default:
				sp--
				ix = vs[sp]
			}
			i := int(ix.v.I)
			if i < 0 || i >= int(in.c) {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, fmt.Errorf("machine: %s: index %d out of range [0,%d) for %s (stmt s%d)",
					fr.fn.Name, i, aux[pc].g.Dims[0], aux[pc].g.Name, aux[pc].st.ID)
			}
			addr := int(in.d) + i
			ops++
			lat := hier.load(addr)
			cycles += lat
			if lat > l1Lat {
				memCycles += lat
			}
			if s.spec == nil {
				vs[sp] = tval{v: mem[addr], t: ix.t}
			} else {
				v, t2 := s.readMem(addr)
				vs[sp] = tval{v, ix.t || t2}
			}
			sp++
			pc++

		case bcBin:
			sp--
			y := vs[sp]
			x := &vs[sp-1]
			ops++
			cycles += in.cost
			v, err := evalBinMachine(fr, aux[pc].st, aux[pc].o, x.v, y.v)
			if err != nil {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, err
			}
			x.v = v
			x.t = x.t || y.t
			pc++

		case bcUn:
			x := &vs[sp-1]
			ops++
			cycles += in.cost
			switch in.bin { // pre-resolved by splitInstr
			case 1:
				x.v = Value{F: -x.v.F}
			case 2:
				x.v = Value{I: -x.v.I}
			case 3:
				if x.v.F != 0 {
					x.v = Value{I: 0}
				} else {
					x.v = Value{I: 1}
				}
			case 4:
				if x.v.I != 0 {
					x.v = Value{I: 0}
				} else {
					x.v = Value{I: 1}
				}
			case 5:
				x.v = Value{I: ^x.v.I}
			default:
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, fmt.Errorf("machine: bad unary op")
			}
			pc++

		case bcCast:
			x := &vs[sp-1]
			ops++
			cycles += in.cost
			switch in.bin { // pre-resolved by splitInstr
			case 1:
				x.v = Value{F: float64(x.v.I)}
			case 2:
				x.v = Value{I: int64(x.v.F)}
			}
			pc++

		case bcCall:
			n := int(in.a)
			sp -= n
			ab := len(s.argBuf)
			tnt := false
			for i := 0; i < n; i++ {
				s.argBuf = append(s.argBuf, vs[sp+i].v)
				tnt = tnt || vs[sp+i].t
			}
			ops++
			s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
			s.vstack = vs[:sp]
			v, retTaint, err := s.callTainted(aux[pc].o.Func, s.argBuf[ab:], fr.depth+1, tnt)
			s.argBuf = s.argBuf[:ab]
			cycles, ops, steps, memCycles = s.cycles, s.ops, s.steps, s.memCycles
			vs = s.vstack[:cap(s.vstack)]
			if err != nil {
				return execOutcome{}, err
			}
			vs[sp] = tval{v, tnt || retTaint}
			sp++
			pc++

		case bcBuiltin:
			n := int(in.a)
			args := vs[sp-n : sp]
			tnt := false
			for i := range args {
				tnt = tnt || args[i].t
			}
			ops++
			var v Value
			switch in.b {
			case bFabs:
				cycles += in.cost
				v = Value{F: math.Abs(args[0].v.F)}
			case bFsqrt:
				cycles += in.cost
				if args[0].v.F < 0 {
					s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
					return execOutcome{}, fmt.Errorf("machine: fsqrt of negative value")
				}
				v = Value{F: math.Sqrt(args[0].v.F)}
			case bFmin:
				cycles += in.cost
				v = Value{F: math.Min(args[0].v.F, args[1].v.F)}
			case bFmax:
				cycles += in.cost
				v = Value{F: math.Max(args[0].v.F, args[1].v.F)}
			case bIabs:
				cycles += in.cost
				v = args[0].v
				if v.I < 0 {
					v = Value{I: -v.I}
				}
			case bImin:
				cycles += in.cost
				if args[0].v.I < args[1].v.I {
					v = args[0].v
				} else {
					v = args[1].v
				}
			case bImax:
				cycles += in.cost
				if args[0].v.I > args[1].v.I {
					v = args[0].v
				} else {
					v = args[1].v
				}
			default:
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, fmt.Errorf("machine: unknown builtin %s", aux[pc].o.Str)
			}
			sp -= n
			vs[sp] = tval{v, tnt}
			sp++
			pc++

		case bcPrintBegin:
			ops++
			cycles += in.cost
			vs[sp] = tval{} // the print taint accumulator
			sp++
			pc++

		case bcPrintSpace:
			fmt.Fprint(s.out, " ")
			pc++

		case bcPrintStr:
			fmt.Fprint(s.out, aux[pc].str)
			pc++

		case bcPrintVal:
			sp--
			x := vs[sp]
			acc := &vs[sp-1]
			acc.t = acc.t || x.t
			if in.b != 0 {
				fmt.Fprintf(s.out, "%.6g", x.v.F)
			} else {
				fmt.Fprintf(s.out, "%d", x.v.I)
			}
			pc++

		case bcPrintEnd:
			fmt.Fprintln(s.out)
			// The accumulator stays: it is the print call's {Value{}, taint}.
			pc++

		case bcAssign:
			sp--
			x := vs[sp]
			cycles += in.cost
			ops++
			if s.spec == nil {
				regs[in.a] = x.v
				regGen[in.a] = gen
				baseVals[in.b] = x.v
				baseGen[in.b] = gen
			} else {
				s.defineVar(fr, aux[pc].v, x.v, x.t)
				sc := s.spec
				sc.ops += ops - o0
				if x.t {
					sc.reexecCycles += cycles - c0
					sc.reexecOps += ops - o0
				}
			}
			pc++

		case bcStoreG:
			sp--
			x := vs[sp]
			cycles += in.cost
			ops++
			addr := int(in.c)
			if s.spec == nil && !s.undoActive {
				mem[addr] = x.v
				hier.store(addr)
			} else {
				s.writeMem(addr, x.v, x.t)
				if sc := s.spec; sc != nil {
					sc.ops += ops - o0
					if x.t {
						sc.reexecCycles += cycles - c0
						sc.reexecOps += ops - o0
					}
				}
			}
			pc++

		case bcStoreA:
			sp -= 2
			acc := vs[sp]
			x := vs[sp+1]
			tnt := acc.t || x.t
			cycles += in.cost
			ops++
			addr := int(in.c) + int(acc.v.I)
			if s.spec == nil && !s.undoActive {
				mem[addr] = x.v
				hier.store(addr)
			} else {
				s.writeMem(addr, x.v, tnt)
				if sc := s.spec; sc != nil {
					sc.ops += ops - o0
					if tnt {
						sc.reexecCycles += cycles - c0
						sc.reexecOps += ops - o0
					}
				}
			}
			pc++

		case bcCallStmt:
			sp--
			x := vs[sp]
			if sc := s.spec; sc != nil {
				sc.ops += ops - o0
				if x.t {
					sc.reexecCycles += cycles - c0
					sc.reexecOps += ops - o0
				}
			}
			pc++

		// Statement-fused opcodes: one dispatch covering the walker's whole
		// per-statement sequence (step bookkeeping, operand fetch, the op,
		// the finisher, speculative charging) in the identical charge order.
		// Operands here are only ever constants or variables (bcMConst /
		// bcMVar), which charge nothing, so the fused statement's c0/o0
		// baseline is simply the instruction's entry counts.
		case bcAsgMove:
			steps++
			if steps > maxSteps {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, ErrStepLimit
			}
			if ctx != nil && steps%ctxPollSteps == 0 {
				if err := ctx.Err(); err != nil {
					s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
					return execOutcome{}, err
				}
			}
			cs, os := cycles, ops
			var x tval
			if in.xm == bcMConst {
				x.v = in.val
			} else if s.spec == nil {
				if regGen[in.xid] == gen {
					x.v = regs[in.xid]
				}
			} else {
				x.v, x.t = s.readVar(fr, aux[pc].xv)
			}
			cycles += in.cost
			ops++
			if s.spec == nil {
				regs[in.a] = x.v
				regGen[in.a] = gen
				baseVals[in.b] = x.v
				baseGen[in.b] = gen
			} else {
				s.defineVar(fr, aux[pc].v, x.v, x.t)
				sc := s.spec
				sc.ops += ops - os
				if x.t {
					sc.reexecCycles += cycles - cs
					sc.reexecOps += ops - os
				}
			}
			pc++

		case bcAsgBinII:
			steps++
			if steps > maxSteps {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, ErrStepLimit
			}
			if ctx != nil && steps%ctxPollSteps == 0 {
				if err := ctx.Err(); err != nil {
					s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
					return execOutcome{}, err
				}
			}
			cs, os := cycles, ops
			var x, y tval
			if in.xm == bcMConst {
				x.v = in.val
			} else if s.spec == nil {
				if regGen[in.xid] == gen {
					x.v = regs[in.xid]
				}
			} else {
				x.v, x.t = s.readVar(fr, aux[pc].xv)
			}
			if in.ym == bcMConst {
				y.v = in.val
			} else if s.spec == nil {
				if regGen[in.yid] == gen {
					y.v = regs[in.yid]
				}
			} else {
				y.v, y.t = s.readVar(fr, aux[pc].yv)
			}
			ops++
			cycles += in.cost
			rv := Value{I: intBin(ir.BinOp(in.bin), x.v.I, y.v.I)}
			tnt := x.t || y.t
			cycles += isC
			ops++
			if s.spec == nil {
				regs[in.a] = rv
				regGen[in.a] = gen
				baseVals[in.b] = rv
				baseGen[in.b] = gen
			} else {
				s.defineVar(fr, aux[pc].v, rv, tnt)
				sc := s.spec
				sc.ops += ops - os
				if tnt {
					sc.reexecCycles += cycles - cs
					sc.reexecOps += ops - os
				}
			}
			pc++

		case bcAsgBinFF:
			steps++
			if steps > maxSteps {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, ErrStepLimit
			}
			if ctx != nil && steps%ctxPollSteps == 0 {
				if err := ctx.Err(); err != nil {
					s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
					return execOutcome{}, err
				}
			}
			cs, os := cycles, ops
			var x, y tval
			if in.xm == bcMConst {
				x.v = in.val
			} else if s.spec == nil {
				if regGen[in.xid] == gen {
					x.v = regs[in.xid]
				}
			} else {
				x.v, x.t = s.readVar(fr, aux[pc].xv)
			}
			if in.ym == bcMConst {
				y.v = in.val
			} else if s.spec == nil {
				if regGen[in.yid] == gen {
					y.v = regs[in.yid]
				}
			} else {
				y.v, y.t = s.readVar(fr, aux[pc].yv)
			}
			ops++
			cycles += in.cost
			rv := floatBin(ir.BinOp(in.bin), x.v.F, y.v.F)
			tnt := x.t || y.t
			cycles += isC
			ops++
			if s.spec == nil {
				regs[in.a] = rv
				regGen[in.a] = gen
				baseVals[in.b] = rv
				baseGen[in.b] = gen
			} else {
				s.defineVar(fr, aux[pc].v, rv, tnt)
				sc := s.spec
				sc.ops += ops - os
				if tnt {
					sc.reexecCycles += cycles - cs
					sc.reexecOps += ops - os
				}
			}
			pc++

		case bcAsgLoadG:
			steps++
			if steps > maxSteps {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, ErrStepLimit
			}
			if ctx != nil && steps%ctxPollSteps == 0 {
				if err := ctx.Err(); err != nil {
					s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
					return execOutcome{}, err
				}
			}
			cs, os := cycles, ops
			addr := int(in.c)
			ops++
			lat := hier.load(addr)
			cycles += lat
			if lat > l1Lat {
				memCycles += lat
			}
			var x tval
			if s.spec == nil {
				x.v = mem[addr]
			} else {
				x.v, x.t = s.readMem(addr)
			}
			cycles += isC
			ops++
			if s.spec == nil {
				regs[in.a] = x.v
				regGen[in.a] = gen
				baseVals[in.b] = x.v
				baseGen[in.b] = gen
			} else {
				s.defineVar(fr, aux[pc].v, x.v, x.t)
				sc := s.spec
				sc.ops += ops - os
				if x.t {
					sc.reexecCycles += cycles - cs
					sc.reexecOps += ops - os
				}
			}
			pc++

		case bcAsgLoadA1:
			steps++
			if steps > maxSteps {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, ErrStepLimit
			}
			if ctx != nil && steps%ctxPollSteps == 0 {
				if err := ctx.Err(); err != nil {
					s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
					return execOutcome{}, err
				}
			}
			cs, os := cycles, ops
			var ix tval
			if in.xm == bcMConst {
				ix.v = in.val
			} else if s.spec == nil {
				if regGen[in.xid] == gen {
					ix.v = regs[in.xid]
				}
			} else {
				ix.v, ix.t = s.readVar(fr, aux[pc].xv)
			}
			i := int(ix.v.I)
			if i < 0 || i >= int(in.c) {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, fmt.Errorf("machine: %s: index %d out of range [0,%d) for %s (stmt s%d)",
					fr.fn.Name, i, aux[pc].g.Dims[0], aux[pc].g.Name, aux[pc].st.ID)
			}
			addr := int(in.d) + i
			ops++
			lat := hier.load(addr)
			cycles += lat
			if lat > l1Lat {
				memCycles += lat
			}
			var x tval
			if s.spec == nil {
				x = tval{v: mem[addr], t: ix.t}
			} else {
				v, t2 := s.readMem(addr)
				x = tval{v, ix.t || t2}
			}
			cycles += isC
			ops++
			if s.spec == nil {
				regs[in.a] = x.v
				regGen[in.a] = gen
				baseVals[in.b] = x.v
				baseGen[in.b] = gen
			} else {
				s.defineVar(fr, aux[pc].v, x.v, x.t)
				sc := s.spec
				sc.ops += ops - os
				if x.t {
					sc.reexecCycles += cycles - cs
					sc.reexecOps += ops - os
				}
			}
			pc++

		case bcStoreGF:
			steps++
			if steps > maxSteps {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, ErrStepLimit
			}
			if ctx != nil && steps%ctxPollSteps == 0 {
				if err := ctx.Err(); err != nil {
					s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
					return execOutcome{}, err
				}
			}
			cs, os := cycles, ops
			var x tval
			if in.xm == bcMConst {
				x.v = in.val
			} else if s.spec == nil {
				if regGen[in.xid] == gen {
					x.v = regs[in.xid]
				}
			} else {
				x.v, x.t = s.readVar(fr, aux[pc].xv)
			}
			cycles += in.cost
			ops++
			addr := int(in.c)
			if s.spec == nil && !s.undoActive {
				mem[addr] = x.v
				hier.store(addr)
			} else {
				s.writeMem(addr, x.v, x.t)
				if sc := s.spec; sc != nil {
					sc.ops += ops - os
					if x.t {
						sc.reexecCycles += cycles - cs
						sc.reexecOps += ops - os
					}
				}
			}
			pc++

		case bcStoreA1F:
			steps++
			if steps > maxSteps {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, ErrStepLimit
			}
			if ctx != nil && steps%ctxPollSteps == 0 {
				if err := ctx.Err(); err != nil {
					s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
					return execOutcome{}, err
				}
			}
			cs, os := cycles, ops
			var ix tval
			if in.xm == bcMConst {
				ix.v = in.val
			} else if s.spec == nil {
				if regGen[in.xid] == gen {
					ix.v = regs[in.xid]
				}
			} else {
				ix.v, ix.t = s.readVar(fr, aux[pc].xv)
			}
			i := int(ix.v.I)
			if i < 0 || i >= int(in.c) {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, fmt.Errorf("machine: %s: index %d out of range [0,%d) for %s (stmt s%d)",
					fr.fn.Name, i, aux[pc].g.Dims[0], aux[pc].g.Name, aux[pc].st.ID)
			}
			var x tval
			if in.ym == bcMConst {
				x.v = in.val
			} else if s.spec == nil {
				if regGen[in.yid] == gen {
					x.v = regs[in.yid]
				}
			} else {
				x.v, x.t = s.readVar(fr, aux[pc].yv)
			}
			tnt := ix.t || x.t
			cycles += in.cost
			ops++
			addr := int(in.d) + i
			if s.spec == nil && !s.undoActive {
				mem[addr] = x.v
				hier.store(addr)
			} else {
				s.writeMem(addr, x.v, tnt)
				if sc := s.spec; sc != nil {
					sc.ops += ops - os
					if tnt {
						sc.reexecCycles += cycles - cs
						sc.reexecOps += ops - os
					}
				}
			}
			pc++

		case bcIfBinII:
			steps++
			if steps > maxSteps {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, ErrStepLimit
			}
			if ctx != nil && steps%ctxPollSteps == 0 {
				if err := ctx.Err(); err != nil {
					s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
					return execOutcome{}, err
				}
			}
			cs, os := cycles, ops
			var x, y tval
			if in.xm == bcMConst {
				x.v = in.val
			} else if s.spec == nil {
				if regGen[in.xid] == gen {
					x.v = regs[in.xid]
				}
			} else {
				x.v, x.t = s.readVar(fr, aux[pc].xv)
			}
			if in.ym == bcMConst {
				y.v = in.val
			} else if s.spec == nil {
				if regGen[in.yid] == gen {
					y.v = regs[in.yid]
				}
			} else {
				y.v, y.t = s.readVar(fr, aux[pc].yv)
			}
			ops++
			cycles += in.cost
			r := intBin(ir.BinOp(in.bin), x.v.I, y.v.I)
			tnt := x.t || y.t
			cycles += isC
			ops++
			taken := r != 0
			if !s.bp().predict(int(in.d), taken) {
				cycles += mp
			}
			tgt := in.b
			if taken {
				tgt = in.a
			}
			if sc := s.spec; sc != nil {
				sc.ops += ops - os
				if tnt {
					sc.reexecCycles += cycles - cs
					sc.reexecOps += ops - os
				}
			}
			prevBlk = in.blk
			te := &code[tgt]
			if leg && (te.blk == s.stopHdr || !s.stopIn[te.b]) {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{stopped: te.blk, prev: prevBlk}, nil
			}
			if skipEnter && te.a < 0 {
				tgt++
			}
			pc = tgt

		case bcIfVal:
			steps++
			if steps > maxSteps {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, ErrStepLimit
			}
			if ctx != nil && steps%ctxPollSteps == 0 {
				if err := ctx.Err(); err != nil {
					s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
					return execOutcome{}, err
				}
			}
			cs, os := cycles, ops
			var x tval
			if in.xm == bcMConst {
				x.v = in.val
			} else if s.spec == nil {
				if regGen[in.xid] == gen {
					x.v = regs[in.xid]
				}
			} else {
				x.v, x.t = s.readVar(fr, aux[pc].xv)
			}
			cycles += in.cost
			ops++
			var taken bool
			if in.bin != 0 {
				taken = x.v.F != 0
			} else {
				taken = x.v.I != 0
			}
			if !s.bp().predict(int(in.d), taken) {
				cycles += mp
			}
			tgt := in.b
			if taken {
				tgt = in.a
			}
			if sc := s.spec; sc != nil {
				sc.ops += ops - os
				if x.t {
					sc.reexecCycles += cycles - cs
					sc.reexecOps += ops - os
				}
			}
			prevBlk = in.blk
			te := &code[tgt]
			if leg && (te.blk == s.stopHdr || !s.stopIn[te.b]) {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{stopped: te.blk, prev: prevBlk}, nil
			}
			if skipEnter && te.a < 0 {
				tgt++
			}
			pc = tgt

		// Finisher-merged opcodes: last RHS op + statement finisher in one
		// dispatch. A bcStep ran earlier in the statement, so speculative
		// charging uses the outer c0/o0 baseline, and operands may come
		// from the stack (charged by their own instructions).
		case bcBinAsgII:
			var y tval
			switch in.ym {
			case bcMConst:
				y.v = in.val
			case bcMVar:
				if s.spec == nil {
					if regGen[in.yid] == gen {
						y.v = regs[in.yid]
					}
				} else {
					y.v, y.t = s.readVar(fr, aux[pc].yv)
				}
			default:
				sp--
				y = vs[sp]
			}
			var x tval
			switch in.xm {
			case bcMConst:
				x.v = in.val
			case bcMVar:
				if s.spec == nil {
					if regGen[in.xid] == gen {
						x.v = regs[in.xid]
					}
				} else {
					x.v, x.t = s.readVar(fr, aux[pc].xv)
				}
			default:
				sp--
				x = vs[sp]
			}
			ops++
			cycles += in.cost
			rv := Value{I: intBin(ir.BinOp(in.bin), x.v.I, y.v.I)}
			tnt := x.t || y.t
			cycles += isC
			ops++
			if s.spec == nil {
				regs[in.a] = rv
				regGen[in.a] = gen
				baseVals[in.b] = rv
				baseGen[in.b] = gen
			} else {
				s.defineVar(fr, aux[pc].v, rv, tnt)
				sc := s.spec
				sc.ops += ops - o0
				if tnt {
					sc.reexecCycles += cycles - c0
					sc.reexecOps += ops - o0
				}
			}
			pc++

		case bcBinAsgFF:
			var y tval
			switch in.ym {
			case bcMConst:
				y.v = in.val
			case bcMVar:
				if s.spec == nil {
					if regGen[in.yid] == gen {
						y.v = regs[in.yid]
					}
				} else {
					y.v, y.t = s.readVar(fr, aux[pc].yv)
				}
			default:
				sp--
				y = vs[sp]
			}
			var x tval
			switch in.xm {
			case bcMConst:
				x.v = in.val
			case bcMVar:
				if s.spec == nil {
					if regGen[in.xid] == gen {
						x.v = regs[in.xid]
					}
				} else {
					x.v, x.t = s.readVar(fr, aux[pc].xv)
				}
			default:
				sp--
				x = vs[sp]
			}
			ops++
			cycles += in.cost
			rv := floatBin(ir.BinOp(in.bin), x.v.F, y.v.F)
			tnt := x.t || y.t
			cycles += isC
			ops++
			if s.spec == nil {
				regs[in.a] = rv
				regGen[in.a] = gen
				baseVals[in.b] = rv
				baseGen[in.b] = gen
			} else {
				s.defineVar(fr, aux[pc].v, rv, tnt)
				sc := s.spec
				sc.ops += ops - o0
				if tnt {
					sc.reexecCycles += cycles - c0
					sc.reexecOps += ops - o0
				}
			}
			pc++

		case bcLoadAsgA1:
			var ix tval
			switch in.xm {
			case bcMConst:
				ix.v = in.val
			case bcMVar:
				if s.spec == nil {
					if regGen[in.xid] == gen {
						ix.v = regs[in.xid]
					}
				} else {
					ix.v, ix.t = s.readVar(fr, aux[pc].xv)
				}
			default:
				sp--
				ix = vs[sp]
			}
			i := int(ix.v.I)
			if i < 0 || i >= int(in.c) {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, fmt.Errorf("machine: %s: index %d out of range [0,%d) for %s (stmt s%d)",
					fr.fn.Name, i, aux[pc].g.Dims[0], aux[pc].g.Name, aux[pc].st.ID)
			}
			addr := int(in.d) + i
			ops++
			lat := hier.load(addr)
			cycles += lat
			if lat > l1Lat {
				memCycles += lat
			}
			var x tval
			if s.spec == nil {
				x = tval{v: mem[addr], t: ix.t}
			} else {
				v, t2 := s.readMem(addr)
				x = tval{v, ix.t || t2}
			}
			cycles += isC
			ops++
			if s.spec == nil {
				regs[in.a] = x.v
				regGen[in.a] = gen
				baseVals[in.b] = x.v
				baseGen[in.b] = gen
			} else {
				s.defineVar(fr, aux[pc].v, x.v, x.t)
				sc := s.spec
				sc.ops += ops - o0
				if x.t {
					sc.reexecCycles += cycles - c0
					sc.reexecOps += ops - o0
				}
			}
			pc++

		case bcStoreA1NS:
			sp--
			ix := vs[sp]
			i := int(ix.v.I)
			if i < 0 || i >= int(in.c) {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				return execOutcome{}, fmt.Errorf("machine: %s: index %d out of range [0,%d) for %s (stmt s%d)",
					fr.fn.Name, i, aux[pc].g.Dims[0], aux[pc].g.Name, aux[pc].st.ID)
			}
			var x tval
			if in.ym == bcMConst {
				x.v = in.val
			} else if s.spec == nil {
				if regGen[in.yid] == gen {
					x.v = regs[in.yid]
				}
			} else {
				x.v, x.t = s.readVar(fr, aux[pc].yv)
			}
			tnt := ix.t || x.t
			cycles += in.cost
			ops++
			addr := int(in.d) + i
			if s.spec == nil && !s.undoActive {
				mem[addr] = x.v
				hier.store(addr)
			} else {
				s.writeMem(addr, x.v, tnt)
				if sc := s.spec; sc != nil {
					sc.ops += ops - o0
					if tnt {
						sc.reexecCycles += cycles - c0
						sc.reexecOps += ops - o0
					}
				}
			}
			pc++

		case bcRet:
			var v Value
			var tnt bool
			if in.a != 0 {
				sp--
				v, tnt = vs[sp].v, vs[sp].t
			}
			cycles += in.cost
			ops++
			if sc := s.spec; sc != nil {
				sc.ops += ops - o0
				if tnt {
					sc.reexecCycles += cycles - c0
					sc.reexecOps += ops - o0
				}
			}
			s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
			return execOutcome{ret: true, retVal: v, retTaint: tnt}, nil

		case bcFork:
			ops++
			if s.forkIter != nil {
				s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
				s.onFork(fr)
				cycles, ops, steps, memCycles = s.cycles, s.ops, s.steps, s.memCycles
			}
			if sc := s.spec; sc != nil {
				sc.ops += ops - o0
			}
			pc++

		case bcKill:
			ops++
			if s.spec == nil {
				cycles += in.cost
			} else {
				s.spec.ops += ops - o0
			}
			pc++

		case bcBad:
			s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
			return execOutcome{}, fmt.Errorf("%s", aux[pc].str)

		default:
			s.cycles, s.ops, s.steps, s.memCycles = cycles, ops, steps, memCycles
			return execOutcome{}, fmt.Errorf("machine: invalid bytecode op %d", in.op)
		}
	}
}

func b2iInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// intBin evaluates a non-trapping integer binary operator, mirroring the
// walker's evalBin int arm exactly (including the shift-count masking).
func intBin(op ir.BinOp, xi, yi int64) int64 {
	switch op {
	case ir.BinAdd:
		return xi + yi
	case ir.BinSub:
		return xi - yi
	case ir.BinMul:
		return xi * yi
	case ir.BinAnd:
		return xi & yi
	case ir.BinOr:
		return xi | yi
	case ir.BinXor:
		return xi ^ yi
	case ir.BinShl:
		return xi << uint(yi&63)
	case ir.BinShr:
		return xi >> uint(yi&63)
	case ir.BinDiv:
		// Reached only with a constant nonzero, non-minus-one divisor
		// (fastIntBin): neither trap is possible.
		return xi / yi
	case ir.BinRem:
		return xi % yi
	case ir.BinEq:
		return b2iInt(xi == yi)
	case ir.BinNeq:
		return b2iInt(xi != yi)
	case ir.BinLt:
		return b2iInt(xi < yi)
	case ir.BinLeq:
		return b2iInt(xi <= yi)
	case ir.BinGt:
		return b2iInt(xi > yi)
	case ir.BinGeq:
		return b2iInt(xi >= yi)
	case ir.BinLAnd:
		return b2iInt(xi != 0 && yi != 0)
	case ir.BinLOr:
		return b2iInt(xi != 0 || yi != 0)
	}
	return 0
}

// floatBin evaluates a non-trapping float binary operator; comparisons
// produce int-typed Values, arithmetic float-typed ones, exactly like
// the walker (the unused union half stays zero).
func floatBin(op ir.BinOp, xf, yf float64) Value {
	switch op {
	case ir.BinAdd:
		return Value{F: xf + yf}
	case ir.BinSub:
		return Value{F: xf - yf}
	case ir.BinMul:
		return Value{F: xf * yf}
	case ir.BinEq:
		return Value{I: b2iInt(xf == yf)}
	case ir.BinNeq:
		return Value{I: b2iInt(xf != yf)}
	case ir.BinLt:
		return Value{I: b2iInt(xf < yf)}
	case ir.BinLeq:
		return Value{I: b2iInt(xf <= yf)}
	case ir.BinGt:
		return Value{I: b2iInt(xf > yf)}
	case ir.BinGeq:
		return Value{I: b2iInt(xf >= yf)}
	}
	return Value{}
}
