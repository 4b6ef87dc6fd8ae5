package machine

import (
	"fmt"
	"math"

	"sptc/internal/ir"
)

// This file holds the reference tree walker: an executor that interprets
// the IR directly, statement by statement and operand tree by operand
// tree. It defines the simulator's semantics in their plainest form.
// The bytecode engine (bcexec.go) must match it bit for bit — output
// bytes, cycles, op counts, branch and memory counters, per-loop
// statistics and error text — and the fidelity tests check that by
// running every program on both (export_test.go exposes the walker
// through NewTreeEngine). It shares everything else with the engine:
// frames, the SPT pairwise runner, speculative buffers, the memory
// hierarchy and the cost table binCostFor.

// exec runs one function activation from blk (entered from prev) until
// the function returns; with leg set, it runs one iteration of the active
// SPT loop and also stops at a block about to be entered that is the
// loop header or lies outside the loop. It is execByte's contract over
// the IR itself.
func (s *sim) exec(fr *frame, blk, prev *ir.Block, leg bool) (execOutcome, error) {
	stop := func(b *ir.Block) bool {
		return leg && (b == s.stopHdr || !s.loopBlocks[s.stopHdr][b])
	}
	for {
		// SPT loop entry: only from the outermost, non-speculative
		// context, and only when not already inside an SPT region.
		if id, ok := s.spt[blk]; ok && !s.sptActive {
			exit, exitPrev, err := s.runSPTLoop(fr, blk, prev, id)
			if err != nil {
				return execOutcome{}, err
			}
			blk, prev = exit, exitPrev
			if stop(blk) {
				return execOutcome{stopped: blk, prev: prev}, nil
			}
			continue
		}
		s.noteBlock(fr, blk)

		// Phis evaluate in parallel from the predecessor's values.
		phis := blk.Phis()
		if len(phis) > 0 && prev != nil {
			pi := blk.PredIndex(prev)
			if pi < 0 {
				return execOutcome{}, fmt.Errorf("machine: %s: b%d entered from non-pred b%d", fr.fn.Name, blk.ID, prev.ID)
			}
			// Scratch reuse is safe: nothing between the read and define
			// loops re-enters exec.
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

		for _, st := range blk.Stmts[len(phis):] {
			s.steps++
			if s.steps > s.cfg.MaxSteps {
				return execOutcome{}, ErrStepLimit
			}
			if s.ctx != nil && s.steps%ctxPollSteps == 0 {
				if err := s.ctx.Err(); err != nil {
					return execOutcome{}, err
				}
			}
			c0, o0 := s.cycles, s.ops

			switch st.Kind {
			case ir.StmtAssign:
				v, tnt, err := s.eval(fr, st, st.RHS)
				if err != nil {
					return execOutcome{}, err
				}
				s.cycles += s.cfg.IssueCost
				s.ops++
				s.defineVar(fr, st.Dst, v, tnt)
				s.chargeSpec(st, tnt, c0, o0)

			case ir.StmtStoreG, ir.StmtStoreA:
				addr := st.G.Addr
				tnt := false
				if st.Kind == ir.StmtStoreA {
					a, t, err := s.elemAddr(fr, st, st.G, st.Index)
					if err != nil {
						return execOutcome{}, err
					}
					addr, tnt = a, t
				}
				v, t2, err := s.eval(fr, st, st.RHS)
				if err != nil {
					return execOutcome{}, err
				}
				tnt = tnt || t2
				s.cycles += s.cfg.IssueCost
				s.ops++
				s.writeMem(addr, v, tnt)
				s.chargeSpec(st, tnt, c0, o0)

			case ir.StmtCall:
				_, tnt, err := s.eval(fr, st, st.RHS)
				if err != nil {
					return execOutcome{}, err
				}
				s.chargeSpec(st, tnt, c0, o0)

			case ir.StmtRet:
				var v Value
				var tnt bool
				if st.RHS != nil {
					var err error
					v, tnt, err = s.eval(fr, st, st.RHS)
					if err != nil {
						return execOutcome{}, err
					}
				}
				s.cycles += s.cfg.IssueCost
				s.ops++
				s.chargeSpec(st, tnt, c0, o0)
				return execOutcome{ret: true, retVal: v, retTaint: tnt}, nil

			case ir.StmtIf:
				v, tnt, err := s.eval(fr, st, st.RHS)
				if err != nil {
					return execOutcome{}, err
				}
				s.cycles += s.cfg.IssueCost
				s.ops++
				taken := isTrue(v, st.RHS.Type)
				if !s.bp().predict(st.ID, taken) {
					s.cycles += s.cfg.MispredictPenalty
				}
				next := blk.Succs[1]
				if taken {
					next = blk.Succs[0]
				}
				s.chargeSpec(st, tnt, c0, o0)
				prev, blk = blk, next
				goto nextBlock

			case ir.StmtGoto:
				prev, blk = blk, blk.Succs[0]
				goto nextBlock

			// Fork and kill accounting convention: each executes as one
			// dynamic instruction (ops++) on whichever core runs it, and
			// both flow through chargeSpec so speculative-leg op counts
			// (spec.ops) include them. Their cycle overheads are charged
			// where they take effect: ForkOverhead inside onFork (only
			// when a fork actually spawns), KillOverhead only on the
			// non-speculative core (a speculative thread's own kill is
			// discarded with the thread).
			case ir.StmtFork:
				s.ops++
				if s.forkIter != nil {
					s.onFork(fr)
				}
				// Outside an active main SPT leg (including speculative
				// legs) the fork spawns nothing.
				s.chargeSpec(st, false, c0, o0)

			case ir.StmtKill:
				s.ops++
				if s.spec == nil {
					s.cycles += s.cfg.KillOverhead
				}
				s.chargeSpec(st, false, c0, o0)

			default:
				return execOutcome{}, fmt.Errorf("machine: invalid statement kind %s", st.Kind)
			}
		}
		return execOutcome{}, fmt.Errorf("machine: %s: b%d fell through", fr.fn.Name, blk.ID)

	nextBlock:
		if stop(blk) {
			return execOutcome{stopped: blk, prev: prev}, nil
		}
	}
}

// chargeSpec records a statement's cost as re-execution when it was
// misspeculated during a speculative leg.
func (s *sim) chargeSpec(st *ir.Stmt, tainted bool, c0 float64, o0 int64) {
	if s.spec == nil {
		return
	}
	s.spec.ops += s.ops - o0
	if tainted {
		s.spec.reexecCycles += s.cycles - c0
		s.spec.reexecOps += s.ops - o0
	}
	_ = st
}

func isTrue(v Value, k ir.ValKind) bool {
	if k == ir.ValFloat {
		return v.F != 0
	}
	return v.I != 0
}

func (s *sim) elemAddr(fr *frame, st *ir.Stmt, g *ir.Global, index []*ir.Op) (int, bool, error) {
	off := 0
	tnt := false
	for d, ix := range index {
		v, t, err := s.eval(fr, st, ix)
		if err != nil {
			return 0, false, err
		}
		tnt = tnt || t
		i := int(v.I)
		if i < 0 || i >= g.Dims[d] {
			return 0, false, fmt.Errorf("machine: %s: index %d out of range [0,%d) for %s (stmt s%d)",
				fr.fn.Name, i, g.Dims[d], g.Name, st.ID)
		}
		off = off*g.Dims[d] + i
	}
	return g.Addr + off, tnt, nil
}

func (s *sim) eval(fr *frame, st *ir.Stmt, o *ir.Op) (Value, bool, error) {
	switch o.Kind {
	case ir.OpConstInt:
		return Value{I: o.ConstI}, false, nil
	case ir.OpConstFloat:
		return Value{F: o.ConstF}, false, nil
	case ir.OpConstStr:
		return Value{}, false, nil
	case ir.OpUseVar:
		v, tnt := s.readVar(fr, o.Var)
		return v, tnt, nil
	case ir.OpLoadG:
		s.ops++
		lat := s.hier.load(o.G.Addr)
		s.cycles += lat
		if lat > s.cfg.L1Lat {
			s.memCycles += lat
		}
		v, tnt := s.readMem(o.G.Addr)
		return v, tnt, nil
	case ir.OpLoadA:
		addr, tnt, err := s.elemAddr(fr, st, o.G, o.Args)
		if err != nil {
			return Value{}, false, err
		}
		s.ops++
		lat := s.hier.load(addr)
		s.cycles += lat
		if lat > s.cfg.L1Lat {
			s.memCycles += lat
		}
		v, t2 := s.readMem(addr)
		return v, tnt || t2, nil
	case ir.OpBin:
		x, tx, err := s.eval(fr, st, o.Args[0])
		if err != nil {
			return Value{}, false, err
		}
		y, ty, err := s.eval(fr, st, o.Args[1])
		if err != nil {
			return Value{}, false, err
		}
		s.ops++
		s.cycles += binCostFor(s.cfg, o)
		v, err := evalBinMachine(fr, st, o, x, y)
		return v, tx || ty, err
	case ir.OpUn:
		x, tnt, err := s.eval(fr, st, o.Args[0])
		if err != nil {
			return Value{}, false, err
		}
		s.ops++
		s.cycles += s.cfg.IssueCost
		switch o.Un {
		case ir.UnNeg:
			if o.Type == ir.ValFloat {
				return Value{F: -x.F}, tnt, nil
			}
			return Value{I: -x.I}, tnt, nil
		case ir.UnNot:
			if isTrue(x, o.Args[0].Type) {
				return Value{I: 0}, tnt, nil
			}
			return Value{I: 1}, tnt, nil
		case ir.UnBitNot:
			return Value{I: ^x.I}, tnt, nil
		}
		return Value{}, false, fmt.Errorf("machine: bad unary op")
	case ir.OpCast:
		x, tnt, err := s.eval(fr, st, o.Args[0])
		if err != nil {
			return Value{}, false, err
		}
		s.ops++
		s.cycles += s.cfg.IssueCost
		if o.Type == ir.ValFloat {
			if o.Args[0].Type == ir.ValFloat {
				return x, tnt, nil
			}
			return Value{F: float64(x.I)}, tnt, nil
		}
		if o.Args[0].Type == ir.ValFloat {
			return Value{I: int64(x.F)}, tnt, nil
		}
		return x, tnt, nil
	case ir.OpCall:
		return s.evalCall(fr, st, o)
	}
	return Value{}, false, fmt.Errorf("machine: invalid op kind %d", o.Kind)
}

func (s *sim) evalCall(fr *frame, st *ir.Stmt, o *ir.Op) (Value, bool, error) {
	if o.Builtin {
		return s.evalBuiltin(fr, st, o)
	}
	if o.Func == nil {
		return Value{}, false, fmt.Errorf("machine: unresolved call %s", o.Str)
	}
	// Argument values live in a stack-disciplined scratch buffer: nested
	// calls during operand evaluation push above our base and truncate
	// back before we append the next operand.
	base := len(s.argBuf)
	argTaint := false
	for _, a := range o.Args {
		v, t, err := s.eval(fr, st, a)
		if err != nil {
			s.argBuf = s.argBuf[:base]
			return Value{}, false, err
		}
		s.argBuf = append(s.argBuf, v)
		argTaint = argTaint || t
	}
	s.ops++
	v, retTaint, err := s.callTainted(o.Func, s.argBuf[base:], fr.depth+1, argTaint)
	s.argBuf = s.argBuf[:base]
	return v, argTaint || retTaint, err
}

func (s *sim) evalBuiltin(fr *frame, st *ir.Stmt, o *ir.Op) (Value, bool, error) {
	if o.Str == "print" {
		s.ops++
		s.cycles += s.cfg.PrintCost
		tnt := false
		for i, a := range o.Args {
			if i > 0 {
				fmt.Fprint(s.out, " ")
			}
			if a.Kind == ir.OpConstStr {
				fmt.Fprint(s.out, a.Str)
				continue
			}
			v, t, err := s.eval(fr, st, a)
			if err != nil {
				return Value{}, false, err
			}
			tnt = tnt || t
			if a.Type == ir.ValFloat {
				fmt.Fprintf(s.out, "%.6g", v.F)
			} else {
				fmt.Fprintf(s.out, "%d", v.I)
			}
		}
		fmt.Fprintln(s.out)
		return Value{}, tnt, nil
	}

	base := len(s.argBuf)
	defer func() { s.argBuf = s.argBuf[:base] }()
	tnt := false
	for _, a := range o.Args {
		v, t, err := s.eval(fr, st, a)
		if err != nil {
			return Value{}, false, err
		}
		s.argBuf = append(s.argBuf, v)
		tnt = tnt || t
	}
	args := s.argBuf[base:]
	s.ops++
	switch o.Str {
	case "fabs":
		s.cycles += s.cfg.IssueCost
		return Value{F: math.Abs(args[0].F)}, tnt, nil
	case "fsqrt":
		s.cycles += s.cfg.SqrtCost
		if args[0].F < 0 {
			return Value{}, false, fmt.Errorf("machine: fsqrt of negative value")
		}
		return Value{F: math.Sqrt(args[0].F)}, tnt, nil
	case "fmin":
		s.cycles += s.cfg.FloatCost
		return Value{F: math.Min(args[0].F, args[1].F)}, tnt, nil
	case "fmax":
		s.cycles += s.cfg.FloatCost
		return Value{F: math.Max(args[0].F, args[1].F)}, tnt, nil
	case "iabs":
		s.cycles += s.cfg.IssueCost
		if args[0].I < 0 {
			return Value{I: -args[0].I}, tnt, nil
		}
		return args[0], tnt, nil
	case "imin":
		s.cycles += s.cfg.IssueCost
		if args[0].I < args[1].I {
			return args[0], tnt, nil
		}
		return args[1], tnt, nil
	case "imax":
		s.cycles += s.cfg.IssueCost
		if args[0].I > args[1].I {
			return args[0], tnt, nil
		}
		return args[1], tnt, nil
	}
	return Value{}, false, fmt.Errorf("machine: unknown builtin %s", o.Str)
}
