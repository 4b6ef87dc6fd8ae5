// Package interp executes IR programs directly (in SSA or pre-SSA form).
// It is the substrate for the profilers (§7.3 of the paper: control-flow
// edge profiling, data-dependence profiling, and value profiling for
// software value prediction) and the functional reference for testing the
// SPT transformation: a transformed program must print exactly what the
// original printed.
package interp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"sptc/internal/ir"
)

// Value is one runtime scalar in one 8-byte word. The static kind of
// the variable, memory cell or op that holds it says how to read it: an
// integer is stored as-is, a float as its IEEE 754 bits. Two Values are
// equal when their bits are, so +0.0 and -0.0 differ and a NaN equals a
// NaN with the same payload. The zero Value reads as 0 and as +0.0.
type Value uint64

// IntVal makes an integer Value.
func IntVal(i int64) Value { return Value(i) }

// FloatVal makes a float Value.
func FloatVal(f float64) Value { return Value(math.Float64bits(f)) }

// Int reads v as an integer.
func (v Value) Int() int64 { return int64(v) }

// Float reads v as a float.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v)) }

// Hooks receives execution events. Any field may be nil.
type Hooks struct {
	// OnEdge fires for every control transfer between blocks of the same
	// function, including loop back edges.
	OnEdge func(fr *Frame, from, to *ir.Block)
	// OnStmt fires before each statement executes.
	OnStmt func(fr *Frame, s *ir.Stmt)
	// OnLoad fires for every memory read (global scalar or array element).
	OnLoad func(fr *Frame, s *ir.Stmt, op *ir.Op, addr int)
	// OnStore fires for every memory write, after the value is computed.
	OnStore func(fr *Frame, s *ir.Stmt, addr int)
	// OnDef fires when an assignment or phi defines a scalar.
	OnDef func(fr *Frame, s *ir.Stmt, v Value)
	// OnEnter/OnExit fire on function entry and exit.
	OnEnter func(fr *Frame)
	// OnExit fires when fr returns.
	OnExit func(fr *Frame)
}

// Frame is one function activation.
type Frame struct {
	Func   *ir.Func
	Caller *Frame
	Depth  int
	// Regs holds the activation's scalars, indexed by Var.ID and sized by
	// Func.NumVars(); a variable read before any write is zero. It is a
	// window of the machine's value stack, valid only while the frame is
	// live: later calls reuse the slots once it returns.
	Regs []Value
	ID   int64 // unique activation id
}

// Machine executes a program.
type Machine struct {
	Prog     *ir.Program
	Mem      []Value
	Out      io.Writer
	Hooks    Hooks
	Steps    int64 // statements executed
	MaxSteps int64
	// Ctx, when set, cancels execution cooperatively: it is polled
	// every ctxPollSteps statements.
	Ctx context.Context

	nextFrameID int64

	// stack is the value stack frames carve their registers from; sp is
	// its first free slot. When a frame does not fit, a larger stack
	// replaces it: live frames keep their windows into the old array, so
	// nothing is copied and caller registers stay put.
	stack []Value
	sp    int
	// phiVals stages a block's phi values before any is written; args
	// holds evaluated call arguments until the callee takes them. Both
	// are reused across blocks and calls.
	phiVals []Value
	args    []Value
}

// ctxPollSteps is how often (in executed statements) the interpreter
// polls Ctx for cancellation.
const ctxPollSteps = 4096

// ErrStepLimit is returned when execution exceeds MaxSteps.
var ErrStepLimit = errors.New("interp: step limit exceeded")

// New creates a machine with memory laid out and globals initialized.
func New(prog *ir.Program, out io.Writer) *Machine {
	size := prog.Layout()
	m := &Machine{Prog: prog, Mem: make([]Value, size), Out: out, MaxSteps: 2_000_000_000}
	for _, g := range prog.Globals {
		if !g.IsArray() {
			if g.Elem == ir.ValFloat {
				m.Mem[g.Addr] = FloatVal(g.InitF)
			} else {
				m.Mem[g.Addr] = IntVal(g.InitInt)
			}
		}
	}
	return m
}

// Run executes main and returns its result (zero Value for void).
func (m *Machine) Run() (Value, error) {
	if m.Prog.Main == nil {
		return 0, errors.New("interp: program has no main")
	}
	return m.Call(m.Prog.Main, nil, nil)
}

// Call invokes f with the given arguments.
func (m *Machine) Call(f *ir.Func, args []Value, caller *Frame) (Value, error) {
	fr := &Frame{Func: f, Caller: caller, ID: m.nextFrameID}
	m.nextFrameID++
	if caller != nil {
		fr.Depth = caller.Depth + 1
	}
	if fr.Depth > 10000 {
		return 0, fmt.Errorf("interp: call stack overflow in %s", f.Name)
	}
	base, n := m.sp, f.NumVars()
	if base+n > len(m.stack) {
		m.stack = make([]Value, max(2*len(m.stack), base+n))
	}
	fr.Regs = m.stack[base : base+n : base+n]
	clear(fr.Regs)
	m.sp = base + n
	for i, p := range f.Params {
		if i < len(args) {
			fr.Regs[p.ID] = args[i]
		}
	}
	v, err := m.exec(fr)
	m.sp = base
	return v, err
}

// exec runs fr's function body from its entry block.
func (m *Machine) exec(fr *Frame) (Value, error) {
	f := fr.Func
	if m.Hooks.OnEnter != nil {
		m.Hooks.OnEnter(fr)
	}

	blk := f.Entry
	var prev *ir.Block
	for {
		// Phase 1: evaluate all phis using values from the predecessor.
		phis := blk.Phis()
		if len(phis) > 0 && prev != nil {
			pi := blk.PredIndex(prev)
			if pi < 0 {
				return 0, fmt.Errorf("interp: %s: b%d entered from non-predecessor b%d", f.Name, blk.ID, prev.ID)
			}
			vals := m.phiVals[:0]
			for _, phi := range phis {
				if pi >= len(phi.PhiArgs) {
					return 0, fmt.Errorf("interp: %s: phi arity mismatch in b%d", f.Name, blk.ID)
				}
				vals = append(vals, fr.Regs[phi.PhiArgs[pi].ID])
			}
			m.phiVals = vals
			for i, phi := range phis {
				fr.Regs[phi.Dst.ID] = vals[i]
				if m.Hooks.OnDef != nil {
					m.Hooks.OnDef(fr, phi, vals[i])
				}
				m.Steps++
			}
		}

		for _, s := range blk.Stmts[len(phis):] {
			m.Steps++
			if m.Steps > m.MaxSteps {
				return 0, ErrStepLimit
			}
			if m.Ctx != nil && m.Steps%ctxPollSteps == 0 {
				if err := m.Ctx.Err(); err != nil {
					return 0, err
				}
			}
			if m.Hooks.OnStmt != nil {
				m.Hooks.OnStmt(fr, s)
			}
			switch s.Kind {
			case ir.StmtAssign:
				v, err := m.eval(fr, s, s.RHS)
				if err != nil {
					return 0, err
				}
				fr.Regs[s.Dst.ID] = v
				if m.Hooks.OnDef != nil {
					m.Hooks.OnDef(fr, s, v)
				}
			case ir.StmtStoreG:
				v, err := m.eval(fr, s, s.RHS)
				if err != nil {
					return 0, err
				}
				m.Mem[s.G.Addr] = v
				if m.Hooks.OnStore != nil {
					m.Hooks.OnStore(fr, s, s.G.Addr)
				}
			case ir.StmtStoreA:
				addr, err := m.elemAddr(fr, s, s.G, s.Index)
				if err != nil {
					return 0, err
				}
				v, err := m.eval(fr, s, s.RHS)
				if err != nil {
					return 0, err
				}
				m.Mem[addr] = v
				if m.Hooks.OnStore != nil {
					m.Hooks.OnStore(fr, s, addr)
				}
			case ir.StmtCall:
				if _, err := m.eval(fr, s, s.RHS); err != nil {
					return 0, err
				}
			case ir.StmtRet:
				var v Value
				if s.RHS != nil {
					var err error
					v, err = m.eval(fr, s, s.RHS)
					if err != nil {
						return 0, err
					}
				}
				if m.Hooks.OnExit != nil {
					m.Hooks.OnExit(fr)
				}
				return v, nil
			case ir.StmtIf:
				v, err := m.eval(fr, s, s.RHS)
				if err != nil {
					return 0, err
				}
				next := blk.Succs[1]
				if isTrue(v, s.RHS.Type) {
					next = blk.Succs[0]
				}
				if m.Hooks.OnEdge != nil {
					m.Hooks.OnEdge(fr, blk, next)
				}
				prev, blk = blk, next
				goto nextBlock
			case ir.StmtGoto:
				next := blk.Succs[0]
				if m.Hooks.OnEdge != nil {
					m.Hooks.OnEdge(fr, blk, next)
				}
				prev, blk = blk, next
				goto nextBlock
			case ir.StmtFork, ir.StmtKill:
				// Functionally, SPT fork/kill are no-ops: speculation
				// only affects timing. The machine simulator models them.
			case ir.StmtPhi:
				return 0, fmt.Errorf("interp: %s: phi not at block head (b%d)", f.Name, blk.ID)
			default:
				return 0, fmt.Errorf("interp: %s: invalid statement kind %s", f.Name, s.Kind)
			}
		}
		return 0, fmt.Errorf("interp: %s: block b%d fell through without terminator", f.Name, blk.ID)
	nextBlock:
		continue
	}
}

func isTrue(v Value, k ir.ValKind) bool {
	if k == ir.ValFloat {
		return v.Float() != 0
	}
	return v.Int() != 0
}

func (m *Machine) elemAddr(fr *Frame, s *ir.Stmt, g *ir.Global, index []*ir.Op) (int, error) {
	if len(index) != len(g.Dims) {
		return 0, fmt.Errorf("interp: %s: wrong index arity for %s", fr.Func.Name, g.Name)
	}
	off := 0
	for d, ix := range index {
		v, err := m.eval(fr, s, ix)
		if err != nil {
			return 0, err
		}
		i := int(v.Int())
		if i < 0 || i >= g.Dims[d] {
			return 0, fmt.Errorf("interp: %s: index %d out of range [0,%d) for %s (stmt s%d)",
				fr.Func.Name, i, g.Dims[d], g.Name, s.ID)
		}
		off = off*g.Dims[d] + i
	}
	return g.Addr + off, nil
}

func (m *Machine) eval(fr *Frame, s *ir.Stmt, o *ir.Op) (Value, error) {
	switch o.Kind {
	case ir.OpConstInt:
		return IntVal(o.ConstI), nil
	case ir.OpConstFloat:
		return FloatVal(o.ConstF), nil
	case ir.OpConstStr:
		return 0, nil
	case ir.OpUseVar:
		return fr.Regs[o.Var.ID], nil
	case ir.OpLoadG:
		if m.Hooks.OnLoad != nil {
			m.Hooks.OnLoad(fr, s, o, o.G.Addr)
		}
		return m.Mem[o.G.Addr], nil
	case ir.OpLoadA:
		addr, err := m.elemAddr(fr, s, o.G, o.Args)
		if err != nil {
			return 0, err
		}
		if m.Hooks.OnLoad != nil {
			m.Hooks.OnLoad(fr, s, o, addr)
		}
		return m.Mem[addr], nil
	case ir.OpBin:
		x, err := m.eval(fr, s, o.Args[0])
		if err != nil {
			return 0, err
		}
		y, err := m.eval(fr, s, o.Args[1])
		if err != nil {
			return 0, err
		}
		return evalBin(fr, s, o, x, y)
	case ir.OpUn:
		x, err := m.eval(fr, s, o.Args[0])
		if err != nil {
			return 0, err
		}
		switch o.Un {
		case ir.UnNeg:
			if o.Type == ir.ValFloat {
				return FloatVal(-x.Float()), nil
			}
			return IntVal(-x.Int()), nil
		case ir.UnNot:
			if isTrue(x, o.Args[0].Type) {
				return IntVal(0), nil
			}
			return IntVal(1), nil
		case ir.UnBitNot:
			return IntVal(^x.Int()), nil
		}
	case ir.OpCast:
		x, err := m.eval(fr, s, o.Args[0])
		if err != nil {
			return 0, err
		}
		if o.Type == ir.ValFloat {
			if o.Args[0].Type == ir.ValFloat {
				return x, nil
			}
			return FloatVal(float64(x.Int())), nil
		}
		if o.Args[0].Type == ir.ValFloat {
			return IntVal(int64(x.Float())), nil
		}
		return x, nil
	case ir.OpCall:
		return m.evalCall(fr, s, o)
	}
	return 0, fmt.Errorf("interp: invalid op kind %d", o.Kind)
}

func evalBin(fr *Frame, s *ir.Stmt, o *ir.Op, x, y Value) (Value, error) {
	lf := o.Args[0].Type == ir.ValFloat || o.Args[1].Type == ir.ValFloat
	b2i := func(b bool) Value {
		if b {
			return IntVal(1)
		}
		return IntVal(0)
	}
	if lf {
		switch o.Bin {
		case ir.BinAdd:
			return FloatVal(x.Float() + y.Float()), nil
		case ir.BinSub:
			return FloatVal(x.Float() - y.Float()), nil
		case ir.BinMul:
			return FloatVal(x.Float() * y.Float()), nil
		case ir.BinDiv:
			if y.Float() == 0 {
				return 0, fmt.Errorf("interp: %s: float division by zero (stmt s%d)", fr.Func.Name, s.ID)
			}
			return FloatVal(x.Float() / y.Float()), nil
		case ir.BinEq:
			return b2i(x.Float() == y.Float()), nil
		case ir.BinNeq:
			return b2i(x.Float() != y.Float()), nil
		case ir.BinLt:
			return b2i(x.Float() < y.Float()), nil
		case ir.BinLeq:
			return b2i(x.Float() <= y.Float()), nil
		case ir.BinGt:
			return b2i(x.Float() > y.Float()), nil
		case ir.BinGeq:
			return b2i(x.Float() >= y.Float()), nil
		}
		return 0, fmt.Errorf("interp: %s: operator %s on float operands", fr.Func.Name, o.Bin)
	}
	switch o.Bin {
	case ir.BinAdd:
		return IntVal(x.Int() + y.Int()), nil
	case ir.BinSub:
		return IntVal(x.Int() - y.Int()), nil
	case ir.BinMul:
		return IntVal(x.Int() * y.Int()), nil
	case ir.BinDiv:
		if y.Int() == 0 {
			return 0, fmt.Errorf("interp: %s: integer division by zero (stmt s%d)", fr.Func.Name, s.ID)
		}
		return IntVal(x.Int() / y.Int()), nil
	case ir.BinRem:
		if y.Int() == 0 {
			return 0, fmt.Errorf("interp: %s: integer remainder by zero (stmt s%d)", fr.Func.Name, s.ID)
		}
		return IntVal(x.Int() % y.Int()), nil
	case ir.BinAnd:
		return IntVal(x.Int() & y.Int()), nil
	case ir.BinOr:
		return IntVal(x.Int() | y.Int()), nil
	case ir.BinXor:
		return IntVal(x.Int() ^ y.Int()), nil
	case ir.BinShl:
		return IntVal(x.Int() << uint(y.Int()&63)), nil
	case ir.BinShr:
		return IntVal(x.Int() >> uint(y.Int()&63)), nil
	case ir.BinEq:
		return b2i(x.Int() == y.Int()), nil
	case ir.BinNeq:
		return b2i(x.Int() != y.Int()), nil
	case ir.BinLt:
		return b2i(x.Int() < y.Int()), nil
	case ir.BinLeq:
		return b2i(x.Int() <= y.Int()), nil
	case ir.BinGt:
		return b2i(x.Int() > y.Int()), nil
	case ir.BinGeq:
		return b2i(x.Int() >= y.Int()), nil
	case ir.BinLAnd:
		return b2i(x.Int() != 0 && y.Int() != 0), nil
	case ir.BinLOr:
		return b2i(x.Int() != 0 || y.Int() != 0), nil
	}
	return 0, fmt.Errorf("interp: invalid binary operator")
}

func (m *Machine) evalCall(fr *Frame, s *ir.Stmt, o *ir.Op) (Value, error) {
	if o.Builtin {
		return m.evalBuiltin(fr, s, o)
	}
	if o.Func == nil {
		return 0, fmt.Errorf("interp: call to unresolved function %s", o.Str)
	}
	base, err := m.pushArgs(fr, s, o.Args)
	if err != nil {
		return 0, err
	}
	v, err := m.Call(o.Func, m.args[base:], fr)
	m.args = m.args[:base]
	return v, err
}

// pushArgs evaluates call arguments onto m.args and returns where they
// start; the caller truncates m.args back to that index when done.
// Arguments containing calls push and pop above it in turn.
func (m *Machine) pushArgs(fr *Frame, s *ir.Stmt, args []*ir.Op) (int, error) {
	base := len(m.args)
	for _, a := range args {
		v, err := m.eval(fr, s, a)
		if err != nil {
			m.args = m.args[:base]
			return 0, err
		}
		m.args = append(m.args, v)
	}
	return base, nil
}

func (m *Machine) evalBuiltin(fr *Frame, s *ir.Stmt, o *ir.Op) (Value, error) {
	switch o.Str {
	case "print":
		for i, a := range o.Args {
			if i > 0 {
				fmt.Fprint(m.Out, " ")
			}
			if a.Kind == ir.OpConstStr {
				fmt.Fprint(m.Out, a.Str)
				continue
			}
			v, err := m.eval(fr, s, a)
			if err != nil {
				return 0, err
			}
			if a.Type == ir.ValFloat {
				fmt.Fprintf(m.Out, "%.6g", v.Float())
			} else {
				fmt.Fprintf(m.Out, "%d", v.Int())
			}
		}
		fmt.Fprintln(m.Out)
		return 0, nil
	}

	base, err := m.pushArgs(fr, s, o.Args)
	if err != nil {
		return 0, err
	}
	// Nothing below pushes arguments, so the popped slots stay intact
	// while the builtin reads them.
	args := m.args[base:]
	m.args = m.args[:base]
	switch o.Str {
	case "fabs":
		return FloatVal(math.Abs(args[0].Float())), nil
	case "fsqrt":
		if args[0].Float() < 0 {
			return 0, fmt.Errorf("interp: fsqrt of negative value")
		}
		return FloatVal(math.Sqrt(args[0].Float())), nil
	case "fmin":
		return FloatVal(math.Min(args[0].Float(), args[1].Float())), nil
	case "fmax":
		return FloatVal(math.Max(args[0].Float(), args[1].Float())), nil
	case "iabs":
		if args[0].Int() < 0 {
			return IntVal(-args[0].Int()), nil
		}
		return args[0], nil
	case "imin":
		if args[0].Int() < args[1].Int() {
			return args[0], nil
		}
		return args[1], nil
	case "imax":
		if args[0].Int() > args[1].Int() {
			return args[0], nil
		}
		return args[1], nil
	}
	return 0, fmt.Errorf("interp: unknown builtin %s", o.Str)
}
