package ir

import (
	"encoding/binary"
	"math"
)

// AppendExecKey appends to dst an exact encoding of everything an
// execution of p depends on, in p's own numbering: function order and
// each function's NumBlocks/NumStmts/NumVars/NumOps, parameters and
// entry; block order, IDs, successor and predecessor IDs; statement IDs,
// kinds and operands; op IDs, kinds and operands, with variables by ID
// and kind, callees by position in Funcs, and globals by position in
// Globals, whose element kinds, shapes and initial values are encoded
// too (their sizes and order fix the addresses Layout assigns). Names and
// source positions are left out: they reach only error messages.
//
// Unlike the incr fingerprints, nothing is normalized: two programs with
// equal encodings execute step for step alike and count every event at
// the same IDs, so dense per-ID tables one of them fills describe the
// other (profile.Memo keys its runs by it).
func AppendExecKey(dst []byte, p *Program) []byte {
	e := execKey{b: dst, funcs: make(map[*Func]int, len(p.Funcs)), globals: make(map[*Global]int, len(p.Globals))}
	for i, f := range p.Funcs {
		e.funcs[f] = i
	}
	e.int(len(p.Globals))
	for i, g := range p.Globals {
		e.globals[g] = i
		e.int(int(g.Elem))
		e.ints(g.Dims)
		e.int(g.Size)
		e.i64(g.InitInt)
		e.f64(g.InitF)
	}
	e.int(len(p.Funcs))
	for _, f := range p.Funcs {
		e.int(f.NumBlocks())
		e.int(f.NumStmts())
		e.int(f.NumVars())
		e.int(f.NumOps())
		e.int(int(f.Result))
		e.bool(f == p.Main)
		e.int(len(f.Params))
		for _, v := range f.Params {
			e.v(v)
		}
		e.block(f.Entry)
		e.int(len(f.Blocks))
		for _, b := range f.Blocks {
			e.int(b.ID)
			e.int(len(b.Succs))
			for _, s := range b.Succs {
				e.block(s)
			}
			e.int(len(b.Preds))
			for _, s := range b.Preds {
				e.block(s)
			}
			e.int(len(b.Stmts))
			for _, s := range b.Stmts {
				e.stmt(s)
			}
		}
	}
	return e.b
}

type execKey struct {
	b       []byte
	funcs   map[*Func]int
	globals map[*Global]int
}

func (e *execKey) int(v int) { e.i64(int64(v)) }

func (e *execKey) i64(v int64) { e.b = binary.AppendVarint(e.b, v) }

func (e *execKey) f64(v float64) { e.i64(int64(math.Float64bits(v))) }

func (e *execKey) ints(vs []int) {
	e.int(len(vs))
	for _, v := range vs {
		e.int(v)
	}
}

func (e *execKey) bool(v bool) {
	if v {
		e.int(1)
	} else {
		e.int(0)
	}
}

func (e *execKey) str(s string) {
	e.int(len(s))
	e.b = append(e.b, s...)
}

func (e *execKey) block(b *Block) {
	if b == nil {
		e.int(-1)
		return
	}
	e.int(b.ID)
}

func (e *execKey) v(v *Var) {
	if v == nil {
		e.int(-1)
		return
	}
	e.int(v.ID)
	e.int(int(v.Kind))
	if v.Base != nil {
		e.int(v.Base.ID)
	} else {
		e.int(-1)
	}
}

func (e *execKey) global(g *Global) {
	if g == nil {
		e.int(-1)
		return
	}
	e.int(e.globals[g])
}

func (e *execKey) stmt(s *Stmt) {
	e.int(s.ID)
	e.int(int(s.Kind))
	e.v(s.Dst)
	e.op(s.RHS)
	e.global(s.G)
	e.int(len(s.Index))
	for _, o := range s.Index {
		e.op(o)
	}
	e.int(len(s.PhiArgs))
	for _, v := range s.PhiArgs {
		e.v(v)
	}
	e.int(s.LoopID)
	e.block(s.Target)
}

func (e *execKey) op(o *Op) {
	if o == nil {
		e.int(-1)
		return
	}
	e.int(o.ID)
	e.int(int(o.Kind))
	e.int(int(o.Type))
	e.i64(o.ConstI)
	e.f64(o.ConstF)
	e.str(o.Str)
	e.v(o.Var)
	e.global(o.G)
	e.int(int(o.Bin))
	e.int(int(o.Un))
	e.str(o.Callee)
	if fn, ok := e.funcs[o.Func]; ok {
		e.int(fn)
	} else {
		e.int(-1)
	}
	e.bool(o.Builtin)
	e.int(len(o.Args))
	for _, a := range o.Args {
		e.op(a)
	}
}
