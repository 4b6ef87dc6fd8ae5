package depgraph

import "sptc/internal/ir"

// Effects summarizes the memory side effects of a function, transitively
// including its callees. It is the type-based interprocedural summary the
// static (basic-compilation) dependence analysis relies on; the paper's
// ORC implementation similarly used type-based alias analysis.
type Effects struct {
	Reads  map[*ir.Global]bool
	Writes map[*ir.Global]bool
	IO     bool // calls print (ordered side effect)
	// Unknown marks recursion cycles that could not be fully resolved;
	// treated as touching everything.
	Unknown bool
}

// MayRead reports whether the function may read g.
func (e *Effects) MayRead(g *ir.Global) bool { return e.Unknown || e.Reads[g] }

// MayWrite reports whether the function may write g.
func (e *Effects) MayWrite(g *ir.Global) bool { return e.Unknown || e.Writes[g] }

// Pure reports whether the function has no memory or I/O side effects.
func (e *Effects) Pure() bool {
	return !e.Unknown && !e.IO && len(e.Writes) == 0
}

// ComputeEffects builds effect summaries for every function, resolving
// call cycles by iterating to a fixed point.
func ComputeEffects(p *ir.Program) map[*ir.Func]*Effects {
	out := make(map[*ir.Func]*Effects, len(p.Funcs))
	for _, f := range p.Funcs {
		out[f] = &Effects{Reads: make(map[*ir.Global]bool), Writes: make(map[*ir.Global]bool)}
	}

	local := func(f *ir.Func, e *Effects) bool {
		changed := false
		setR := func(g *ir.Global) {
			if !e.Reads[g] {
				e.Reads[g] = true
				changed = true
			}
		}
		setW := func(g *ir.Global) {
			if !e.Writes[g] {
				e.Writes[g] = true
				changed = true
			}
		}
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				if s.Kind == ir.StmtStoreG || s.Kind == ir.StmtStoreA {
					setW(s.G)
				}
				s.Ops(func(o *ir.Op) {
					switch o.Kind {
					case ir.OpLoadG, ir.OpLoadA:
						setR(o.G)
					case ir.OpCall:
						if o.Builtin {
							if o.Str == "print" && !e.IO {
								e.IO = true
								changed = true
							}
							return
						}
						callee := out[o.Func]
						if callee == nil {
							if !e.Unknown {
								e.Unknown = true
								changed = true
							}
							return
						}
						for g := range callee.Reads {
							setR(g)
						}
						for g := range callee.Writes {
							setW(g)
						}
						if callee.IO && !e.IO {
							e.IO = true
							changed = true
						}
						if callee.Unknown && !e.Unknown {
							e.Unknown = true
							changed = true
						}
					}
				})
			}
		}
		return changed
	}

	for {
		changed := false
		for _, f := range p.Funcs {
			if local(f, out[f]) {
				changed = true
			}
		}
		if !changed {
			return out
		}
	}
}

// AffineIndex describes an array index of the form iv + offset where iv
// is a loop induction variable (base version), or a constant.
type AffineIndex struct {
	IV     *ir.Var // nil for a pure constant
	Offset int64
	OK     bool
}

// AnalyzeIndex tries to express the index operation as iv + c for the
// given induction variable base. Accepts iv, iv+c, iv-c, c+iv, and plain
// constants.
func AnalyzeIndex(o *ir.Op, iv *ir.Var) AffineIndex {
	switch o.Kind {
	case ir.OpConstInt:
		return AffineIndex{Offset: o.ConstI, OK: true}
	case ir.OpUseVar:
		if o.Var.Base == iv {
			return AffineIndex{IV: iv, OK: true}
		}
	case ir.OpBin:
		x, y := o.Args[0], o.Args[1]
		switch o.Bin {
		case ir.BinAdd:
			if x.Kind == ir.OpUseVar && x.Var.Base == iv && y.Kind == ir.OpConstInt {
				return AffineIndex{IV: iv, Offset: y.ConstI, OK: true}
			}
			if y.Kind == ir.OpUseVar && y.Var.Base == iv && x.Kind == ir.OpConstInt {
				return AffineIndex{IV: iv, Offset: x.ConstI, OK: true}
			}
		case ir.BinSub:
			if x.Kind == ir.OpUseVar && x.Var.Base == iv && y.Kind == ir.OpConstInt {
				return AffineIndex{IV: iv, Offset: -y.ConstI, OK: true}
			}
		}
	}
	return AffineIndex{}
}

// StaticArrayRelation classifies the iteration distance between a store
// and a load of the same array using affine index analysis against the
// loop induction variable stepping by step.
//
// Returns (sameIter, nextIter, unknown): whether the pair may alias within
// one iteration, whether the store may reach the load one iteration later,
// or whether nothing could be proven (conservative: both possible).
func StaticArrayRelation(storeIx, loadIx []*ir.Op, iv *ir.Var, step int64) (sameIter, nextIter, unknown bool) {
	if iv == nil || step == 0 || len(storeIx) != len(loadIx) || len(storeIx) == 0 {
		return false, false, true
	}
	// Only the last (fastest-varying) dimension is analyzed; leading
	// dimensions must be syntactically identical affine forms.
	for d := 0; d < len(storeIx)-1; d++ {
		a := AnalyzeIndex(storeIx[d], iv)
		b := AnalyzeIndex(loadIx[d], iv)
		if !a.OK || !b.OK || a.IV != b.IV || a.Offset != b.Offset {
			return false, false, true
		}
	}
	a := AnalyzeIndex(storeIx[len(storeIx)-1], iv)
	b := AnalyzeIndex(loadIx[len(loadIx)-1], iv)
	if !a.OK || !b.OK {
		return false, false, true
	}
	switch {
	case a.IV == nil && b.IV == nil:
		// Two constants: alias iff equal, and then in every iteration.
		if a.Offset == b.Offset {
			return true, true, false
		}
		return false, false, false
	case a.IV != nil && b.IV != nil:
		// store[i+c1] in iter i reaches load[j+c2] in iter j when
		// i+c1 == j+c2, i.e. j == i + (c1-c2)/step iterations later.
		delta := a.Offset - b.Offset
		if delta == 0 {
			return true, false, false
		}
		if step != 0 && delta%step == 0 && delta/step == 1 {
			return false, true, false
		}
		return false, false, false
	default:
		// Mixed iv/constant: the store hits the load's cell in exactly
		// one iteration; conservatively allow both.
		return false, false, true
	}
}
