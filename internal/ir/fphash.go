package ir

import "math"

// This file holds the fingerprint-hashing primitives for incremental
// recompilation (internal/incr): a streaming FNV-1a 64-bit hasher and a
// normalizer that serializes statements invariantly to the identities
// that change under meaning-preserving edits — raw statement/op IDs,
// source positions, and variable/function names. Entities are instead
// numbered by first occurrence in the hashed stream, so two
// alpha-equivalent loops at different places in a program hash equal.

// FPHash is a streaming FNV-1a 64-bit hasher. The zero value is not
// ready; use NewFPHash.
type FPHash struct {
	h uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewFPHash returns a hasher seeded with the FNV-1a offset basis.
func NewFPHash() *FPHash { return &FPHash{h: fnvOffset64} }

// Sum returns the current hash value.
func (h *FPHash) Sum() uint64 { return h.h }

// Byte folds one byte into the hash.
func (h *FPHash) Byte(b byte) {
	h.h = (h.h ^ uint64(b)) * fnvPrime64
}

// U64 folds a 64-bit value, little-endian.
func (h *FPHash) U64(v uint64) {
	for i := 0; i < 8; i++ {
		h.Byte(byte(v >> (8 * i)))
	}
}

// I64 folds a signed 64-bit value.
func (h *FPHash) I64(v int64) { h.U64(uint64(v)) }

// Int folds an int.
func (h *FPHash) Int(v int) { h.U64(uint64(int64(v))) }

// F64 folds a float64 by its exact IEEE bits.
func (h *FPHash) F64(v float64) { h.U64(math.Float64bits(v)) }

// Bool folds a boolean.
func (h *FPHash) Bool(v bool) {
	if v {
		h.Byte(1)
	} else {
		h.Byte(0)
	}
}

// Str folds a length-prefixed string.
func (h *FPHash) Str(s string) {
	h.Int(len(s))
	for i := 0; i < len(s); i++ {
		h.Byte(s[i])
	}
}

// FPNorm assigns dense first-occurrence slot numbers to the pointer
// identities a statement stream references, making the serialization
// invariant to names and allocation order. One FPNorm spans one
// fingerprint: slots are only comparable within it.
type FPNorm struct {
	vars   map[*Var]int
	funcs  map[*Func]int
	blocks map[*Block]int
}

// NewFPNorm returns an empty normalizer.
func NewFPNorm() *FPNorm {
	return &FPNorm{
		vars:   make(map[*Var]int),
		funcs:  make(map[*Func]int),
		blocks: make(map[*Block]int),
	}
}

// VarSlot returns v's slot, assigning the next one on first sight.
func (n *FPNorm) VarSlot(v *Var) int {
	if s, ok := n.vars[v]; ok {
		return s
	}
	s := len(n.vars)
	n.vars[v] = s
	return s
}

// FuncSlot returns f's slot, assigning the next one on first sight.
func (n *FPNorm) FuncSlot(f *Func) int {
	if s, ok := n.funcs[f]; ok {
		return s
	}
	s := len(n.funcs)
	n.funcs[f] = s
	return s
}

// RegisterBlock assigns b the next block slot (or returns the existing
// one). Fingerprints register the loop's blocks up front, in body order,
// so block references hash as body positions.
func (n *FPNorm) RegisterBlock(b *Block) int {
	if s, ok := n.blocks[b]; ok {
		return s
	}
	s := len(n.blocks)
	n.blocks[b] = s
	return s
}

// BlockSlot returns b's slot, or -1 when b was never registered (a block
// outside the fingerprinted region).
func (n *FPNorm) BlockSlot(b *Block) int {
	if s, ok := n.blocks[b]; ok {
		return s
	}
	return -1
}

// hashVar folds a variable reference: its slot, its base variable's
// slot (the motion rules group definitions by Base), its SSA version and
// kind — but not its name or raw ID.
func (n *FPNorm) hashVar(h *FPHash, v *Var) {
	if v == nil {
		h.Int(-1)
		return
	}
	h.Int(n.VarSlot(v))
	h.Int(n.VarSlot(v.Base))
	h.Int(v.Ver)
	h.Byte(byte(v.Kind))
	h.Bool(v.IsTemp)
}

// hashGlobal folds a global reference by shape, not name. The caller
// supplies idx, a stable index for the global (incr uses declaration
// order), since aliasing is by identity.
func (n *FPNorm) hashGlobal(h *FPHash, g *Global, idx int) {
	if g == nil {
		h.Int(-1)
		return
	}
	h.Int(idx)
	h.Byte(byte(g.Elem))
	h.Int(len(g.Dims))
	for _, d := range g.Dims {
		h.Int(d)
	}
	h.I64(g.InitInt)
	h.F64(g.InitF)
}

// HashOp streams a normalized rendering of an op tree into h. globalIdx
// maps globals to stable indices (see hashGlobal).
func (n *FPNorm) HashOp(h *FPHash, o *Op, globalIdx map[*Global]int) {
	if o == nil {
		h.Int(-1)
		return
	}
	h.Byte(byte(o.Kind))
	h.Byte(byte(o.Type))
	switch o.Kind {
	case OpConstInt:
		h.I64(o.ConstI)
	case OpConstFloat:
		h.F64(o.ConstF)
	case OpConstStr:
		h.Str(o.Str)
	case OpUseVar:
		n.hashVar(h, o.Var)
	case OpLoadG, OpLoadA:
		n.hashGlobal(h, o.G, globalIdx[o.G])
	case OpBin:
		h.Byte(byte(o.Bin))
	case OpUn:
		h.Byte(byte(o.Un))
	case OpCall:
		h.Bool(o.Builtin)
		if o.Builtin {
			// Builtin names are semantic (print vs sqrt); user function
			// names are not — those hash by callee slot.
			h.Str(o.Str)
		} else {
			h.Int(n.FuncSlot(o.Func))
		}
	}
	h.Int(len(o.Args))
	for _, a := range o.Args {
		n.HashOp(h, a, globalIdx)
	}
}

// HashStmt streams a normalized rendering of s into h: kind, operands
// and expression trees, but no raw IDs and no source position.
func (n *FPNorm) HashStmt(h *FPHash, s *Stmt, globalIdx map[*Global]int) {
	h.Byte(byte(s.Kind))
	n.hashVar(h, s.Dst)
	n.hashGlobal(h, s.G, globalIdx[s.G])
	h.Int(len(s.Index))
	for _, ix := range s.Index {
		n.HashOp(h, ix, globalIdx)
	}
	n.HashOp(h, s.RHS, globalIdx)
	h.Int(len(s.PhiArgs))
	for _, a := range s.PhiArgs {
		n.hashVar(h, a)
	}
	if s.Kind == StmtFork || s.Kind == StmtKill {
		h.Int(s.LoopID)
		h.Int(n.BlockSlot(s.Target))
	}
}
