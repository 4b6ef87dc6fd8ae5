package ir

// FuncSnapshot is an in-place memento of a function's mutable state.
// Restore writes the saved field values back into the ORIGINAL Block,
// Stmt, Op, and Var objects rather than swapping in clones, so pointers
// held outside the function (ssa.Loop block lists, OpCall.Func edges
// from other functions, statement sets in analysis results) remain
// valid after a rollback. Objects created after Snapshot simply become
// unreachable when the saved slices are restored.
//
// It covers everything the transform passes mutate: the block list and
// entry, per-block statement/edge/profile state, per-statement operands,
// operation trees, variable versioning, and the ID counters that keep
// dense tables (NumVars/NumStmts/NumOps) consistent.
type FuncSnapshot struct {
	f *Func

	entry      *Block
	blocks     []*Block
	params     []*Var
	nextStmtID int
	nextOpID   int
	nextVarID  int
	nextBlkID  int

	blockStates []blockState
	stmtStates  []stmtState
	opStates    []opState
	varStates   []varState
}

type blockState struct {
	b        *Block
	id       int
	stmts    []*Stmt
	succs    []*Block
	preds    []*Block
	freq     float64
	succProb []float64
}

type stmtState struct {
	s       *Stmt
	kind    StmtKind
	dst     *Var
	rhs     *Op
	g       *Global
	index   []*Op
	phiArgs []*Var
	loopID  int
	target  *Block
}

type opState struct {
	o       *Op
	kind    OpKind
	typ     ValKind
	constI  int64
	constF  float64
	str     string
	v       *Var
	g       *Global
	bin     BinOp
	un      UnOp
	fn      *Func
	builtin bool
	args    []*Op
}

type varState struct {
	v    *Var
	ver  int
	base *Var
}

// Snapshot captures f's current state for a later Restore.
func Snapshot(f *Func) *FuncSnapshot {
	sn := &FuncSnapshot{
		f:          f,
		entry:      f.Entry,
		blocks:     append([]*Block(nil), f.Blocks...),
		params:     append([]*Var(nil), f.Params...),
		nextStmtID: f.nextStmtID,
		nextOpID:   f.nextOpID,
		nextVarID:  f.nextVarID,
		nextBlkID:  f.nextBlkID,
	}

	seenOp := make(map[*Op]bool)
	seenVar := make(map[*Var]bool)
	saveVar := func(v *Var) {
		if v == nil || seenVar[v] {
			return
		}
		seenVar[v] = true
		sn.varStates = append(sn.varStates, varState{v: v, ver: v.Ver, base: v.Base})
	}
	var saveOp func(o *Op)
	saveOp = func(o *Op) {
		if o == nil || seenOp[o] {
			return
		}
		seenOp[o] = true
		sn.opStates = append(sn.opStates, opState{
			o:       o,
			kind:    o.Kind,
			typ:     o.Type,
			constI:  o.ConstI,
			constF:  o.ConstF,
			str:     o.Str,
			v:       o.Var,
			g:       o.G,
			bin:     o.Bin,
			un:      o.Un,
			fn:      o.Func,
			builtin: o.Builtin,
			args:    append([]*Op(nil), o.Args...),
		})
		saveVar(o.Var)
		for _, a := range o.Args {
			saveOp(a)
		}
	}

	for _, v := range f.Params {
		saveVar(v)
	}
	for _, b := range f.Blocks {
		sn.blockStates = append(sn.blockStates, blockState{
			b:        b,
			id:       b.ID,
			stmts:    append([]*Stmt(nil), b.Stmts...),
			succs:    append([]*Block(nil), b.Succs...),
			preds:    append([]*Block(nil), b.Preds...),
			freq:     b.Freq,
			succProb: append([]float64(nil), b.SuccProb...),
		})
		for _, s := range b.Stmts {
			sn.stmtStates = append(sn.stmtStates, stmtState{
				s:       s,
				kind:    s.Kind,
				dst:     s.Dst,
				rhs:     s.RHS,
				g:       s.G,
				index:   append([]*Op(nil), s.Index...),
				phiArgs: append([]*Var(nil), s.PhiArgs...),
				loopID:  s.LoopID,
				target:  s.Target,
			})
			saveVar(s.Dst)
			for _, v := range s.PhiArgs {
				saveVar(v)
			}
			saveOp(s.RHS)
			for _, ix := range s.Index {
				saveOp(ix)
			}
		}
	}
	return sn
}

// Restore writes the snapshot back into the original objects, undoing
// every mutation made to the function since Snapshot.
func (sn *FuncSnapshot) Restore() {
	f := sn.f
	f.Entry = sn.entry
	f.Blocks = append(f.Blocks[:0:0], sn.blocks...)
	f.Params = append(f.Params[:0:0], sn.params...)
	f.nextStmtID = sn.nextStmtID
	f.nextOpID = sn.nextOpID
	f.nextVarID = sn.nextVarID
	f.nextBlkID = sn.nextBlkID

	for _, bs := range sn.blockStates {
		b := bs.b
		b.ID = bs.id
		b.Stmts = append(b.Stmts[:0:0], bs.stmts...)
		b.Succs = append(b.Succs[:0:0], bs.succs...)
		b.Preds = append(b.Preds[:0:0], bs.preds...)
		b.Freq = bs.freq
		b.SuccProb = append(b.SuccProb[:0:0], bs.succProb...)
	}
	for _, ss := range sn.stmtStates {
		s := ss.s
		s.Kind = ss.kind
		s.Dst = ss.dst
		s.RHS = ss.rhs
		s.G = ss.g
		s.Index = append(s.Index[:0:0], ss.index...)
		s.PhiArgs = append(s.PhiArgs[:0:0], ss.phiArgs...)
		s.LoopID = ss.loopID
		s.Target = ss.target
	}
	for _, os := range sn.opStates {
		o := os.o
		o.Kind = os.kind
		o.Type = os.typ
		o.ConstI = os.constI
		o.ConstF = os.constF
		o.Str = os.str
		o.Var = os.v
		o.G = os.g
		o.Bin = os.bin
		o.Un = os.un
		o.Func = os.fn
		o.Builtin = os.builtin
		o.Args = append(o.Args[:0:0], os.args...)
	}
	for _, vs := range sn.varStates {
		vs.v.Ver = vs.ver
		vs.v.Base = vs.base
	}
}
