// Package ir defines the intermediate representation used by the SPT
// framework: functions of basic blocks holding statements whose right-hand
// sides are expression trees of operations.
//
// The two-level Stmt/Op structure mirrors ORC's HSSA representation that
// the paper builds on: a Stmt corresponds to a Stmtrep (the unit of the
// data-dependence graph and of pre-fork/post-fork partitioning) and an Op
// corresponds to a Coderep (the unit of the misspeculation cost graph).
//
// Scalars (locals and parameters) are SSA-renamed register values; global
// scalars and arrays live in a flat simulated memory and are accessed with
// explicit load/store operations, so memory dependences are visible to the
// dependence analyzer and profiler.
package ir

import (
	"fmt"

	"sptc/internal/source"
)

// ValKind is the runtime kind of a value.
type ValKind uint8

// Value kinds.
const (
	ValVoid ValKind = iota
	ValInt
	ValFloat
)

func (k ValKind) String() string {
	switch k {
	case ValVoid:
		return "void"
	case ValInt:
		return "int"
	case ValFloat:
		return "float"
	}
	return "?"
}

// Var is an SSA scalar variable (a local, parameter, or compiler temp).
// Before SSA construction all occurrences share Ver 0; SSA renaming
// introduces fresh versions. Base points at the version-0 variable.
type Var struct {
	ID     int
	Name   string
	Kind   ValKind
	Ver    int
	Base   *Var // canonical version-0 variable; self for version 0
	IsTemp bool // compiler-introduced temporary
}

func (v *Var) String() string {
	if v == nil {
		return "<nilvar>"
	}
	if v.Ver == 0 {
		return v.Name
	}
	return fmt.Sprintf("%s_%d", v.Name, v.Ver)
}

// Global is a global scalar or array living in simulated memory.
type Global struct {
	Name    string
	Elem    ValKind
	Dims    []int // nil for scalar; len 1 or 2 for arrays
	Addr    int   // base address (in words) assigned by Program.Layout
	Size    int   // number of words
	InitInt int64
	InitF   float64
}

// IsArray reports whether g is an array.
func (g *Global) IsArray() bool { return len(g.Dims) > 0 }

// OpKind enumerates operation (Coderep) kinds.
type OpKind uint8

// Operation kinds.
const (
	OpInvalid OpKind = iota
	OpConstInt
	OpConstFloat
	OpConstStr // print arguments only
	OpUseVar   // read an SSA scalar
	OpLoadG    // load a global scalar
	OpLoadA    // load an array element; Args are the indices
	OpBin      // Args[0] BinOp Args[1]
	OpUn       // UnOp Args[0]
	OpCall     // call user function or builtin; Args are arguments
	OpCast     // convert Args[0] to Type
)

// BinOp enumerates binary operators at the IR level.
type BinOp uint8

// Binary operators.
const (
	BinAdd BinOp = iota
	BinSub
	BinMul
	BinDiv
	BinRem
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr
	BinEq
	BinNeq
	BinLt
	BinLeq
	BinGt
	BinGeq
	BinLAnd // eager logical and (SPL has no short circuit)
	BinLOr  // eager logical or
)

var binNames = [...]string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
	"==", "!=", "<", "<=", ">", ">=", "&&", "||"}

func (b BinOp) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return "?"
}

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	UnNeg UnOp = iota
	UnNot
	UnBitNot
)

func (u UnOp) String() string {
	switch u {
	case UnNeg:
		return "-"
	case UnNot:
		return "!"
	case UnBitNot:
		return "~"
	}
	return "?"
}

// Op is one operation node in an expression tree (a Coderep).
//
// The one-byte fields sit together after ID, so an Op is 96 bytes: a
// compiled program retains one per operation of every function.
type Op struct {
	ID      int // unique within the function
	Kind    OpKind
	Type    ValKind
	Bin     BinOp
	Un      UnOp
	Builtin bool // OpCall of a builtin

	ConstI int64
	ConstF float64
	Str    string // OpConstStr text; OpCall function or builtin name
	Var    *Var   // OpUseVar
	G      *Global
	Func   *Func // resolved callee (nil for builtins)
	Args   []*Op
}

// Walk visits o and all operations beneath it, parents first.
func (o *Op) Walk(fn func(*Op)) {
	if o == nil {
		return
	}
	fn(o)
	for _, a := range o.Args {
		a.Walk(fn)
	}
}

// CountOps returns the number of operation nodes in the tree, the paper's
// measure of "amount of computation" (elementary operations).
func (o *Op) CountOps() int {
	n := 0
	o.Walk(func(*Op) { n++ })
	return n
}

// HasCall reports whether the tree contains any call.
func (o *Op) HasCall() bool {
	found := false
	o.Walk(func(x *Op) {
		if x.Kind == OpCall {
			found = true
		}
	})
	return found
}

// StmtKind enumerates statement (Stmtrep) kinds.
type StmtKind uint8

// Statement kinds.
const (
	StmtInvalid StmtKind = iota
	StmtAssign           // Dst = RHS
	StmtStoreG           // G = RHS
	StmtStoreA           // G[Index...] = RHS
	StmtCall             // RHS is an OpCall evaluated for effect
	StmtIf               // terminator: branch on RHS; Succs[0] then, Succs[1] else
	StmtGoto             // terminator: jump to Succs[0]
	StmtRet              // terminator: return RHS (may be nil)
	StmtPhi              // Dst = phi(PhiArgs...), aligned with block Preds
	StmtFork             // SPT fork: spawn speculative thread at Target
	StmtKill             // SPT kill: stop speculative threads of LoopID
)

func (k StmtKind) String() string {
	switch k {
	case StmtAssign:
		return "assign"
	case StmtStoreG:
		return "storeg"
	case StmtStoreA:
		return "storea"
	case StmtCall:
		return "call"
	case StmtIf:
		return "if"
	case StmtGoto:
		return "goto"
	case StmtRet:
		return "ret"
	case StmtPhi:
		return "phi"
	case StmtFork:
		return "fork"
	case StmtKill:
		return "kill"
	}
	return "invalid"
}

// Stmt is one statement (a Stmtrep).
type Stmt struct {
	ID   int // unique within the function
	Kind StmtKind
	Pos  source.Pos

	Dst     *Var // StmtAssign, StmtPhi
	RHS     *Op  // Assign/StoreG/StoreA value, Call op, If condition, Ret value
	G       *Global
	Index   []*Op  // StmtStoreA indices
	PhiArgs []*Var // StmtPhi, parallel to the owning block's Preds
	LoopID  int    // StmtFork, StmtKill
	Target  *Block // StmtFork: start block of the speculative thread
}

// IsTerminator reports whether s ends a basic block.
func (s *Stmt) IsTerminator() bool {
	switch s.Kind {
	case StmtIf, StmtGoto, StmtRet:
		return true
	}
	return false
}

// Ops calls fn on every operation tree rooted in s (RHS and indices).
func (s *Stmt) Ops(fn func(*Op)) {
	for _, ix := range s.Index {
		ix.Walk(fn)
	}
	if s.RHS != nil {
		s.RHS.Walk(fn)
	}
}

// CountOps returns the number of operation nodes in s plus one for the
// statement's own action (store, branch, assign), matching the paper's
// elementary-operation size metric.
func (s *Stmt) CountOps() int {
	n := 0
	s.Ops(func(*Op) { n++ })
	switch s.Kind {
	case StmtPhi:
		return 1
	case StmtFork, StmtKill:
		return 1
	}
	return n + 1
}

// Defs returns the SSA variable defined by s, or nil.
func (s *Stmt) Defs() *Var {
	switch s.Kind {
	case StmtAssign, StmtPhi:
		return s.Dst
	}
	return nil
}

// UsedVars calls fn for each scalar use in s (excluding phi arguments,
// which are reported via UsedPhiVars).
func (s *Stmt) UsedVars(fn func(*Var)) {
	s.Ops(func(o *Op) {
		if o.Kind == OpUseVar {
			fn(o.Var)
		}
	})
}

// Block is a basic block.
type Block struct {
	ID    int
	Stmts []*Stmt
	Succs []*Block
	Preds []*Block

	// Profiling annotations.
	Freq     float64   // execution count (profiled) or estimate
	SuccProb []float64 // probability of each outgoing edge, sums to 1
}

// Terminator returns the block's terminator statement, or nil.
func (b *Block) Terminator() *Stmt {
	if len(b.Stmts) == 0 {
		return nil
	}
	last := b.Stmts[len(b.Stmts)-1]
	if last.IsTerminator() {
		return last
	}
	return nil
}

// Phis returns the phi statements at the top of the block.
func (b *Block) Phis() []*Stmt {
	for i, s := range b.Stmts {
		if s.Kind != StmtPhi {
			return b.Stmts[:i:i]
		}
	}
	return b.Stmts
}

// predIndex returns the index of p in b.Preds, or -1.
func (b *Block) predIndex(p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// PredIndex returns the index of p in b.Preds, or -1 if p is not a
// predecessor.
func (b *Block) PredIndex(p *Block) int { return b.predIndex(p) }

// Func is one function in IR form.
type Func struct {
	Name    string
	Params  []*Var
	Result  ValKind
	Entry   *Block
	Blocks  []*Block
	Program *Program

	nextStmtID int
	nextOpID   int
	nextVarID  int
	nextBlkID  int
}

// NumVars returns the exclusive upper bound of Var.ID within f: every
// variable created for f (parameters, locals, temps, SSA versions) has
// 0 <= ID < NumVars(). Dense per-variable tables (the machine simulator's
// register files) are sized with it.
func (f *Func) NumVars() int { return f.nextVarID }

// NumStmts returns the exclusive upper bound of Stmt.ID within f. IDs are
// stable once assigned, so they index dense per-statement tables.
func (f *Func) NumStmts() int { return f.nextStmtID }

// NumOps returns the exclusive upper bound of Op.ID within f.
func (f *Func) NumOps() int { return f.nextOpID }

// NumBlocks returns the exclusive upper bound of Block.ID within f. IDs
// may have gaps once blocks are pruned, so it can exceed len(f.Blocks);
// dense per-block tables (the profiler's counters) are sized with it.
func (f *Func) NumBlocks() int { return f.nextBlkID }

// Program is a whole compiled program.
type Program struct {
	Funcs   []*Func
	Globals []*Global
	Main    *Func

	byName map[string]*Func
	gByNm  map[string]*Global
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{byName: make(map[string]*Func), gByNm: make(map[string]*Global)}
}

// AddFunc registers f with the program.
func (p *Program) AddFunc(f *Func) {
	f.Program = p
	p.Funcs = append(p.Funcs, f)
	p.byName[f.Name] = f
	if f.Name == "main" {
		p.Main = f
	}
}

// AddGlobal registers g and assigns its size (address assignment is done
// by Layout).
func (p *Program) AddGlobal(g *Global) {
	g.Size = 1
	for _, d := range g.Dims {
		g.Size *= d
	}
	p.Globals = append(p.Globals, g)
	p.gByNm[g.Name] = g
}

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Func { return p.byName[name] }

// GlobalByName returns the global with the given name, or nil.
func (p *Program) GlobalByName(name string) *Global { return p.gByNm[name] }

// Layout assigns flat memory addresses to all globals and returns the
// total memory size in words. Redundant writes are skipped, so once a
// program is laid out (and no globals were added since) Layout is a
// read-only pass and safe to call from concurrent simulations.
func (p *Program) Layout() int {
	addr := 0
	for _, g := range p.Globals {
		if g.Addr != addr {
			g.Addr = addr
		}
		addr += g.Size
	}
	return addr
}

// NewFunc creates an empty function attached to p.
func (p *Program) NewFunc(name string, result ValKind) *Func {
	f := &Func{Name: name, Result: result}
	p.AddFunc(f)
	return f
}

// NewBlock appends a fresh empty block to f.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextBlkID}
	f.nextBlkID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewVar creates a fresh version-0 variable.
func (f *Func) NewVar(name string, kind ValKind) *Var {
	v := &Var{ID: f.nextVarID, Name: name, Kind: kind}
	f.nextVarID++
	v.Base = v
	return v
}

// NewTemp creates a fresh compiler temporary.
func (f *Func) NewTemp(prefix string, kind ValKind) *Var {
	v := f.NewVar(fmt.Sprintf("%s%d", prefix, f.nextVarID), kind)
	v.IsTemp = true
	return v
}

// NewVersion creates a new SSA version of base.
func (f *Func) NewVersion(base *Var, ver int) *Var {
	v := &Var{ID: f.nextVarID, Name: base.Name, Kind: base.Kind, Ver: ver, Base: base, IsTemp: base.IsTemp}
	f.nextVarID++
	return v
}

// NewStmt creates a statement owned by f with a fresh ID.
func (f *Func) NewStmt(kind StmtKind) *Stmt {
	s := &Stmt{ID: f.nextStmtID, Kind: kind}
	f.nextStmtID++
	return s
}

// NewOp creates an operation owned by f with a fresh ID.
func (f *Func) NewOp(kind OpKind, typ ValKind) *Op {
	o := &Op{ID: f.nextOpID, Kind: kind, Type: typ}
	f.nextOpID++
	return o
}

// CloneOp deep-copies an operation tree, giving every node a fresh ID.
func (f *Func) CloneOp(o *Op) *Op {
	if o == nil {
		return nil
	}
	c := f.NewOp(o.Kind, o.Type)
	c.ConstI, c.ConstF, c.Str = o.ConstI, o.ConstF, o.Str
	c.Var, c.G = o.Var, o.G
	c.Bin, c.Un = o.Bin, o.Un
	c.Func, c.Builtin = o.Func, o.Builtin
	for _, a := range o.Args {
		c.Args = append(c.Args, f.CloneOp(a))
	}
	return c
}

// CloneStmt deep-copies a statement (fresh stmt and op IDs). CFG fields
// (Target) are copied as-is and must be remapped by the caller if needed.
func (f *Func) CloneStmt(s *Stmt) *Stmt {
	c := f.NewStmt(s.Kind)
	c.Pos = s.Pos
	c.Dst = s.Dst
	c.RHS = f.CloneOp(s.RHS)
	c.G = s.G
	for _, ix := range s.Index {
		c.Index = append(c.Index, f.CloneOp(ix))
	}
	c.PhiArgs = append([]*Var(nil), s.PhiArgs...)
	c.LoopID = s.LoopID
	c.Target = s.Target
	return c
}

// AddEdge links b -> s in both directions.
func AddEdge(b, s *Block) {
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// RemoveEdge unlinks b -> s (first occurrence) and fixes phi arguments in s.
func RemoveEdge(b, s *Block) {
	for i, x := range b.Succs {
		if x == s {
			b.Succs = append(b.Succs[:i], b.Succs[i+1:]...)
			break
		}
	}
	pi := s.predIndex(b)
	if pi < 0 {
		return
	}
	s.Preds = append(s.Preds[:pi], s.Preds[pi+1:]...)
	for _, phi := range s.Phis() {
		if pi < len(phi.PhiArgs) {
			phi.PhiArgs = append(phi.PhiArgs[:pi], phi.PhiArgs[pi+1:]...)
		}
	}
}

// RedirectEdge changes the edge b -> from into b -> to, preserving the
// successor slot (and hence branch semantics).
func RedirectEdge(b, from, to *Block) {
	for i, x := range b.Succs {
		if x == from {
			b.Succs[i] = to
			pi := from.predIndex(b)
			if pi >= 0 {
				from.Preds = append(from.Preds[:pi], from.Preds[pi+1:]...)
				for _, phi := range from.Phis() {
					if pi < len(phi.PhiArgs) {
						phi.PhiArgs = append(phi.PhiArgs[:pi], phi.PhiArgs[pi+1:]...)
					}
				}
			}
			to.Preds = append(to.Preds, b)
			return
		}
	}
}

// BodySize returns the total op count of the statements in blocks.
func BodySize(blocks []*Block) int {
	n := 0
	for _, b := range blocks {
		for _, s := range b.Stmts {
			n += s.CountOps()
		}
	}
	return n
}
