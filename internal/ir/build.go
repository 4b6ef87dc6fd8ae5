package ir

import (
	"fmt"

	"sptc/internal/ast"
	"sptc/internal/sem"
	"sptc/internal/token"
)

// Build lowers a type-checked SPL program into IR.
func Build(info *sem.Info) (*Program, error) {
	p := NewProgram()
	b := &builder{prog: p, info: info, vars: make(map[*sem.Symbol]*Var), globals: make(map[*sem.Symbol]*Global)}

	for i, d := range info.Program.Globals {
		sym := info.Decls[d]
		g := &Global{Name: d.Name, Elem: valKind(elemKind(d.Type))}
		if d.Type.Kind == ast.TypeArray {
			g.Dims = append(g.Dims, d.Type.Dims...)
		}
		if d.Init != nil {
			iv, fv := constEval(d.Init)
			g.InitInt, g.InitF = iv, fv
		}
		p.AddGlobal(g)
		b.globals[sym] = g
		_ = i
	}
	p.Layout()

	// Create function shells first so calls can resolve.
	shells := make(map[*ast.FuncDecl]*Func)
	for _, fd := range info.Program.Funcs {
		f := p.NewFunc(fd.Name, valKind(fd.Result.Kind))
		shells[fd] = f
	}
	for _, fd := range info.Program.Funcs {
		if err := b.buildFunc(shells[fd], fd); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func elemKind(t ast.Type) ast.TypeKind {
	if t.Kind == ast.TypeArray {
		return t.Elem
	}
	return t.Kind
}

func valKind(k ast.TypeKind) ValKind {
	switch k {
	case ast.TypeInt:
		return ValInt
	case ast.TypeFloat:
		return ValFloat
	}
	return ValVoid
}

// constEval evaluates a constant initializer expression.
func constEval(e ast.Expr) (int64, float64) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, float64(e.Value)
	case *ast.FloatLit:
		return int64(e.Value), e.Value
	case *ast.UnaryExpr:
		i, f := constEval(e.X)
		switch e.Op {
		case token.MINUS:
			return -i, -f
		case token.TILDE:
			return ^i, float64(^i)
		case token.NOT:
			if i == 0 {
				return 1, 1
			}
			return 0, 0
		}
	case *ast.CastExpr:
		i, f := constEval(e.X)
		if e.To == ast.TypeInt {
			if _, isF := e.X.(*ast.FloatLit); isF {
				return int64(f), float64(int64(f))
			}
			return i, float64(i)
		}
		return i, f
	case *ast.BinaryExpr:
		xi, xf := constEval(e.X)
		yi, yf := constEval(e.Y)
		isFloat := e.ExprType().Kind == ast.TypeFloat
		switch e.Op {
		case token.PLUS:
			return xi + yi, xf + yf
		case token.MINUS:
			return xi - yi, xf - yf
		case token.STAR:
			return xi * yi, xf * yf
		case token.SLASH:
			if isFloat {
				if yf == 0 {
					return 0, 0
				}
				return int64(xf / yf), xf / yf
			}
			if yi == 0 {
				return 0, 0
			}
			return xi / yi, float64(xi / yi)
		case token.PERCENT:
			if yi == 0 {
				return 0, 0
			}
			return xi % yi, float64(xi % yi)
		case token.SHL:
			return xi << uint(yi&63), 0
		case token.SHR:
			return xi >> uint(yi&63), 0
		case token.AMP:
			return xi & yi, 0
		case token.PIPE:
			return xi | yi, 0
		case token.CARET:
			return xi ^ yi, 0
		}
	}
	return 0, 0
}

type builder struct {
	prog    *Program
	info    *sem.Info
	vars    map[*sem.Symbol]*Var
	globals map[*sem.Symbol]*Global

	f   *Func
	cur *Block

	// loop context for break/continue
	breakTo    []*Block
	continueTo []*Block

	// err holds the first lowering failure. Expression building keeps
	// unwinding with placeholder ops instead of panicking; buildFunc
	// reports the recorded error once the walk finishes.
	err error
}

// fail records the first lowering failure and returns a zero placeholder
// so the expression walk can continue without a valid result.
func (b *builder) fail(format string, args ...any) *Op {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return b.zero(ValInt)
}

func (b *builder) buildFunc(f *Func, fd *ast.FuncDecl) error {
	b.f = f
	f.Entry = f.NewBlock()
	b.cur = f.Entry

	for i, psym := range b.info.ParamSyms[fd] {
		v := f.NewVar(fd.Params[i].Name, valKind(psym.Type.Kind))
		f.Params = append(f.Params, v)
		b.vars[psym] = v
	}

	b.buildBlock(fd.Body)
	if b.err != nil {
		return fmt.Errorf("%s: %w", fd.Name, b.err)
	}

	// Implicit return at end of function.
	if b.cur != nil && b.cur.Terminator() == nil {
		ret := f.NewStmt(StmtRet)
		if f.Result != ValVoid {
			z := f.NewOp(OpConstInt, f.Result)
			if f.Result == ValFloat {
				z.Kind = OpConstFloat
			}
			ret.RHS = z
		}
		b.cur.Stmts = append(b.cur.Stmts, ret)
	}

	PruneUnreachable(f)
	ReorderRPO(f)
	return nil
}

func (b *builder) emit(s *Stmt) {
	if b.cur == nil {
		// Unreachable code after break/continue/return: drop it.
		return
	}
	b.cur.Stmts = append(b.cur.Stmts, s)
}

// terminate ends the current block with s and moves to next (may be nil).
func (b *builder) terminate(s *Stmt, next *Block) {
	if b.cur == nil {
		return
	}
	b.cur.Stmts = append(b.cur.Stmts, s)
	b.cur = next
}

// jump emits a goto from the current block to dst.
func (b *builder) jump(dst *Block) {
	if b.cur == nil {
		return
	}
	g := b.f.NewStmt(StmtGoto)
	b.cur.Stmts = append(b.cur.Stmts, g)
	AddEdge(b.cur, dst)
	b.cur = nil
}

// branch emits a conditional branch: cond ? then : els.
func (b *builder) branch(cond *Op, then, els *Block) {
	if b.cur == nil {
		return
	}
	s := b.f.NewStmt(StmtIf)
	s.RHS = cond
	b.cur.Stmts = append(b.cur.Stmts, s)
	AddEdge(b.cur, then)
	AddEdge(b.cur, els)
	b.cur = nil
}

func (b *builder) buildBlock(blk *ast.BlockStmt) {
	for _, s := range blk.Stmts {
		b.buildStmt(s)
	}
}

func (b *builder) buildStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.buildBlock(s)
	case *ast.DeclStmt:
		b.buildDecl(s.Decl)
	case *ast.AssignStmt:
		b.buildAssign(s)
	case *ast.ExprStmt:
		op := b.buildExpr(s.X)
		st := b.f.NewStmt(StmtCall)
		st.Pos = s.Pos()
		st.RHS = op
		b.emit(st)
	case *ast.IfStmt:
		b.buildIf(s)
	case *ast.WhileStmt:
		b.buildWhile(s)
	case *ast.DoWhileStmt:
		b.buildDoWhile(s)
	case *ast.ForStmt:
		b.buildFor(s)
	case *ast.BreakStmt:
		if n := len(b.breakTo); n > 0 {
			b.jump(b.breakTo[n-1])
		}
	case *ast.ContinueStmt:
		if n := len(b.continueTo); n > 0 {
			b.jump(b.continueTo[n-1])
		}
	case *ast.ReturnStmt:
		st := b.f.NewStmt(StmtRet)
		st.Pos = s.Pos()
		if s.X != nil {
			st.RHS = b.convert(b.buildExpr(s.X), b.f.Result)
		}
		b.terminate(st, nil)
	}
}

func (b *builder) buildDecl(d *ast.VarDecl) {
	sym := b.info.Decls[d]
	v := b.f.NewVar(d.Name, valKind(d.Type.Kind))
	b.vars[sym] = v
	st := b.f.NewStmt(StmtAssign)
	st.Pos = d.Pos()
	st.Dst = v
	if d.Init != nil {
		st.RHS = b.convert(b.buildExpr(d.Init), v.Kind)
	} else {
		st.RHS = b.zero(v.Kind)
	}
	b.emit(st)
}

func (b *builder) zero(k ValKind) *Op {
	if k == ValFloat {
		return b.f.NewOp(OpConstFloat, ValFloat)
	}
	return b.f.NewOp(OpConstInt, ValInt)
}

func (b *builder) buildAssign(s *ast.AssignStmt) {
	// Compound assignment desugars to LHS = LHS op RHS; the LHS address
	// expressions are evaluated once per occurrence, which is fine for SPL
	// (no side effects in index expressions beyond calls, which we forbid
	// duplicating by lowering the index to ops twice deliberately: SPL
	// index expressions are pure).
	rhs := b.buildExpr(s.RHS)
	if s.Op != token.ASSIGN {
		lhsVal := b.buildExpr(s.LHS)
		var bo BinOp
		switch s.Op {
		case token.PLUSEQ:
			bo = BinAdd
		case token.MINUSEQ:
			bo = BinSub
		case token.STAREQ:
			bo = BinMul
		case token.SLASHEQ:
			bo = BinDiv
		case token.PERCENTEQ:
			bo = BinRem
		}
		t := lhsVal.Type
		if rhs.Type == ValFloat {
			t = ValFloat
		}
		op := b.f.NewOp(OpBin, t)
		op.Bin = bo
		op.Args = []*Op{b.convert(lhsVal, t), b.convert(rhs, t)}
		rhs = op
	}

	switch lhs := s.LHS.(type) {
	case *ast.Ident:
		sym := b.info.Uses[lhs]
		if sym == nil {
			return
		}
		if g, ok := b.globals[sym]; ok {
			st := b.f.NewStmt(StmtStoreG)
			st.Pos = s.Pos()
			st.G = g
			st.RHS = b.convert(rhs, g.Elem)
			b.emit(st)
			return
		}
		v := b.vars[sym]
		st := b.f.NewStmt(StmtAssign)
		st.Pos = s.Pos()
		st.Dst = v
		st.RHS = b.convert(rhs, v.Kind)
		b.emit(st)
	case *ast.IndexExpr:
		sym := b.info.Uses[lhs.Array]
		g := b.globals[sym]
		if g == nil {
			return
		}
		st := b.f.NewStmt(StmtStoreA)
		st.Pos = s.Pos()
		st.G = g
		for _, ix := range lhs.Index {
			st.Index = append(st.Index, b.convert(b.buildExpr(ix), ValInt))
		}
		st.RHS = b.convert(rhs, g.Elem)
		b.emit(st)
	}
}

func (b *builder) buildIf(s *ast.IfStmt) {
	cond := b.buildExpr(s.Cond)
	thenB := b.f.NewBlock()
	join := b.f.NewBlock()
	elseB := join
	if s.Else != nil {
		elseB = b.f.NewBlock()
	}
	b.branch(cond, thenB, elseB)

	b.cur = thenB
	b.buildBlock(s.Then)
	b.jump(join)

	if s.Else != nil {
		b.cur = elseB
		b.buildStmt(s.Else)
		b.jump(join)
	}
	b.cur = join
}

func (b *builder) buildWhile(s *ast.WhileStmt) {
	header := b.f.NewBlock()
	body := b.f.NewBlock()
	exit := b.f.NewBlock()
	b.jump(header)

	b.cur = header
	cond := b.buildExpr(s.Cond)
	b.branch(cond, body, exit)

	b.breakTo = append(b.breakTo, exit)
	b.continueTo = append(b.continueTo, header)
	b.cur = body
	b.buildBlock(s.Body)
	b.jump(header)
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]

	b.cur = exit
}

func (b *builder) buildDoWhile(s *ast.DoWhileStmt) {
	body := b.f.NewBlock()
	latch := b.f.NewBlock()
	exit := b.f.NewBlock()
	b.jump(body)

	b.breakTo = append(b.breakTo, exit)
	b.continueTo = append(b.continueTo, latch)
	b.cur = body
	b.buildBlock(s.Body)
	b.jump(latch)
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]

	b.cur = latch
	cond := b.buildExpr(s.Cond)
	b.branch(cond, body, exit)
	b.cur = exit
}

func (b *builder) buildFor(s *ast.ForStmt) {
	if s.Init != nil {
		b.buildStmt(s.Init)
	}
	header := b.f.NewBlock()
	body := b.f.NewBlock()
	post := b.f.NewBlock()
	exit := b.f.NewBlock()
	b.jump(header)

	b.cur = header
	if s.Cond != nil {
		cond := b.buildExpr(s.Cond)
		b.branch(cond, body, exit)
	} else {
		b.jump(body)
	}

	b.breakTo = append(b.breakTo, exit)
	b.continueTo = append(b.continueTo, post)
	b.cur = body
	b.buildBlock(s.Body)
	b.jump(post)
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]

	b.cur = post
	if s.Post != nil {
		b.buildStmt(s.Post)
	}
	b.jump(header)
	b.cur = exit
}

// convert inserts a cast if op's type differs from want.
func (b *builder) convert(op *Op, want ValKind) *Op {
	if op == nil || want == ValVoid || op.Type == want {
		return op
	}
	c := b.f.NewOp(OpCast, want)
	c.Args = []*Op{op}
	return c
}

func (b *builder) buildExpr(e ast.Expr) *Op {
	switch e := e.(type) {
	case *ast.IntLit:
		o := b.f.NewOp(OpConstInt, ValInt)
		o.ConstI = e.Value
		return o
	case *ast.FloatLit:
		o := b.f.NewOp(OpConstFloat, ValFloat)
		o.ConstF = e.Value
		return o
	case *ast.StrLit:
		o := b.f.NewOp(OpConstStr, ValInt)
		o.Str = e.Value
		return o
	case *ast.Ident:
		sym := b.info.Uses[e]
		if sym == nil {
			return b.zero(ValInt)
		}
		if g, ok := b.globals[sym]; ok {
			o := b.f.NewOp(OpLoadG, g.Elem)
			o.G = g
			return o
		}
		v := b.vars[sym]
		o := b.f.NewOp(OpUseVar, v.Kind)
		o.Var = v
		return o
	case *ast.IndexExpr:
		sym := b.info.Uses[e.Array]
		g := b.globals[sym]
		if g == nil {
			return b.zero(ValInt)
		}
		o := b.f.NewOp(OpLoadA, g.Elem)
		o.G = g
		for _, ix := range e.Index {
			o.Args = append(o.Args, b.convert(b.buildExpr(ix), ValInt))
		}
		return o
	case *ast.BinaryExpr:
		return b.buildBinary(e)
	case *ast.UnaryExpr:
		x := b.buildExpr(e.X)
		o := b.f.NewOp(OpUn, x.Type)
		switch e.Op {
		case token.MINUS:
			o.Un = UnNeg
		case token.NOT:
			o.Un = UnNot
			o.Type = ValInt
		case token.TILDE:
			o.Un = UnBitNot
			o.Type = ValInt
		}
		o.Args = []*Op{x}
		return o
	case *ast.CastExpr:
		x := b.buildExpr(e.X)
		want := valKind(e.To)
		if x.Type == want {
			return x
		}
		o := b.f.NewOp(OpCast, want)
		o.Args = []*Op{x}
		return o
	case *ast.CallExpr:
		o := b.f.NewOp(OpCall, ValVoid)
		o.Str = e.Name
		if bi, ok := sem.Builtins[e.Name]; ok {
			o.Builtin = true
			o.Type = valKind(bi.Result)
			for i, a := range e.Args {
				arg := b.buildExpr(a)
				if !bi.Variadic && i < len(bi.Params) {
					arg = b.convert(arg, valKind(bi.Params[i]))
				}
				o.Args = append(o.Args, arg)
			}
			return o
		}
		fd := b.info.Calls[e]
		if fd != nil {
			o.Func = b.prog.FuncByName(fd.Name)
			o.Type = valKind(fd.Result.Kind)
			for i, a := range e.Args {
				arg := b.buildExpr(a)
				if i < len(fd.Params) {
					arg = b.convert(arg, valKind(fd.Params[i].Type.Kind))
				}
				o.Args = append(o.Args, arg)
			}
		}
		return o
	}
	return b.fail("ir: unhandled expression %T", e)
}

// buildBinary lowers a binary expression, inserting conversions so both
// operands have the result's arithmetic type (or the comparison type).
func (b *builder) buildBinary(e *ast.BinaryExpr) *Op {
	x := b.buildExpr(e.X)
	y := b.buildExpr(e.Y)

	operandType := ValInt
	if x.Type == ValFloat || y.Type == ValFloat {
		operandType = ValFloat
	}

	var bo BinOp
	resType := operandType
	switch e.Op {
	case token.PLUS:
		bo = BinAdd
	case token.MINUS:
		bo = BinSub
	case token.STAR:
		bo = BinMul
	case token.SLASH:
		bo = BinDiv
	case token.PERCENT:
		bo, operandType, resType = BinRem, ValInt, ValInt
	case token.AMP:
		bo, operandType, resType = BinAnd, ValInt, ValInt
	case token.PIPE:
		bo, operandType, resType = BinOr, ValInt, ValInt
	case token.CARET:
		bo, operandType, resType = BinXor, ValInt, ValInt
	case token.SHL:
		bo, operandType, resType = BinShl, ValInt, ValInt
	case token.SHR:
		bo, operandType, resType = BinShr, ValInt, ValInt
	case token.EQ:
		bo, resType = BinEq, ValInt
	case token.NEQ:
		bo, resType = BinNeq, ValInt
	case token.LT:
		bo, resType = BinLt, ValInt
	case token.LEQ:
		bo, resType = BinLeq, ValInt
	case token.GT:
		bo, resType = BinGt, ValInt
	case token.GEQ:
		bo, resType = BinGeq, ValInt
	case token.LAND:
		bo, operandType, resType = BinLAnd, ValInt, ValInt
	case token.LOR:
		bo, operandType, resType = BinLOr, ValInt, ValInt
	default:
		return b.fail("ir: unhandled binary op %s", e.Op)
	}

	o := b.f.NewOp(OpBin, resType)
	o.Bin = bo
	o.Args = []*Op{b.convert(x, operandType), b.convert(y, operandType)}
	return o
}

// PruneUnreachable removes blocks not reachable from entry and unlinks
// them from the predecessor lists of surviving blocks.
func PruneUnreachable(f *Func) {
	reached := make(map[*Block]bool)
	var visit func(*Block)
	visit = func(b *Block) {
		if b == nil || reached[b] {
			return
		}
		reached[b] = true
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(f.Entry)

	var kept []*Block
	for _, b := range f.Blocks {
		if reached[b] {
			kept = append(kept, b)
			// Drop edges from unreachable preds.
			for i := len(b.Preds) - 1; i >= 0; i-- {
				if !reached[b.Preds[i]] {
					RemoveEdge(b.Preds[i], b)
				}
			}
		}
	}
	f.Blocks = kept
}

// ReorderRPO renumbers and reorders f.Blocks in reverse postorder from the
// entry, which most analyses assume.
func ReorderRPO(f *Func) {
	seen := make(map[*Block]bool)
	var order []*Block
	var dfs func(*Block)
	dfs = func(b *Block) {
		if b == nil || seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			dfs(s)
		}
		order = append(order, b)
	}
	dfs(f.Entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for i, b := range order {
		b.ID = i
	}
	f.Blocks = order
	f.nextBlkID = len(order)
}
