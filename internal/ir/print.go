package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// FormatOp renders an operation tree as an expression string.
func FormatOp(o *Op) string {
	var b strings.Builder
	writeOp(&b, o)
	return b.String()
}

func writeOp(b *strings.Builder, o *Op) {
	if o == nil {
		b.WriteString("<nil>")
		return
	}
	switch o.Kind {
	case OpConstInt:
		b.WriteString(strconv.FormatInt(o.ConstI, 10))
	case OpConstFloat:
		b.WriteString(strconv.FormatFloat(o.ConstF, 'g', -1, 64))
	case OpConstStr:
		b.WriteString(strconv.Quote(o.Str))
	case OpUseVar:
		b.WriteString(o.Var.String())
	case OpLoadG:
		b.WriteString(o.G.Name)
	case OpLoadA:
		b.WriteString(o.G.Name)
		for _, ix := range o.Args {
			b.WriteByte('[')
			writeOp(b, ix)
			b.WriteByte(']')
		}
	case OpBin:
		b.WriteByte('(')
		writeOp(b, o.Args[0])
		b.WriteByte(' ')
		b.WriteString(o.Bin.String())
		b.WriteByte(' ')
		writeOp(b, o.Args[1])
		b.WriteByte(')')
	case OpUn:
		b.WriteString(o.Un.String())
		writeOp(b, o.Args[0])
	case OpCast:
		b.WriteString(o.Type.String())
		b.WriteByte('(')
		writeOp(b, o.Args[0])
		b.WriteByte(')')
	case OpCall:
		b.WriteString(o.Str)
		b.WriteByte('(')
		for i, a := range o.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeOp(b, a)
		}
		b.WriteByte(')')
	default:
		b.WriteString("<invalid>")
	}
}

// FormatStmt renders a statement on one line.
func FormatStmt(s *Stmt) string {
	switch s.Kind {
	case StmtAssign:
		return fmt.Sprintf("%s = %s", s.Dst, FormatOp(s.RHS))
	case StmtStoreG:
		return fmt.Sprintf("%s = %s", s.G.Name, FormatOp(s.RHS))
	case StmtStoreA:
		var b strings.Builder
		b.WriteString(s.G.Name)
		for _, ix := range s.Index {
			b.WriteByte('[')
			writeOp(&b, ix)
			b.WriteByte(']')
		}
		b.WriteString(" = ")
		writeOp(&b, s.RHS)
		return b.String()
	case StmtCall:
		return FormatOp(s.RHS)
	case StmtIf:
		return fmt.Sprintf("if %s", FormatOp(s.RHS))
	case StmtGoto:
		return "goto"
	case StmtRet:
		if s.RHS == nil {
			return "ret"
		}
		return "ret " + FormatOp(s.RHS)
	case StmtPhi:
		var b strings.Builder
		fmt.Fprintf(&b, "%s = phi(", s.Dst)
		for i, a := range s.PhiArgs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
		b.WriteByte(')')
		return b.String()
	case StmtFork:
		if s.Target != nil {
			return fmt.Sprintf("SPT_FORK(loop%d) -> b%d", s.LoopID, s.Target.ID)
		}
		return fmt.Sprintf("SPT_FORK(loop%d)", s.LoopID)
	case StmtKill:
		return fmt.Sprintf("SPT_KILL(loop%d)", s.LoopID)
	}
	return "<invalid stmt>"
}

// FormatFunc renders a whole function with its CFG.
func FormatFunc(f *Func) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", p, p.Kind)
	}
	b.WriteString(")")
	if f.Result != ValVoid {
		fmt.Fprintf(&b, " %s", f.Result)
	}
	b.WriteString(" {\n")
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "b%d:", blk.ID)
		if len(blk.Preds) > 0 {
			b.WriteString("  // preds:")
			for _, p := range blk.Preds {
				fmt.Fprintf(&b, " b%d", p.ID)
			}
		}
		b.WriteByte('\n')
		for _, s := range blk.Stmts {
			fmt.Fprintf(&b, "  s%-3d %s", s.ID, FormatStmt(s))
			if s.Kind == StmtIf && len(blk.Succs) == 2 {
				fmt.Fprintf(&b, " then b%d else b%d", blk.Succs[0].ID, blk.Succs[1].ID)
			}
			if s.Kind == StmtGoto && len(blk.Succs) == 1 {
				fmt.Fprintf(&b, " b%d", blk.Succs[0].ID)
			}
			b.WriteByte('\n')
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// FormatProgram renders every function in the program.
func FormatProgram(p *Program) string {
	var b strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "global %s %s", g.Name, g.Elem)
		for _, d := range g.Dims {
			fmt.Fprintf(&b, "[%d]", d)
		}
		fmt.Fprintf(&b, " @%d\n", g.Addr)
	}
	for _, f := range p.Funcs {
		b.WriteString(FormatFunc(f))
	}
	return b.String()
}
