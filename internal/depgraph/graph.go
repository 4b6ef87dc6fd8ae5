package depgraph

import (
	"fmt"
	"sort"
	"strings"

	"sptc/internal/ir"
	"sptc/internal/profile"
	"sptc/internal/ssa"
)

// EdgeKind classifies dependence edges.
type EdgeKind int

// Edge kinds.
const (
	EdgeScalar EdgeKind = iota // SSA def-use, possibly through phis
	EdgeMemory                 // store -> load on the same global/array
	EdgeCall                   // dependence through a callee's side effects
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeScalar:
		return "scalar"
	case EdgeMemory:
		return "memory"
	case EdgeCall:
		return "call"
	}
	return "?"
}

// Edge is one true data dependence, annotated with its probability
// (§4.1: "a probability value of p on an edge W->R means for every N
// writes at W, only pN reads will access the same memory location at R").
type Edge struct {
	From  *ir.Stmt // producer (the write)
	To    *ir.Stmt // consumer statement
	ToOp  int      // op ID of the reading operation within To; -1 if unknown
	Cross bool     // cross-iteration (distance exactly 1)
	Prob  float64
	Kind  EdgeKind
}

// LegalEdge encodes a reordering constraint: if Later is moved into the
// pre-fork region, Earlier must be moved as well. This covers forward
// intra-iteration true dependences plus memory anti- and output
// dependences, which temporary-variable renaming cannot break.
type LegalEdge struct {
	Earlier *ir.Stmt
	Later   *ir.Stmt
}

// Graph is the annotated dependence graph of one loop.
type Graph struct {
	Loop *ssa.Loop
	Func *ir.Func

	Stmts []*ir.Stmt       // loop-body statements in iteration order
	Order map[*ir.Stmt]int // iteration-order index
	Block map[*ir.Stmt]*ir.Block

	True  []*Edge     // true dependences with probabilities (cost model)
	Legal []LegalEdge // reordering constraints

	// Ctrl maps each statement to the branch statements (within the
	// loop) it is control-dependent on, with the probability of reaching
	// the statement from that branch.
	Ctrl map[*ir.Stmt][]CtrlStmtDep

	VCs      []*ir.Stmt           // violation candidates (§4.2.1)
	ViolProb map[*ir.Stmt]float64 // violation probability per VC

	Iterations float64 // dynamic iteration count of the loop
}

// CtrlStmtDep is a statement-level control dependence.
type CtrlStmtDep struct {
	Branch *ir.Stmt // the StmtIf terminator
	Prob   float64
}

// Config controls graph construction.
type Config struct {
	// UseProfile selects profiled dependence probabilities (the paper's
	// "best" compilation); otherwise static type-based analysis with
	// affine disambiguation is used (the "basic" compilation).
	UseProfile bool
	Dep        *profile.DepProfile
	Effects    map[*ir.Func]*Effects
	// Analysis is the analyzed loop's function's Analysis, built on the
	// CFG the loop was found in: its control dependences, and the
	// dominance the scalar motion rules need.
	Analysis *Analysis
}

// Build constructs the dependence graph for loop l. Block frequencies and
// successor probabilities must already be annotated (from the edge
// profile or the static estimator). Returns nil if the loop never ran.
func Build(l *ssa.Loop, cfg Config) *Graph {
	g := &Graph{
		Loop:     l,
		Func:     l.Func,
		Order:    make(map[*ir.Stmt]int),
		Block:    make(map[*ir.Stmt]*ir.Block),
		Ctrl:     make(map[*ir.Stmt][]CtrlStmtDep),
		ViolProb: make(map[*ir.Stmt]float64),
	}
	g.Iterations = l.Header.Freq
	if g.Iterations <= 0 {
		return nil
	}

	for _, b := range BodyOrder(l) {
		for _, s := range b.Stmts {
			g.Order[s] = len(g.Stmts)
			g.Stmts = append(g.Stmts, s)
			g.Block[s] = b
		}
	}

	g.buildCtrl(cfg)
	g.buildScalarEdges(cfg.Analysis.Dom)
	g.buildMemoryEdges(cfg)
	g.collectVCs()
	return g
}

// BodyOrder returns the loop's blocks in iteration-execution order: a
// topological order of the loop body with every child loop contracted to
// a single unit (so an inner loop's blocks always precede blocks that
// execute after the inner loop exits, which plain reverse postorder does
// not guarantee once bodies are unrolled). Within a unit, child loops
// are ordered recursively. Blocks on exclusive branch arms are mutually
// unordered at run time, so any topological placement is sound for the
// order-based legality rules.
//
// Flattening the statements of these blocks yields exactly Graph.Stmts;
// the incremental-compilation fingerprint relies on that to enumerate a
// loop body without building the graph.
func BodyOrder(l *ssa.Loop) []*ir.Block {
	// Unit of a block: the outermost child loop containing it, or the
	// block itself. Child loops are disjoint at the top level.
	type unit struct {
		block *ir.Block // nil for a contracted child loop
		child *ssa.Loop
	}
	unitOf := make(map[*ir.Block]*unit)
	var units []*unit
	for _, c := range l.Children {
		u := &unit{child: c}
		units = append(units, u)
		for _, b := range c.Blocks {
			unitOf[b] = u
		}
	}
	for _, b := range l.Blocks {
		if unitOf[b] == nil {
			u := &unit{block: b}
			units = append(units, u)
			unitOf[b] = u
		}
	}

	succs := make(map[*unit][]*unit)
	for _, b := range l.Blocks {
		u := unitOf[b]
		for _, s := range b.Succs {
			if s == l.Header || !l.Contains(s) {
				continue
			}
			v := unitOf[s]
			if v != u {
				succs[u] = append(succs[u], v)
			}
		}
	}

	// DFS postorder from the header's unit, reversed.
	seen := make(map[*unit]bool)
	var post []*unit
	var dfs func(*unit)
	dfs = func(u *unit) {
		if seen[u] {
			return
		}
		seen[u] = true
		for _, v := range succs[u] {
			dfs(v)
		}
		post = append(post, u)
	}
	dfs(unitOf[l.Header])
	for _, u := range units {
		dfs(u) // pick up anything unreachable, defensively
	}

	var out []*ir.Block
	for i := len(post) - 1; i >= 0; i-- {
		u := post[i]
		if u.block != nil {
			out = append(out, u.block)
			continue
		}
		out = append(out, BodyOrder(u.child)...)
	}
	return out
}

func (g *Graph) inLoop(s *ir.Stmt) bool {
	_, ok := g.Order[s]
	return ok
}

func (g *Graph) freq(s *ir.Stmt) float64 {
	if b, ok := g.Block[s]; ok {
		return b.Freq
	}
	return 0
}

// execProb is the probability a statement executes in one iteration.
func (g *Graph) execProb(s *ir.Stmt) float64 {
	p := g.freq(s) / g.Iterations
	if p > 1 {
		return 1
	}
	return p
}

func (g *Graph) buildCtrl(cfg Config) {
	for _, s := range g.Stmts {
		b := g.Block[s]
		for _, cd := range cfg.Analysis.CtrlDeps[b] {
			if !g.Loop.Contains(cd.Branch) || cd.Branch == g.Block[s] {
				continue
			}
			term := cd.Branch.Terminator()
			if term == nil || term.Kind != ir.StmtIf {
				continue
			}
			// The loop header's own exit test controls everything in the
			// body; it is not a reorderable statement, so skip it.
			if cd.Branch == g.Loop.Header {
				continue
			}
			g.Ctrl[s] = append(g.Ctrl[s], CtrlStmtDep{Branch: term, Prob: cd.Prob()})
		}
	}
}

// phiSource is one resolved producer behind a chain of phis.
type phiSource struct {
	def   *ir.Stmt
	prob  float64
	cross bool
}

// resolveUses returns the in-loop producers of variable v, tracing through
// phi nodes. Crossing the analyzed loop's header phi via an in-loop
// argument yields a cross-iteration source.
func (g *Graph) resolveUses(defStmt map[*ir.Var]*ir.Stmt, v *ir.Var) []phiSource {
	var out []phiSource
	var walk func(v *ir.Var, prob float64, cross bool, seen map[*ir.Stmt]bool)
	walk = func(v *ir.Var, prob float64, cross bool, seen map[*ir.Stmt]bool) {
		d := defStmt[v]
		if d == nil || !g.inLoop(d) {
			return
		}
		if d.Kind != ir.StmtPhi {
			out = append(out, phiSource{def: d, prob: prob, cross: cross})
			return
		}
		if seen[d] {
			return
		}
		seen[d] = true
		blk := g.Block[d]
		isHeader := blk == g.Loop.Header
		var freqTotal float64
		for i := range d.PhiArgs {
			if i < len(blk.Preds) {
				freqTotal += blk.Preds[i].Freq
			}
		}
		for i, arg := range d.PhiArgs {
			if i >= len(blk.Preds) {
				break
			}
			pred := blk.Preds[i]
			fromInside := g.Loop.Contains(pred)
			argProb := 1.0
			if freqTotal > 0 {
				argProb = pred.Freq / freqTotal
			} else if len(d.PhiArgs) > 0 {
				argProb = 1 / float64(len(d.PhiArgs))
			}
			switch {
			case isHeader && !fromInside:
				// Initial value from outside the loop: not a dependence
				// on any in-loop statement for this loop level.
			case isHeader && fromInside:
				// Loop-carried: value produced by the previous iteration.
				walk(arg, prob*argProb, true, seen)
			default:
				walk(arg, prob*argProb, cross, seen)
			}
		}
		delete(seen, d)
	}
	walk(v, 1, false, make(map[*ir.Stmt]bool))
	return out
}

func (g *Graph) buildScalarEdges(dom *ssa.DomTree) {
	defStmt := make(map[*ir.Var]*ir.Stmt)
	for _, b := range g.Func.Blocks {
		for _, s := range b.Stmts {
			if d := s.Defs(); d != nil {
				defStmt[d] = s
			}
		}
	}

	for _, t := range g.Stmts {
		if t.Kind == ir.StmtPhi {
			continue
		}
		fT := g.freq(t)
		t.Ops(func(o *ir.Op) {
			if o.Kind != ir.OpUseVar {
				return
			}
			for _, src := range g.resolveUses(defStmt, o.Var) {
				if src.def == t && !src.cross {
					continue
				}
				var prob float64
				if src.cross {
					prob = src.prob * g.execProb(t)
				} else {
					fD := g.freq(src.def)
					r := 1.0
					if fD > 0 {
						r = fT / fD
					}
					if r > 1 {
						r = 1
					}
					prob = src.prob * r
				}
				if prob <= 0 {
					continue
				}
				g.True = append(g.True, &Edge{
					From: src.def, To: t, ToOp: o.ID,
					Cross: src.cross, Prob: prob, Kind: EdgeScalar,
				})
				if !src.cross {
					if g.Order[src.def] < g.Order[t] {
						g.Legal = append(g.Legal, LegalEdge{Earlier: src.def, Later: t})
					} else if src.def != t {
						// Intra-iteration dependence flowing backward in
						// body order (through an inner-loop back edge):
						// the pair must move together or not at all.
						g.Legal = append(g.Legal, LegalEdge{Earlier: src.def, Later: t})
						g.Legal = append(g.Legal, LegalEdge{Earlier: t, Later: src.def})
					}
				}
			}
		})
	}

	g.buildScalarMotionRules(dom)
}

// buildScalarMotionRules adds the legality edges that make the snapshot
// scheme of the SPT transformation sound (the paper's temporary-variable
// insertion, Figures 10/11):
//
//  1. Definitions of the same base variable move prefix-closed: a later
//     definition may move only if every earlier one moves.
//  2. A reader left behind in the post-fork region reads either the
//     iteration-entry snapshot (no moved definition precedes it) or the
//     per-definition snapshot of the last moved definition before it.
//     The latter is only well-defined when that definition — and every
//     definition between it and the reader — dominates the reader; when
//     domination fails, the reader is tied to the definition so they
//     move together.
func (g *Graph) buildScalarMotionRules(dom *ssa.DomTree) {
	defsOf := make(map[*ir.Var][]*ir.Stmt)
	for _, s := range g.Stmts {
		if s.Kind == ir.StmtAssign && s.Dst != nil {
			base := s.Dst.Base
			defsOf[base] = append(defsOf[base], s)
		}
	}
	for base, defs := range defsOf {
		sort.Slice(defs, func(i, j int) bool { return g.Order[defs[i]] < g.Order[defs[j]] })
		// Rule 1: prefix-closed definitions.
		for i := 1; i < len(defs); i++ {
			g.Legal = append(g.Legal, LegalEdge{Earlier: defs[i-1], Later: defs[i]})
		}
		if len(defs) == 0 {
			continue
		}
		firstDef := g.Order[defs[0]]
		// Rule 2: readers after at least one definition.
		for _, r := range g.Stmts {
			if r.Kind == ir.StmtPhi {
				continue
			}
			ro, ok := g.Order[r]
			if !ok || ro <= firstDef {
				continue // readers before every definition use the entry snapshot
			}
			reads := false
			r.Ops(func(o *ir.Op) {
				if o.Kind == ir.OpUseVar && o.Var.Base == base {
					reads = true
				}
			})
			if !reads {
				continue
			}
			rb := g.Block[r]
			// Walk candidate "last moved definition" positions from the
			// last definition before r downward, accumulating whether
			// every definition from that point to r dominates r.
			suffixDominates := true
			for i := len(defs) - 1; i >= 0; i-- {
				d := defs[i]
				if g.Order[d] >= ro || d == r {
					continue
				}
				if !dom.Dominates(g.Block[d], rb) {
					suffixDominates = false
				}
				if !suffixDominates {
					g.Legal = append(g.Legal, LegalEdge{Earlier: r, Later: d})
				}
			}
		}
	}
}

// memRef is one memory access site within the loop.
type memRef struct {
	stmt  *ir.Stmt
	op    *ir.Op // the load op, or nil for the store itself
	g     *ir.Global
	index []*ir.Op // nil for scalar globals
	write bool
	call  bool // access through a callee (via effect summary)
}

func (g *Graph) memRefs(cfg Config) []memRef {
	var refs []memRef
	for _, s := range g.Stmts {
		switch s.Kind {
		case ir.StmtStoreG:
			refs = append(refs, memRef{stmt: s, g: s.G, write: true})
		case ir.StmtStoreA:
			refs = append(refs, memRef{stmt: s, g: s.G, index: s.Index, write: true})
		}
		s.Ops(func(o *ir.Op) {
			switch o.Kind {
			case ir.OpLoadG:
				refs = append(refs, memRef{stmt: s, op: o, g: o.G})
			case ir.OpLoadA:
				refs = append(refs, memRef{stmt: s, op: o, g: o.G, index: o.Args})
			case ir.OpCall:
				if o.Builtin {
					return
				}
				eff := cfg.Effects[o.Func]
				if eff == nil {
					return
				}
				for gl := range eff.Reads {
					refs = append(refs, memRef{stmt: s, op: o, g: gl, call: true})
				}
				for gl := range eff.Writes {
					refs = append(refs, memRef{stmt: s, op: o, g: gl, call: true, write: true})
				}
			}
		})
	}
	return refs
}

func (g *Graph) buildMemoryEdges(cfg Config) {
	refs := g.memRefs(cfg)

	// Legality edges are always static and conservative: within one
	// iteration, accesses to the same global must not be reordered unless
	// affine analysis proves disjointness. (Scalar renaming cannot break
	// memory anti/output dependences.)
	var iv *ir.Var
	var step int64
	if ind := ssa.Induction(g.Loop); ind != nil {
		iv, step = ind.IV, ind.Step
	}

	mayAliasIntra := func(a, b memRef) bool {
		if a.g != b.g {
			return false
		}
		if a.call || b.call || a.index == nil || b.index == nil {
			return true
		}
		same, _, unknown := StaticArrayRelation(a.index, b.index, iv, step)
		return same || unknown
	}

	// sameInner reports whether two statements share a descendant loop of
	// the analyzed loop; such pairs can alias across inner-loop iterations
	// in either body order, so they must move together.
	var descendants []*ssaLoopRef
	collectDescendants(g.Loop, &descendants)
	sameInner := func(a, b *ir.Stmt) bool {
		ba, bb := g.Block[a], g.Block[b]
		for _, d := range descendants {
			if d.contains(ba) && d.contains(bb) {
				return true
			}
		}
		return false
	}

	for i, a := range refs {
		for j, b := range refs {
			if i == j || (!a.write && !b.write) {
				continue
			}
			if g.Order[a.stmt] >= g.Order[b.stmt] || a.stmt == b.stmt {
				continue
			}
			if mayAliasIntra(a, b) {
				g.Legal = append(g.Legal, LegalEdge{Earlier: a.stmt, Later: b.stmt})
				if sameInner(a.stmt, b.stmt) {
					g.Legal = append(g.Legal, LegalEdge{Earlier: b.stmt, Later: a.stmt})
				}
			}
		}
	}

	// Ordered I/O: print statements and IO-calling statements keep their
	// mutual order.
	var ioStmts []*ir.Stmt
	seenIO := make(map[*ir.Stmt]bool)
	for _, s := range g.Stmts {
		s.Ops(func(o *ir.Op) {
			if o.Kind != ir.OpCall || seenIO[s] {
				return
			}
			if o.Builtin && o.Str == "print" {
				seenIO[s] = true
			} else if !o.Builtin {
				if eff := cfg.Effects[o.Func]; eff != nil && eff.IO {
					seenIO[s] = true
				}
			}
		})
		if seenIO[s] {
			ioStmts = append(ioStmts, s)
		}
	}
	for i := 1; i < len(ioStmts); i++ {
		g.Legal = append(g.Legal, LegalEdge{Earlier: ioStmts[i-1], Later: ioStmts[i]})
	}

	// True dependences for the cost model.
	if cfg.UseProfile && cfg.Dep != nil {
		g.buildProfiledMemEdges(cfg)
		return
	}
	g.buildStaticMemEdges(refs, iv, step)
}

func (g *Graph) buildProfiledMemEdges(cfg Config) {
	h := g.Loop.Header
	for _, k := range cfg.Dep.LoopPairs(h) {
		// Pairs whose endpoints are not loop-body statements arise from
		// dependences through callees; the paper's framework could not
		// attribute those to call sites either (its noted cost-model
		// weakness, §8/Figure 19), so they are skipped here as well.
		if !g.inLoop(k.W) || !g.inLoop(k.R) {
			continue
		}
		c := cfg.Dep.Pairs[k]
		if p := cfg.Dep.IntraProb(k.W, k.R, h); p > 0 && g.Order[k.W] < g.Order[k.R] {
			g.True = append(g.True, &Edge{From: k.W, To: k.R, ToOp: c.ROp, Prob: p, Kind: EdgeMemory})
		}
		if p := cfg.Dep.CrossProb(k.W, k.R, h); p > 0 {
			g.True = append(g.True, &Edge{From: k.W, To: k.R, ToOp: c.ROp, Cross: true, Prob: p, Kind: EdgeMemory})
		}
	}
}

func (g *Graph) buildStaticMemEdges(refs []memRef, iv *ir.Var, step int64) {
	for _, w := range refs {
		if !w.write {
			continue
		}
		for _, r := range refs {
			if r.write && r.op == nil {
				continue // store-store handled by legality only
			}
			if !w.write || (r.stmt == w.stmt && r.op == nil) {
				continue
			}
			// Only store -> load true dependences here; r must read.
			isRead := !r.write || r.call
			if !isRead || w.g != r.g {
				continue
			}
			kind := EdgeMemory
			if w.call || r.call {
				kind = EdgeCall
			}

			sameIter, nextIter, unknown := false, false, true
			if !w.call && !r.call {
				if w.index == nil && r.index == nil {
					sameIter, nextIter, unknown = true, true, false
				} else if w.index != nil && r.index != nil {
					sameIter, nextIter, unknown = StaticArrayRelation(w.index, r.index, iv, step)
				}
			}
			if unknown {
				sameIter, nextIter = true, true
			}

			toOp := -1
			if r.op != nil {
				toOp = r.op.ID
			}
			wProb := g.execProb(w.stmt)
			if sameIter && g.Order[w.stmt] < g.Order[r.stmt] {
				p := 1.0
				if fw := g.freq(w.stmt); fw > 0 {
					p = g.freq(r.stmt) / fw
				}
				if p > 1 {
					p = 1
				}
				g.True = append(g.True, &Edge{From: w.stmt, To: r.stmt, ToOp: toOp, Prob: p, Kind: kind})
			}
			if nextIter {
				p := g.execProb(r.stmt)
				// A write that always re-executes before the read in the
				// same iteration kills the cross-iteration value.
				if sameIter && g.Order[w.stmt] < g.Order[r.stmt] {
					p *= 1 - wProb
				}
				if p > 0 {
					g.True = append(g.True, &Edge{From: w.stmt, To: r.stmt, ToOp: toOp, Cross: true, Prob: p, Kind: kind})
				}
			}
		}
	}
}

// ssaLoopRef is a light view over ssa.Loop used for containment tests.
type ssaLoopRef struct {
	blocks map[*ir.Block]bool
}

func (r *ssaLoopRef) contains(b *ir.Block) bool { return r.blocks[b] }

func collectDescendants(l *ssa.Loop, out *[]*ssaLoopRef) {
	for _, c := range l.Children {
		m := make(map[*ir.Block]bool, len(c.Blocks))
		for _, b := range c.Blocks {
			m[b] = true
		}
		*out = append(*out, &ssaLoopRef{blocks: m})
		collectDescendants(c, out)
	}
}

func (g *Graph) collectVCs() {
	seen := make(map[*ir.Stmt]bool)
	for _, e := range g.True {
		if !e.Cross || seen[e.From] {
			continue
		}
		seen[e.From] = true
		g.VCs = append(g.VCs, e.From)
		g.ViolProb[e.From] = g.execProb(e.From)
	}
	sort.Slice(g.VCs, func(i, j int) bool { return g.Order[g.VCs[i]] < g.Order[g.VCs[j]] })
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "depgraph for %s (%d stmts, %.0f iters)\n", g.Loop, len(g.Stmts), g.Iterations)
	for _, e := range g.True {
		arrow := "->"
		if e.Cross {
			arrow = "=>"
		}
		fmt.Fprintf(&b, "  s%d %s s%d (op %d) p=%.3f %s\n", e.From.ID, arrow, e.To.ID, e.ToOp, e.Prob, e.Kind)
	}
	for _, vc := range g.VCs {
		fmt.Fprintf(&b, "  VC s%d vp=%.3f: %s\n", vc.ID, g.ViolProb[vc], ir.FormatStmt(vc))
	}
	return b.String()
}
