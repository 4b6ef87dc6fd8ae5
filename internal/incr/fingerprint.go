// Package incr implements incremental recompilation at loop granularity
// (ninja-style content-hash dirty tracking): each candidate loop is
// fingerprinted over its normalized IR plus every dependence-graph and
// profile input the cost model reads, and a persistent store maps
// (fingerprint, level, search options) to the loop's partition result.
// On recompile, pass 1 re-runs only for loops whose fingerprint changed;
// stored partitions are spliced into pass 2 for clean loops. The
// fingerprint is invariant to loop IDs, raw statement/op IDs, source
// positions, and variable/function names — and sensitive to everything
// the search reads, so a hit is byte-equivalent to re-running the search
// (enforced by the metamorphic equivalence suite in internal/core).
package incr

import (
	"sort"

	"sptc/internal/depgraph"
	"sptc/internal/ir"
	"sptc/internal/partition"
	"sptc/internal/ssa"
)

// Key addresses one stored partition result.
type Key struct {
	// FP is the loop fingerprint from Fingerprinter.Loop.
	FP uint64
	// Level is the compilation level (core.Level; kept as int so incr
	// does not import core).
	Level int
	// Opts is OptionsKey over the partition-search options.
	Opts uint64
}

// OptionsKey hashes the partition-search options that change the search
// result. Workers is excluded (the search is worker-count-invariant);
// Budget and Context are excluded because caching is disabled entirely
// when either could degrade the search (see the gate in internal/core).
func OptionsKey(popt partition.Options) uint64 {
	h := ir.NewFPHash()
	h.Int(popt.MaxVCs)
	h.F64(popt.PreForkFraction)
	h.Bool(popt.PruneSize)
	h.Bool(popt.PruneBound)
	h.Int(popt.MaxSearchNodes)
	return h.Sum()
}

// Fingerprinter hashes candidate loops of one program. It memoizes
// call-expanded sizes and callee summaries, so it must not outlive the
// compile that created it (the IR is mutated by pass 2).
type Fingerprinter struct {
	sizes     *ir.SizeCache
	globalIdx map[*ir.Global]int
	callees   map[*ir.Func]uint64
	effects   map[*ir.Func]*depgraph.Effects
}

// NewFingerprinter returns a fingerprinter for p. effects must be the
// same summary map the dependence graphs will be built with.
func NewFingerprinter(p *ir.Program, effects map[*ir.Func]*depgraph.Effects) *Fingerprinter {
	// Globals hash by declaration index: stable under renames and
	// function reordering, conservative (a miss) under declaration edits.
	gi := make(map[*ir.Global]int, len(p.Globals))
	for i, g := range p.Globals {
		gi[g] = i
	}
	return &Fingerprinter{
		sizes:     ir.NewSizeCache(),
		globalIdx: gi,
		callees:   make(map[*ir.Func]uint64),
		effects:   effects,
	}
}

// calleeSummary hashes everything the cost model and dependence analysis
// read about a callee: its call-expanded and static sizes (callCost) and
// its effect summary (reads/writes/IO/unknown). The callee's body
// internals beyond that are irrelevant to the partition search.
func (fp *Fingerprinter) calleeSummary(f *ir.Func) uint64 {
	if s, ok := fp.callees[f]; ok {
		return s
	}
	fp.callees[f] = 0 // cut recursion cycles
	h := ir.NewFPHash()
	h.Int(fp.sizes.FuncSize(f))
	static := 0
	for _, b := range f.Blocks {
		for _, s := range b.Stmts {
			static += s.CountOps()
		}
	}
	h.Int(static)
	if eff := fp.effects[f]; eff != nil {
		h.Bool(eff.IO)
		h.Bool(eff.Unknown)
		h.Int(len(eff.Reads))
		for _, i := range fp.sortedGlobals(eff.Reads) {
			h.Int(i)
		}
		h.Int(len(eff.Writes))
		for _, i := range fp.sortedGlobals(eff.Writes) {
			h.Int(i)
		}
	} else {
		h.Int(-1)
	}
	// Transitive callees contribute through their own summaries.
	seen := make(map[*ir.Func]bool)
	for _, b := range f.Blocks {
		for _, s := range b.Stmts {
			s.Ops(func(o *ir.Op) {
				if o.Kind == ir.OpCall && !o.Builtin && o.Func != nil && !seen[o.Func] {
					seen[o.Func] = true
					h.U64(fp.calleeSummary(o.Func))
				}
			})
		}
	}
	sum := h.Sum()
	fp.callees[f] = sum
	return sum
}

func (fp *Fingerprinter) sortedGlobals(set map[*ir.Global]bool) []int {
	out := make([]int, 0, len(set))
	for g := range set {
		out = append(out, fp.globalIdx[g])
	}
	sort.Ints(out)
	return out
}

// Loop fingerprints candidate loop l. It returns the hash, the loop-body
// statements in iteration order (the exact enumeration depgraph.Build
// uses for Graph.Stmts, computed without building the graph), and
// ok=false when the loop is not fingerprintable (it never ran, so
// depgraph.Build would return nil).
//
// The hash covers, in order: the loop CFG restricted to the body (block
// frequencies, successor probabilities, predecessor frequencies and
// membership — the phi-argument probabilities), the descendant-loop
// structure, the normalized statement stream with per-statement
// call-expanded sizes and callee summaries, the dominance relation among
// body blocks (the scalar motion rules), control dependences into the
// body, the loop-restricted dependence-profile pairs (including their
// raw-ID emission order, which fixes the cost model's float-accumulation
// order), the induction shape, and the effective body size.
func (fp *Fingerprinter) Loop(l *ssa.Loop, cfg depgraph.Config, bodySize int) (uint64, []*ir.Stmt, bool) {
	if l.Header.Freq <= 0 {
		return 0, nil, false
	}
	h := ir.NewFPHash()
	n := ir.NewFPNorm()
	blocks := depgraph.BodyOrder(l)
	for _, b := range blocks {
		n.RegisterBlock(b)
	}

	// CFG shape and frequencies.
	h.Int(len(blocks))
	for _, b := range blocks {
		h.F64(b.Freq)
		h.Int(len(b.Succs))
		for _, s := range b.Succs {
			h.Int(n.BlockSlot(s))
		}
		h.Int(len(b.SuccProb))
		for _, p := range b.SuccProb {
			h.F64(p)
		}
		h.Int(len(b.Preds))
		for _, p := range b.Preds {
			// Out-of-loop predecessors matter too: header-phi argument
			// probabilities divide by the full predecessor frequency sum.
			h.Int(n.BlockSlot(p))
			h.F64(p.Freq)
		}
	}

	// Descendant-loop structure: which body blocks share an inner loop
	// (the sameInner legality rule) and where the back edges are.
	hashLoopTree(h, n, l)

	// Statement stream.
	var stmts []*ir.Stmt
	for _, b := range blocks {
		h.Int(len(b.Stmts))
		for _, s := range b.Stmts {
			n.HashStmt(h, s, fp.globalIdx)
			h.Int(fp.sizes.StmtOps(s))
			s.Ops(func(o *ir.Op) {
				if o.Kind == ir.OpCall && !o.Builtin && o.Func != nil {
					h.U64(fp.calleeSummary(o.Func))
				}
			})
			stmts = append(stmts, s)
		}
	}

	// Dominance among body blocks (scalar motion rule 2).
	dom := cfg.Analysis.Dom
	var word uint64
	bits := 0
	for _, a := range blocks {
		for _, b := range blocks {
			word <<= 1
			if dom.Dominates(a, b) {
				word |= 1
			}
			if bits++; bits == 64 {
				h.U64(word)
				word, bits = 0, 0
			}
		}
	}
	if bits > 0 {
		h.U64(word)
	}

	// Control dependences into body blocks.
	for _, b := range blocks {
		cds := cfg.Analysis.CtrlDeps[b]
		h.Int(len(cds))
		for _, cd := range cds {
			h.Int(n.BlockSlot(cd.Branch))
			h.F64(cd.Prob())
		}
	}

	// Dependence-profile pairs restricted to the loop. The pairs are
	// hashed in the same raw-ID sort order buildProfiledMemEdges emits
	// them in: the emission order feeds the cost model's edge lists, and
	// float accumulation is order-sensitive, so an ID renumbering that
	// permutes the pairs must change the fingerprint even though each
	// pair's normalized content is unchanged.
	h.Bool(cfg.UseProfile)
	if cfg.UseProfile && cfg.Dep != nil {
		order := make(map[*ir.Stmt]int, len(stmts))
		for i, s := range stmts {
			order[s] = i
		}
		for _, k := range cfg.Dep.LoopPairs(l.Header) {
			wi, wok := order[k.W]
			ri, rok := order[k.R]
			if !wok || !rok {
				continue // dependences through callees: skipped by Build too
			}
			h.Int(wi)
			h.Int(ri)
			h.Int(opPos(k.R, cfg.Dep.Pairs[k].ROp))
			h.F64(cfg.Dep.IntraProb(k.W, k.R, l.Header))
			h.F64(cfg.Dep.CrossProb(k.W, k.R, l.Header))
		}
	}

	// Induction shape (array disambiguation) and the size the search
	// thresholds use.
	if ind := ssa.Induction(l); ind != nil {
		h.Int(n.VarSlot(ind.IV))
		h.I64(ind.Step)
	} else {
		h.Int(-1)
	}
	h.Int(bodySize)

	return h.Sum(), stmts, true
}

// hashLoopTree folds the descendant-loop structure of l: per descendant,
// the body-block slots it contains (ascending). Registered block slots
// are already assigned in body order.
func hashLoopTree(h *ir.FPHash, n *ir.FPNorm, l *ssa.Loop) {
	var walk func(c *ssa.Loop)
	walk = func(c *ssa.Loop) {
		slots := make([]int, 0, len(c.Blocks))
		for _, b := range c.Blocks {
			slots = append(slots, n.BlockSlot(b))
		}
		sort.Ints(slots)
		h.Int(len(slots))
		for _, s := range slots {
			h.Int(s)
		}
		h.Int(n.BlockSlot(c.Header))
		h.Int(len(c.Children))
		for _, cc := range c.Children {
			walk(cc)
		}
	}
	h.Int(len(l.Children))
	for _, c := range l.Children {
		walk(c)
	}
}

// opPos returns the position of op id within s's operation walk, the
// ID-invariant rendering of a profile ROp. -1 when absent.
func opPos(s *ir.Stmt, id int) int {
	pos, found := 0, -1
	s.Ops(func(o *ir.Op) {
		if o.ID == id && found < 0 {
			found = pos
		}
		pos++
	})
	return found
}
