// Package depgraph builds the per-loop annotated data-dependence graphs
// the misspeculation cost model consumes (§4.1 of the paper): true
// dependences (intra- and cross-iteration) annotated with probabilities,
// legality edges for code reordering (true/anti/output), and control
// dependences used to copy partial conditional statements into the
// pre-fork region (Figure 12).
package depgraph

import (
	"sptc/internal/ir"
	"sptc/internal/ssa"
)

// Analysis is one function's control-flow analyses for one version of its
// CFG: the dominator tree, the natural loop nest and the control
// dependences. A loop is named by its header block in every analysis of
// the same CFG, which is what keys the dependence profile. A pass that
// edits the CFG makes the Analysis stale; build a fresh one after it.
type Analysis struct {
	Dom      *ssa.DomTree
	Loops    *ssa.LoopNest
	CtrlDeps map[*ir.Block][]CtrlDep
}

// Analyze builds f's Analysis.
func Analyze(f *ir.Func) *Analysis {
	dom := ssa.BuildDomTree(f)
	return &Analysis{Dom: dom, Loops: ssa.FindLoops(f, dom), CtrlDeps: controlDeps(f, buildPostDom(f))}
}

// postDom holds immediate post-dominator information for one function.
// A virtual exit post-dominates every return block.
type postDom struct {
	// IPdom maps a block to its immediate post-dominator; nil means the
	// virtual exit.
	IPdom map[*ir.Block]*ir.Block

	rpoNum map[*ir.Block]int
}

// buildPostDom computes post-dominators on the reverse CFG using the
// iterative Cooper-Harvey-Kennedy scheme with a virtual exit node.
func buildPostDom(f *ir.Func) *postDom {
	pd := &postDom{IPdom: make(map[*ir.Block]*ir.Block), rpoNum: make(map[*ir.Block]int)}

	// Exits: blocks with no successors (ret-terminated).
	var exits []*ir.Block
	for _, b := range f.Blocks {
		if len(b.Succs) == 0 {
			exits = append(exits, b)
		}
	}

	// Reverse postorder on the reverse CFG, starting from exits.
	seen := make(map[*ir.Block]bool)
	var post []*ir.Block
	var dfs func(*ir.Block)
	dfs = func(b *ir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, p := range b.Preds {
			dfs(p)
		}
		post = append(post, b)
	}
	for _, e := range exits {
		dfs(e)
	}
	// Blocks not reaching an exit (infinite loops) are processed last.
	for _, b := range f.Blocks {
		if !seen[b] {
			dfs(b)
		}
	}

	var rpo []*ir.Block
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	for i, b := range rpo {
		pd.rpoNum[b] = i
	}

	// idom on reverse graph; the virtual exit is represented by nil, and
	// exit blocks have the virtual exit as their immediate post-dominator.
	processed := make(map[*ir.Block]bool)
	for _, e := range exits {
		pd.IPdom[e] = nil
		processed[e] = true
	}
	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if len(b.Succs) == 0 {
				continue
			}
			var cand *ir.Block
			candSet := false
			for _, s := range b.Succs {
				if !processed[s] {
					continue
				}
				if !candSet {
					cand, candSet = s, true
				} else {
					cand = pd.intersect(cand, s, processed)
					// nil result means the virtual exit.
					if cand == nil {
						break
					}
				}
			}
			if !candSet {
				continue
			}
			old, had := pd.IPdom[b]
			if !had || old != cand || !processed[b] {
				if !had || old != cand {
					pd.IPdom[b] = cand
					changed = true
				}
				if !processed[b] {
					processed[b] = true
					changed = true
				}
			}
		}
	}
	return pd
}

// intersect walks up the post-dominator tree; nil represents the virtual
// exit, which is an ancestor of everything.
func (pd *postDom) intersect(a, b *ir.Block, processed map[*ir.Block]bool) *ir.Block {
	for a != b {
		if a == nil || b == nil {
			return nil
		}
		for a != nil && b != nil && pd.rpoNum[a] > pd.rpoNum[b] {
			a = pd.IPdom[a]
		}
		for a != nil && b != nil && pd.rpoNum[b] > pd.rpoNum[a] {
			b = pd.IPdom[b]
		}
	}
	return a
}

// CtrlDep records that a block's execution is controlled by a branch.
type CtrlDep struct {
	Branch *ir.Block // block whose terminator is the controlling StmtIf
	Succ   int       // index in Branch.Succs of the edge toward the block
}

// Prob is the probability the controlled block executes given the branch
// executes: the taken-edge probability toward it, read from the branch's
// current SuccProb (0.5 when unannotated), so profile annotations applied
// after the analysis was built are seen.
func (cd CtrlDep) Prob() float64 {
	if cd.Succ < len(cd.Branch.SuccProb) {
		return cd.Branch.SuccProb[cd.Succ]
	}
	return 0.5
}

// controlDeps computes, for every block, the set of branches it is
// control-dependent on (Ferrante et al.): b is control-dependent on edge
// (p -> s) iff b post-dominates s but does not post-dominate p.
func controlDeps(f *ir.Func, pd *postDom) map[*ir.Block][]CtrlDep {
	out := make(map[*ir.Block][]CtrlDep)
	for _, p := range f.Blocks {
		if len(p.Succs) < 2 {
			continue
		}
		for i, s := range p.Succs {
			// Walk the post-dominator tree from s up to (but excluding)
			// ipdom(p); every node on the way is control-dependent on p.
			stop := pd.IPdom[p]
			cur := s
			for cur != nil && cur != stop {
				out[cur] = append(out[cur], CtrlDep{Branch: p, Succ: i})
				cur = pd.IPdom[cur]
			}
		}
	}
	return out
}
