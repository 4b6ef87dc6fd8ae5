package partition

import (
	"sptc/internal/cost"
	"sptc/internal/depgraph"
)

// LowerBoundMismatches walks the whole legal subset tree of g, without
// pruning, and counts the nodes where walker.lowerBound — given what the
// search would hand down: the parent's bound and the node's recorded
// cost — differs in any bit from a fresh propagation of the node's bound
// set. Reuse must be exact: a reused bound that is merely valid (lower)
// would keep the optimum but change which subtrees are cut.
func LowerBoundMismatches(g *depgraph.Graph, m *cost.Model) int {
	s := &searcher{g: g, m: m, opt: DefaultOptions()}
	eval := m.NewEvaluator()
	s.nVC = eval.NumVCs()
	s.precompute(eval)
	w := s.newWalker(nil, false, false)
	w.evs[0] = eval
	ref := m.NewEvaluator()

	bad := 0
	var walk func(lastIdx int, in nodeIn)
	walk = func(lastIdx int, in nodeIn) {
		lb := w.lowerBound(lastIdx, in)
		if lb != ref.EvalSet(w.boundZero) {
			bad++
		}
		for i := lastIdx + 1; i < s.n; i++ {
			if !w.legal(i) {
				continue
			}
			w.push(i)
			walk(i, nodeIn{parentLast: lastIdx, parentLB: lb, hasLB: true, rec: ref.EvalSet(w.curZero), recorded: true})
			w.pop(i)
		}
	}
	walk(-1, nodeIn{rec: ref.EvalSet(w.curZero), recorded: true})
	return bad
}
