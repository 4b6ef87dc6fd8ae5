package partition

import (
	"fmt"

	"sptc/internal/bitset"
	"sptc/internal/cost"
	"sptc/internal/depgraph"
	"sptc/internal/ir"
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

// walkerSets is a copy of the walker's pushed-set state.
type walkerSets struct {
	move, conds, zero bitset.Set
	size              int
}

func (w *walker) sets() walkerSets {
	return walkerSets{w.curMove.Clone(), w.curConds.Clone(), w.curZero.Clone(), w.curSize}
}

func (a walkerSets) equal(b walkerSets) bool {
	return a.move.Equal(b.move) && a.conds.Equal(b.conds) && a.zero.Equal(b.zero) && a.size == b.size
}

// WalkerUndoMismatch walks the whole legal subset tree of g, without
// pruning, and checks the walker's pushed-set state against its
// specification: after every push, curMove, curConds, curZero and
// curSize equal the union of the pushed candidates' closures, rebuilt
// from the Closure maps; after every pop, they equal what they were
// before the push. It returns the first difference, or "" when there is
// none.
func WalkerUndoMismatch(g *depgraph.Graph, m *cost.Model) string {
	s := &searcher{g: g, m: m, opt: DefaultOptions()}
	eval := m.NewEvaluator()
	s.nVC = eval.NumVCs()
	s.precompute(eval)
	w := s.newWalker(nil, false, false)
	closures := make([]Closure, s.n)
	for i, vc := range s.vcs {
		closures[i] = ComputeClosure(g, vc)
	}
	sizes := ir.NewSizeCache()

	union := func() walkerSets {
		move, conds := map[*ir.Stmt]bool{}, map[*ir.Stmt]bool{}
		w.inSet.ForEach(func(i int) {
			for st := range closures[i].Move {
				move[st] = true
			}
			for st := range closures[i].CopyConds {
				conds[st] = true
			}
		})
		u := walkerSets{bitset.New(s.nStmt), bitset.New(s.nStmt), bitset.New(s.nVC), closureSize(sizes, move, conds)}
		for st := range move {
			u.move.Add(g.Order[st])
			if o := eval.Ordinal(st); o >= 0 {
				u.zero.Add(o)
			}
		}
		for st := range conds {
			u.conds.Add(g.Order[st])
		}
		return u
	}

	var bad string
	var walk func(lastIdx int)
	walk = func(lastIdx int) {
		for i := lastIdx + 1; i < s.n && bad == ""; i++ {
			if !w.legal(i) {
				continue
			}
			before := w.sets()
			w.push(i)
			if got, want := w.sets(), union(); !got.equal(want) {
				bad = fmt.Sprintf("after push(%d) onto %v: sets %+v, union of closures %+v", i, w.inSet, got, want)
				return
			}
			walk(i)
			w.pop(i)
			if got := w.sets(); bad == "" && !got.equal(before) {
				bad = fmt.Sprintf("after pop(%d): sets %+v, before the push %+v", i, got, before)
			}
		}
	}
	walk(-1)
	return bad
}
