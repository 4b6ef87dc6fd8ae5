package partition

import (
	"math/bits"
	"sync/atomic"

	"sptc/internal/bitset"
	"sptc/internal/cost"
	"sptc/internal/depgraph"
	"sptc/internal/ir"
	"sptc/internal/resilience"
)

// eps is the cost-comparison tolerance of the pruning heuristics. The
// incumbent and record comparisons themselves are exact (evaluations of
// one zero-set are bit-identical, so exact ties are meaningful and
// near-ties are modeling noise); the bound prune keeps the historical
// tolerance so a lower bound that equals the incumbent cost up to float
// noise still cuts.
const eps = 1e-12

// searcher holds everything about one Search call that is immutable once
// the precomputation is done, shared read-only by every walker: the
// dense closure/legality/suffix tables and (in live-bound mode) the
// CAS-published shared incumbent.
type searcher struct {
	g   *depgraph.Graph
	m   *cost.Model
	opt Options

	vcs       []*ir.Stmt
	n         int // violation candidates
	nStmt     int // statements (dense indices)
	nVC       int // cost-model pseudo ordinals
	sizeLimit int

	ops        []int        // per-statement call-expanded op counts
	closureOps []int        // per-VC op count of its move ∪ copy-cond closure
	moveBits   []bitset.Set // per-VC move closure over statement indices
	condBits   []bitset.Set // per-VC copy-cond closure over statement indices
	moveVCBits []bitset.Set // per-VC zeroed pseudo ordinals of the closure
	predBits   []bitset.Set // per-VC legality predecessors over VC indices
	suffixZero []bitset.Set // zeroed ordinals of closures of vcs[i..]

	shared atomic.Pointer[incumbent] // live-bound mode's global incumbent
}

// incumbent is an immutable published best partition. The total order on
// incumbents is (cost, pre-fork size, DFS discovery rank), all compared
// exactly; the rank is the subset's position in the serial depth-first
// visit order, which bitset.SeqLess compares without materializing
// ranks. The order is schedule-free: whichever walker finds the global
// minimum, every comparison against it resolves the same way, which is
// what makes the parallel search worker-count-invariant.
type incumbent struct {
	cost             float64
	size             int
	vcs, move, conds bitset.Set
}

// incBetter reports whether a precedes b in the (cost, size, rank)
// order.
func incBetter(a, b *incumbent) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.size != b.size {
		return a.size < b.size
	}
	return a.vcs.SeqLess(b.vcs)
}

// walker is the mutable depth-first state of one explorer of the subset
// tree: the serial search, the parallel frontier coordinator, or a
// worker goroutine draining subtree tasks. All walkers of one Search
// share the searcher's immutable tables; everything here, the
// incremental evaluators included, is private to one goroutine.
type walker struct {
	s      *searcher
	budget *resilience.Budget

	// evs are the walker's incremental evaluators: evs[0] for sets
	// without the last candidate vcs[n-1], evs[1] for sets holding it.
	// The depth-first order toggles vcs[n-1] on about half of all
	// records; splitting on it leaves each evaluator with low-order
	// changes only. A lower bound adds every closure after the node's
	// last candidate, so its set holds vcs[n-1]'s closure too. evs[0] is set when
	// the walker is made, evs[1] on first use.
	evs [2]*cost.Evaluator

	inSet     bitset.Set // VC indices in the pre-fork set
	curMove   bitset.Set
	curConds  bitset.Set
	curZero   bitset.Set
	boundZero bitset.Set
	curSize   int

	// undo is the push stack: each push appends one frame, the curMove,
	// curConds and curZero words from before it, and its curSize to
	// undoSize; pop copies the latest frame back. Every push and pop
	// nests depth-first, so a saved copy restores the sets exactly.
	undo     []uint64
	undoSize []int

	// Local incumbent. For the serial walker and frozen-bound workers it
	// is the pruning bound; live-bound workers prune against the shared
	// incumbent instead and keep the local one as their publish staging.
	bestCost                     float64
	bestSize                     int
	bestVCs, bestMove, bestConds bitset.Set

	// live selects the shared atomic incumbent as the pruning bound.
	live bool
	// strict disables the equal-size tie cut. The serial walker and the
	// frontier coordinator visit candidates in DFS order, so their
	// incumbent always precedes the unexplored ones in rank and a
	// subtree whose lower bound ties the incumbent cost at equal size
	// can be cut (everything below loses the rank tie-break). A worker's
	// incumbent can come from a rank-later subtree (the frozen seed or a
	// shared-bound update), so workers must keep exploring at equal size
	// — cutting there could discard the rank winner.
	strict bool

	// frontier, when positive, makes the walker the parallel search's
	// coordinator: nodes at this depth are queued as tasks instead of
	// descended into.
	frontier int
	tasks    []task

	stop error

	nodes     int
	costEvals int
	dedupHits int
	boundUps  int
}

// nodeIn is what a search node inherits from the step that created it,
// so its lower bound can often be reused instead of evaluated: the
// parent's last candidate index and lower bound, and the cost of the
// node's own set when the parent recorded it.
type nodeIn struct {
	parentLast int
	parentLB   float64
	hasLB      bool // false at the root, which has no parent
	rec        float64
	recorded   bool
}

// task is a subtree the frontier coordinator queued: the pre-fork set
// at its root, ascending, and what the root inherits.
type task struct {
	prefix []int32
	in     nodeIn
}

func (s *searcher) newWalker(budget *resilience.Budget, live, strict bool) *walker {
	w := &walker{
		s:      s,
		budget: budget,

		inSet:     bitset.New(s.n),
		curMove:   bitset.New(s.nStmt),
		curConds:  bitset.New(s.nStmt),
		curZero:   bitset.New(s.nVC),
		boundZero: bitset.New(s.nVC),

		bestVCs:   bitset.New(s.n),
		bestMove:  bitset.New(s.nStmt),
		bestConds: bitset.New(s.nStmt),

		live:   live,
		strict: strict,
	}
	// A path pushes each candidate at most once, so push never grows
	// undo past this capacity.
	w.undo = make([]uint64, 0, s.n*(len(w.curMove)+len(w.curConds)+len(w.curZero)))
	w.undoSize = make([]int, 0, s.n)
	return w
}

// seedEmpty initializes the incumbent to the serial fallback: the empty
// pre-fork partition (always legal, size 0).
func (w *walker) seedEmpty(emptyCost float64) {
	w.bestCost = emptyCost
	w.bestSize = 0
}

// seedFrom initializes the incumbent from a published candidate.
func (w *walker) seedFrom(inc *incumbent) {
	w.bestCost = inc.cost
	w.bestSize = inc.size
	w.bestVCs.CopyFrom(inc.vcs)
	w.bestMove.CopyFrom(inc.move)
	w.bestConds.CopyFrom(inc.conds)
}

// snapshot clones the walker's incumbent as a publishable candidate.
func (w *walker) snapshot() *incumbent {
	return &incumbent{
		cost: w.bestCost, size: w.bestSize,
		vcs: w.bestVCs.Clone(), move: w.bestMove.Clone(), conds: w.bestConds.Clone(),
	}
}

// evalOn propagates the zero-set on evs[1] when the set holds vcs[n-1]
// (last) and on evs[0] otherwise. evs[1] starts as a clone of evs[0]'s
// current state, so a search that never needs it pays nothing for it.
// Evaluations of one zero-set are bit-identical whatever the evaluator
// and its history, so the choice only decides how much of the
// propagation is recomputed.
func (w *walker) evalOn(last bool, zero bitset.Set) float64 {
	e := w.evs[0]
	if last {
		if w.evs[1] == nil {
			w.evs[1] = e.Clone()
		}
		e = w.evs[1]
	}
	w.costEvals++
	return e.EvalSet(zero)
}

// recomputes sums the dirty-node recomputes of the walker's evaluators.
func (w *walker) recomputes() int {
	n := 0
	for _, e := range w.evs {
		if e != nil {
			n += e.Recomputes()
		}
	}
	return n
}

// record evaluates the current partition, takes it as the incumbent
// when it precedes the current one in (cost, size, rank) order, and
// returns its cost. Live walkers additionally CAS-publish improvements
// to the shared incumbent so every worker prunes against the global
// best.
func (w *walker) record() float64 {
	c := w.evalOn(w.inSet.Has(w.s.n-1), w.curZero)
	if !w.precedes(c) {
		return c
	}
	w.bestCost = c
	w.bestSize = w.curSize
	w.bestVCs.CopyFrom(w.inSet)
	w.bestMove.CopyFrom(w.curMove)
	w.bestConds.CopyFrom(w.curConds)
	w.boundUps++
	if w.live {
		w.publish()
	}
	return c
}

// precedes reports whether the current partition, at cost c, precedes
// the local incumbent in (cost, size, rank) order.
func (w *walker) precedes(c float64) bool {
	if c != w.bestCost {
		return c < w.bestCost
	}
	if w.curSize != w.bestSize {
		return w.curSize < w.bestSize
	}
	return w.inSet.SeqLess(w.bestVCs)
}

// publish CAS-loops the walker's incumbent into the shared slot,
// yielding to any concurrently published candidate that precedes it.
func (w *walker) publish() {
	cand := w.snapshot()
	for {
		cur := w.s.shared.Load()
		if cur != nil && !incBetter(cand, cur) {
			return
		}
		if w.s.shared.CompareAndSwap(cur, cand) {
			return
		}
	}
}

// lowerBound is heuristic 2's optimistic cost (§5.2) of the subtree
// below the current set: the cost with every closure after lastIdx
// applied as well. Two cases reuse a cost already known, bit for bit,
// and count as dedup hits:
//
//   - every closure after lastIdx is already in the set, so the bound
//     set is the set the parent just recorded;
//   - the bound set is the parent's. It is always a subset of the
//     parent's (the node adds closure(lastIdx) ⊆ suffixZero[p+1], where
//     p is the parent's last candidate), and it is equal exactly when
//     it covers suffixZero[p+1] — always so when lastIdx = p+1, as
//     closure(p+1) ∪ suffixZero[p+2] = suffixZero[p+1].
//
// Otherwise the bound set is propagated.
func (w *walker) lowerBound(lastIdx int, in nodeIn) float64 {
	w.boundZero.CopyFrom(w.curZero)
	w.boundZero.Or(w.s.suffixZero[lastIdx+1])
	switch {
	case in.recorded && w.boundZero.Equal(w.curZero):
		w.dedupHits++
		return in.rec
	case in.hasLB && w.s.suffixZero[in.parentLast+1].SubsetOf(w.boundZero):
		w.dedupHits++
		return in.parentLB
	}
	return w.evalOn(true, w.boundZero)
}

// boundCut implements heuristic 2 (§5.2), extended so that it never cuts
// a subtree that could still win the documented (cost, size, rank)
// tie-break: the optimistic lower bound lb is compared against the
// incumbent, and a subtree whose bound ties the incumbent cost is only
// cut when its pre-fork size already ties or exceeds the incumbent's —
// size is monotone along a descent, so everything below would lose the
// size tie-break (or, at equal size for non-strict walkers, the rank
// tie-break). This is what makes bound pruning preserve the full
// tie-break, which the pre-dense-index search did not.
func (w *walker) boundCut(lb float64) bool {
	bc, bs := w.bestCost, w.bestSize
	if w.live {
		if inc := w.s.shared.Load(); inc != nil {
			bc, bs = inc.cost, inc.size
		}
	}
	if lb > bc+eps {
		return true
	}
	if lb >= bc-eps {
		if w.curSize > bs {
			return true
		}
		if !w.strict && w.curSize == bs {
			return true
		}
	}
	return false
}

// legal reports whether vcs[i] may join the pre-fork set: all its VC-dep
// predecessors are already in (§5.2).
func (w *walker) legal(i int) bool {
	for wd, pw := range w.s.predBits[i] {
		if pw&^w.inSet[wd] != 0 {
			return false
		}
	}
	return true
}

// push adds vcs[i]'s closure to the current sets, saving their words
// and the size in a new undo frame first. A statement counts once
// toward the size whether it is moved, condition-copied or both, so the
// size grows by the closure's op count less the ops of its statements
// already in curMove ∪ curConds.
func (w *walker) push(i int) {
	s := w.s
	w.inSet.Add(i)
	nw := len(w.curMove)
	f := len(w.undo)
	w.undo = w.undo[:f+2*nw+len(w.curZero)]
	u := w.undo[f:]
	w.undoSize = append(w.undoSize, w.curSize)
	size := w.curSize + s.closureOps[i]
	mv, cd := s.moveBits[i], s.condBits[i]
	for wd, m := range w.curMove {
		c := w.curConds[wd]
		u[wd], u[nw+wd] = m, c
		for o := (mv[wd] | cd[wd]) & (m | c); o != 0; o &= o - 1 {
			size -= s.ops[wd<<6|bits.TrailingZeros64(o)]
		}
		w.curMove[wd] = m | mv[wd]
		w.curConds[wd] = c | cd[wd]
	}
	for wd, z := range w.curZero {
		u[2*nw+wd] = z
		w.curZero[wd] = z | s.moveVCBits[i][wd]
	}
	w.curSize = size
}

// pop undoes the latest push, which added vcs[i].
func (w *walker) pop(i int) {
	w.inSet.Remove(i)
	nw := len(w.curMove)
	f := len(w.undo) - 2*nw - len(w.curZero)
	u := w.undo[f:]
	for wd := range w.curMove {
		w.curMove[wd], w.curConds[wd] = u[wd], u[nw+wd]
	}
	for wd := range w.curZero {
		w.curZero[wd] = u[2*nw+wd]
	}
	w.undo = w.undo[:f]
	w.curSize = w.undoSize[len(w.undoSize)-1]
	w.undoSize = w.undoSize[:len(w.undoSize)-1]
}

// search explores the subtree below the current set, extending it with
// candidates after lastIdx; depth counts the candidates added since the
// walker's root and in is what this node inherits from its parent.
// Every invocation charges one work unit against the walker's budget;
// exhaustion sets w.stop and unwinds.
func (w *walker) search(lastIdx, depth int, in nodeIn) {
	if w.stop != nil {
		return
	}
	if err := w.budget.Spend(1); err != nil {
		w.stop = err
		return
	}
	w.nodes++

	var lb float64
	if w.s.opt.PruneBound {
		lb = w.lowerBound(lastIdx, in)
		if w.boundCut(lb) {
			return
		}
	}

	for i := lastIdx + 1; i < w.s.n && w.stop == nil; i++ {
		if !w.legal(i) {
			continue
		}
		w.push(i)
		if w.s.opt.PruneSize && w.curSize > w.s.sizeLimit {
			w.pop(i)
			continue // heuristic 1: descendants only grow
		}
		child := nodeIn{parentLast: lastIdx, parentLB: lb, hasLB: true}
		if w.curSize <= w.s.sizeLimit {
			child.rec, child.recorded = w.record(), true
		}
		if depth+1 == w.frontier {
			// A task's root node is charged and bound-checked by the
			// worker that runs it, exactly as this recursion would.
			prefix := make([]int32, 0, depth+1)
			w.inSet.ForEach(func(j int) { prefix = append(prefix, int32(j)) })
			w.tasks = append(w.tasks, task{prefix: prefix, in: child})
		} else {
			w.search(i, depth+1, child)
		}
		w.pop(i)
	}
}
