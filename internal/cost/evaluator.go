package cost

import (
	"math/bits"

	"sptc/internal/bitset"
	"sptc/internal/ir"
)

// Evaluator is the incremental form of the §4.2.3 probability
// propagation, built for the partition search's access pattern: a long
// sequence of evaluations whose inputs (which violation candidates are
// zeroed by the pre-fork region) differ by a handful of candidates each.
//
// Construction precomputes everything that is invariant across
// evaluations of one model:
//
//   - the topological order (the model's node order, fixed at Build);
//   - dense forward in-edge arrays per dynamic node (edges from later nodes
//     contribute a factor of exactly 1 in Evaluate and are dropped);
//   - the *dynamic* operation nodes, those reachable from a pseudo
//     node, numbered by *position* in topological order, with successor
//     lists as positions. Every other operation node has probability 0
//     under any zero-set (its inputs are such nodes too), so it adds
//     nothing to the cost and a factor of exactly 1 to its consumers,
//     and is left out.
//
// An evaluation flips only the changed pseudo values and recomputes only
// the dynamic nodes downstream of a change: the pending ones are a
// bitset over positions, drained lowest bit first, and every successor
// sits at a later position, so one ascending pass is a topological
// worklist. The dynamic part of the cost, Σ v·cost, lives in a
// fixed-shape pairwise-sum tree over positions; a node whose value
// changes rewrites its leaf, and the sums on the paths from the changed
// leaves to the root are re-added once each. An evaluation therefore
// costs time in the changed nodes, not in the size of the model, and
// since every internal sum is left + right of its children's current
// values, evaluations of the same zero-set are bit-identical regardless
// of the sequence of preceding evaluations.
type Evaluator struct {
	nVC int

	ordinalOf  map[*ir.Stmt]int // VC statement -> ordinal
	pseudoNode []int32          // ordinal -> node index
	baseProb   []float64        // ordinal -> violation probability when live
	pseudoOuts [][]int32        // ordinal -> dynamic successor positions

	v []float64 // node index -> current probability

	dynIdx  []int32   // position -> dynamic op node index
	dynCost []float64 // position -> node cost
	inFrom  [][]int32 // position -> dynamic or pseudo in-edge source nodes
	inProb  [][]float64
	outs    [][]int32 // position -> dynamic successor positions

	cur   bitset.Set // current zeroed-VC set, by ordinal
	dirty bitset.Set // positions pending recompute
	sum   []float64  // pairwise-sum tree: sum[1] root, leaf of pos at leaf0+pos
	leaf0 int
	stale []int32 // scratch: tree nodes whose sums are out of date

	recomputes int // dirty nodes actually recomputed across all evals
}

// NewEvaluator builds an incremental evaluator for the model. The
// evaluator starts at the empty partition (no violation candidate
// zeroed), matching Evaluate(nil).
func (m *Model) NewEvaluator() *Evaluator {
	n := len(m.Nodes)
	e := &Evaluator{
		ordinalOf: make(map[*ir.Stmt]int),
		v:         make([]float64, n),
	}

	// Pseudo ordinals in node order; live violation probabilities.
	ordOf := make([]int32, n) // node index -> ordinal, -1 for op nodes
	for i, nd := range m.Nodes {
		ordOf[i] = -1
		if !nd.Pseudo {
			continue
		}
		ord := e.nVC
		e.nVC++
		ordOf[i] = int32(ord)
		e.ordinalOf[nd.VC] = ord
		e.pseudoNode = append(e.pseudoNode, int32(i))
		p := nd.Cost // hand-built models store the violation prob here
		if m.Graph != nil {
			p = m.Graph.ViolProb[nd.VC]
		}
		e.baseProb = append(e.baseProb, p)
	}
	e.cur = bitset.New(e.nVC)
	e.pseudoOuts = make([][]int32, e.nVC)

	// Dynamic nodes in topological order, with their forward in-edges
	// from pseudo and dynamic nodes and successor positions. Evaluate
	// initializes v to 0 and walks nodes in order, so an edge from a node
	// with ID >= the consumer's sees v = 0 and contributes a factor of
	// exactly 1, as does an edge from a node left out; dropping those
	// edges reproduces its semantics for defensive cycles too.
	dynPos := make([]int32, n) // node index -> position, -1 otherwise
	for i, nd := range m.Nodes {
		dynPos[i] = -1
		if nd.Pseudo {
			continue
		}
		var from []int32
		var probs []float64
		for _, ed := range nd.In {
			if src := ed.From.ID; src < i && (ordOf[src] >= 0 || dynPos[src] >= 0) {
				from = append(from, int32(src))
				probs = append(probs, ed.Prob)
			}
		}
		if len(from) == 0 {
			continue
		}
		pos := int32(len(e.dynIdx))
		dynPos[i] = pos
		e.dynIdx = append(e.dynIdx, int32(i))
		e.dynCost = append(e.dynCost, nd.Cost)
		e.inFrom = append(e.inFrom, from)
		e.inProb = append(e.inProb, probs)
		e.outs = append(e.outs, nil)
		for _, src := range from {
			if ord := ordOf[src]; ord >= 0 {
				e.pseudoOuts[ord] = append(e.pseudoOuts[ord], pos)
			} else {
				e.outs[dynPos[src]] = append(e.outs[dynPos[src]], pos)
			}
		}
	}
	nDyn := len(e.dynIdx)
	e.dirty = bitset.New(nDyn)

	// Initial state: empty zero-set, every pseudo live; leaves in
	// position order, then every internal sum bottom-up.
	for ord, ni := range e.pseudoNode {
		e.v[ni] = e.baseProb[ord]
	}
	e.leaf0 = 1
	for e.leaf0 < nDyn {
		e.leaf0 <<= 1
	}
	e.sum = make([]float64, 2*e.leaf0)
	for pos, ni := range e.dynIdx {
		e.v[ni] = 1 - e.product(pos)
		e.sum[e.leaf0+pos] = e.v[ni] * e.dynCost[pos]
	}
	for i := e.leaf0 - 1; i >= 1; i-- {
		e.sum[i] = e.sum[2*i] + e.sum[2*i+1]
	}
	return e
}

// Clone returns an evaluator at e's current zero-set. The clone shares
// e's immutable tables and copies only the per-evaluation state, so it
// is cheap to make and its first evaluation recomputes only what differs
// from e's last set. e and its clone may then be used from different
// goroutines.
func (e *Evaluator) Clone() *Evaluator {
	c := *e
	c.v = append([]float64(nil), e.v...)
	c.cur = e.cur.Clone()
	c.sum = append([]float64(nil), e.sum...)
	c.dirty = bitset.New(len(e.dynIdx))
	c.stale = nil
	c.recomputes = 0
	return &c
}

// NumVCs returns the number of violation candidates (pseudo nodes).
func (e *Evaluator) NumVCs() int { return e.nVC }

// Ordinal returns the evaluator's dense index for a violation candidate,
// or -1 if the statement has no pseudo node.
func (e *Evaluator) Ordinal(vc *ir.Stmt) int {
	if ord, ok := e.ordinalOf[vc]; ok {
		return ord
	}
	return -1
}

// Recomputes returns the total number of dirty dynamic nodes the §4.2.3
// propagation recomputed across all evaluations — the incremental
// evaluator's unit of work, attached to each loop's trace span so the
// dirty-propagation win over from-scratch evaluation is observable.
func (e *Evaluator) Recomputes() int { return e.recomputes }

// product returns Π(1 − r·v(p)) over the in-edges of the dynamic node at
// pos.
func (e *Evaluator) product(pos int) float64 {
	prod := 1.0
	probs := e.inProb[pos]
	for k, src := range e.inFrom[pos] {
		prod *= 1 - probs[k]*e.v[src]
	}
	return prod
}

// EvalSet returns the misspeculation cost of the partition whose zeroed
// violation candidates are given as a bitset over evaluator ordinals
// (pre-fork candidates, plus optimistic may-move candidates for lower
// bounds). Equivalent to Evaluate/EvaluateOptimistic up to floating-point
// association order: the dynamic nodes are summed by the pairwise tree,
// not left to right.
func (e *Evaluator) EvalSet(zero bitset.Set) float64 {
	for wi := range e.cur {
		changed := e.cur[wi] ^ zero[wi]
		e.cur[wi] = zero[wi]
		for changed != 0 {
			b := bits.TrailingZeros64(changed)
			changed &= changed - 1
			ord := wi<<6 | b
			ni := e.pseudoNode[ord]
			nv := e.baseProb[ord]
			if zero[wi]&(1<<b) != 0 {
				nv = 0
			}
			if nv == e.v[ni] {
				continue
			}
			e.v[ni] = nv
			for _, p := range e.pseudoOuts[ord] {
				e.dirty.Add(int(p))
			}
		}
	}
	// Successors sit at later positions, so bits they set in the current
	// word are popped by this same loop, and changed leaves are found in
	// ascending order.
	stale := e.stale[:0]
	for wi := range e.dirty {
		for w := e.dirty[wi]; w != 0; w = e.dirty[wi] {
			e.dirty[wi] = w & (w - 1)
			pos := wi<<6 | bits.TrailingZeros64(w)
			e.recomputes++
			x := 1 - e.product(pos)
			ni := e.dynIdx[pos]
			if x == e.v[ni] {
				continue
			}
			e.v[ni] = x
			e.sum[e.leaf0+pos] = x * e.dynCost[pos]
			stale = append(stale, int32(e.leaf0+pos))
			for _, s := range e.outs[pos] {
				e.dirty.Add(int(s))
			}
		}
	}
	// Re-add the sums above the changed leaves one level at a time, each
	// shared ancestor once: the parents of an ascending list are
	// ascending, so duplicates are adjacent.
	sum := e.sum
	for len(stale) > 0 && stale[0] > 1 {
		n := 0
		for _, i := range stale {
			p := i >> 1
			if n > 0 && stale[n-1] == p {
				continue
			}
			sum[p] = sum[2*p] + sum[2*p+1]
			stale[n] = p
			n++
		}
		stale = stale[:n]
	}
	e.stale = stale
	return sum[1]
}
