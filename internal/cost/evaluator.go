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
//   - dense forward in-edge arrays per node (edges from later nodes
//     contribute a factor of exactly 1 in Evaluate and are dropped);
//   - the partition of operation nodes into *static* nodes — not
//     reachable from any pseudo node, so their probability never changes
//     — and *dynamic* nodes;
//   - per-dynamic-node invariant factors: the product of (1 − r·v(p))
//     over in-edges whose source is static.
//
// An evaluation then flips only the changed pseudo values and recomputes
// only the dynamic nodes downstream of a change, in topological order.
// Evaluations of the same zero-set are bit-identical regardless of the
// sequence of preceding evaluations.
type Evaluator struct {
	m   *Model
	nVC int

	ordinalOf  map[*ir.Stmt]int // VC statement -> ordinal
	pseudoNode []int32          // ordinal -> node index
	baseProb   []float64        // ordinal -> violation probability when live

	cost   []float64 // node index -> cost
	v      []float64 // node index -> current probability
	outs   [][]int32 // node index -> dynamic successor node indices
	dynPos []int32   // node index -> position in dynIdx, -1 otherwise

	dynIdx    []int32   // dynamic op nodes in topological order
	inFrom    [][]int32 // per dynamic position: dynamic in-edge sources
	inProb    [][]float64
	invariant []float64 // per dynamic position: static in-edge product

	cur        bitset.Set // current zeroed-VC set, by ordinal
	dirty      []bool     // node index -> pending recompute
	constTotal float64    // Σ v·cost over static op nodes
	dynTotal   float64    // Σ v·cost over dynamic op nodes

	recomputes int // dirty nodes actually recomputed across all evals
}

// NewEvaluator builds an incremental evaluator for the model. The
// evaluator starts at the empty partition (no violation candidate
// zeroed), matching Evaluate(nil).
func (m *Model) NewEvaluator() *Evaluator {
	n := len(m.Nodes)
	e := &Evaluator{
		m:         m,
		ordinalOf: make(map[*ir.Stmt]int),
		cost:      make([]float64, n),
		v:         make([]float64, n),
		outs:      make([][]int32, n),
		dynPos:    make([]int32, n),
		dirty:     make([]bool, n),
	}

	// Pseudo ordinals in node order; live violation probabilities.
	for i, nd := range m.Nodes {
		e.cost[i] = nd.Cost
		if !nd.Pseudo {
			continue
		}
		ord := e.nVC
		e.nVC++
		e.ordinalOf[nd.VC] = ord
		e.pseudoNode = append(e.pseudoNode, int32(i))
		p := nd.Cost // hand-built models store the violation prob here
		if m.Graph != nil {
			p = m.Graph.ViolProb[nd.VC]
		}
		e.baseProb = append(e.baseProb, p)
	}
	e.cur = bitset.New(e.nVC)

	// Forward in-edges only: Evaluate initializes v to 0 and walks nodes
	// in order, so an edge from a node with ID >= the consumer's sees
	// v = 0 and contributes a factor of exactly 1. Dropping those edges
	// reproduces its semantics for defensive cycles too.
	fwdIn := make([][]EdgeTo, n)
	reach := make([]bool, n) // reachable from a pseudo node
	for i, nd := range m.Nodes {
		if nd.Pseudo {
			reach[i] = true
			continue
		}
		for _, ed := range nd.In {
			if ed.From.ID < i {
				fwdIn[i] = append(fwdIn[i], ed)
				if reach[ed.From.ID] {
					reach[i] = true
				}
			}
		}
	}

	// Dynamic nodes in topological order, with invariant factors and
	// dense dynamic in-edges.
	for i := range e.dynPos {
		e.dynPos[i] = -1
	}
	for i, nd := range m.Nodes {
		if nd.Pseudo || !reach[i] {
			continue
		}
		pos := int32(len(e.dynIdx))
		e.dynPos[i] = pos
		e.dynIdx = append(e.dynIdx, int32(i))
		var from []int32
		var probs []float64
		inv := 1.0
		for _, ed := range fwdIn[i] {
			src := int32(ed.From.ID)
			if e.dynPos[src] >= 0 || m.Nodes[src].Pseudo {
				from = append(from, src)
				probs = append(probs, ed.Prob)
			} else {
				// Static source: its value is fixed for the lifetime of
				// the evaluator; fold the factor in once.
				inv *= 1 - ed.Prob*e.v[src]
			}
		}
		e.inFrom = append(e.inFrom, from)
		e.inProb = append(e.inProb, probs)
		e.invariant = append(e.invariant, inv)
		// Initialize the dynamic value below, after pseudo values are
		// set; placeholder for now so static readers see 0.
		_ = pos
	}

	// Static op nodes: compute their fixed values in topological order
	// (their inputs are static too) and fold into the constant total.
	for i, nd := range m.Nodes {
		if nd.Pseudo || reach[i] {
			continue
		}
		x := 0.0
		for _, ed := range fwdIn[i] {
			x = 1 - (1-x)*(1-ed.Prob*e.v[ed.From.ID])
		}
		e.v[i] = x
		e.constTotal += x * nd.Cost
	}

	// Successor lists restricted to dynamic consumers.
	for i := range m.Nodes {
		if e.dynPos[i] < 0 {
			continue
		}
		for _, src := range e.inFrom[e.dynPos[i]] {
			e.outs[src] = append(e.outs[src], int32(i))
		}
	}

	// Initial state: empty zero-set, every pseudo live.
	for ord, ni := range e.pseudoNode {
		e.v[ni] = e.baseProb[ord]
	}
	for _, ni := range e.dynIdx {
		pos := e.dynPos[ni]
		prod := e.invariant[pos]
		for k, src := range e.inFrom[pos] {
			prod *= 1 - e.inProb[pos][k]*e.v[src]
		}
		e.v[ni] = 1 - prod
	}
	e.dynTotal = e.sumDynamic()
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
	c.dirty = make([]bool, len(e.dirty))
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

func (e *Evaluator) sumDynamic() float64 {
	total := 0.0
	for _, ni := range e.dynIdx {
		total += e.v[ni] * e.cost[ni]
	}
	return total
}

// EvalSet returns the misspeculation cost of the partition whose zeroed
// violation candidates are given as a bitset over evaluator ordinals
// (pre-fork candidates, plus optimistic may-move candidates for lower
// bounds). Equivalent to Evaluate/EvaluateOptimistic up to floating-point
// association order.
func (e *Evaluator) EvalSet(zero bitset.Set) float64 {
	nDyn := int32(len(e.dynIdx))
	minPos := nDyn
	for wi := range e.cur {
		changed := e.cur[wi] ^ zero[wi]
		e.cur[wi] = zero[wi]
		for changed != 0 {
			ord := wi<<6 | bits.TrailingZeros64(changed)
			changed &= changed - 1
			ni := e.pseudoNode[ord]
			nv := e.baseProb[ord]
			if zero.Has(ord) {
				nv = 0
			}
			if nv == e.v[ni] {
				continue
			}
			e.v[ni] = nv
			for _, s := range e.outs[ni] {
				if p := e.dynPos[s]; !e.dirty[s] {
					e.dirty[s] = true
					if p < minPos {
						minPos = p
					}
				}
			}
		}
	}
	if minPos == nDyn {
		return e.constTotal + e.dynTotal
	}
	for pos := minPos; pos < nDyn; pos++ {
		ni := e.dynIdx[pos]
		if !e.dirty[ni] {
			continue
		}
		e.dirty[ni] = false
		e.recomputes++
		prod := e.invariant[pos]
		from := e.inFrom[pos]
		probs := e.inProb[pos]
		for k, src := range from {
			prod *= 1 - probs[k]*e.v[src]
		}
		x := 1 - prod
		if x == e.v[ni] {
			continue
		}
		e.v[ni] = x
		for _, s := range e.outs[ni] {
			if !e.dirty[s] {
				e.dirty[s] = true
			}
		}
	}
	// Re-sum rather than accumulate deltas: same zero-set, same cost,
	// bit-for-bit, independent of evaluation history.
	e.dynTotal = e.sumDynamic()
	return e.constTotal + e.dynTotal
}
