package cost

import (
	"math"
	"testing"

	"sptc/internal/bitset"
	"sptc/internal/ir"
)

// edgeCaseModels are degenerate cost-graph shapes: the incremental
// evaluator must agree with the from-scratch propagation on every subset
// of zeroed violation candidates, no matter the evaluation history.
func edgeCaseModels() []struct {
	name  string
	model *Model
	vcs   []*ir.Stmt
} {
	f := &ir.Func{Name: "edge"}
	stmt := func() *ir.Stmt { return f.NewStmt(ir.StmtAssign) }

	var cases []struct {
		name  string
		model *Model
		vcs   []*ir.Stmt
	}
	add := func(name string, nodes []*Node, vcs []*ir.Stmt) {
		cases = append(cases, struct {
			name  string
			model *Model
			vcs   []*ir.Stmt
		}{name, NewHandModel(nodes), vcs})
	}

	// Empty loop body: no nodes at all. Cost is identically 0.
	add("no nodes", nil, nil)

	// Empty loop body with violation candidates but nothing to re-execute
	// (e.g. every op was hoisted): pseudo nodes only, cost 0 everywhere.
	{
		s1, s2 := stmt(), stmt()
		p1 := &Node{Pseudo: true, VC: s1, Cost: 0.7}
		p2 := &Node{Pseudo: true, VC: s2, Cost: 0.3}
		add("pseudo only", []*Node{p1, p2}, []*ir.Stmt{s1, s2})
	}

	// Single VC feeding a single operation.
	{
		s := stmt()
		p := &Node{Pseudo: true, VC: s, Cost: 0.4}
		op := &Node{Stmt: stmt(), Cost: 3, In: []EdgeTo{{From: p, Prob: 0.5}}}
		add("single vc", []*Node{p, op}, []*ir.Stmt{s})
	}

	// Reaching probability 0: a zero-probability edge and a
	// zero-probability violation candidate must contribute nothing.
	{
		s1, s2 := stmt(), stmt()
		p1 := &Node{Pseudo: true, VC: s1, Cost: 0}
		p2 := &Node{Pseudo: true, VC: s2, Cost: 0.9}
		a := &Node{Stmt: stmt(), Cost: 2, In: []EdgeTo{{From: p1, Prob: 1}}}
		b := &Node{Stmt: stmt(), Cost: 2, In: []EdgeTo{{From: p2, Prob: 0}}}
		c := &Node{Stmt: stmt(), Cost: 5, In: []EdgeTo{{From: a, Prob: 0}, {From: b, Prob: 1}}}
		add("probability zero", []*Node{p1, p2, a, b, c}, []*ir.Stmt{s1, s2})
	}

	// Reaching probability 1: a certain violation propagating through a
	// chain of certain edges re-executes the whole chain.
	{
		s := stmt()
		p := &Node{Pseudo: true, VC: s, Cost: 1}
		a := &Node{Stmt: stmt(), Cost: 1, In: []EdgeTo{{From: p, Prob: 1}}}
		b := &Node{Stmt: stmt(), Cost: 1, In: []EdgeTo{{From: a, Prob: 1}}}
		c := &Node{Stmt: stmt(), Cost: 1, In: []EdgeTo{{From: b, Prob: 1}}}
		add("probability one", []*Node{p, a, b, c}, []*ir.Stmt{s})
	}

	// Cycle in the dependence structure (defensive: well-formed graphs
	// are acyclic, but the propagation must still terminate and both
	// implementations must resolve the back edge the same way — the
	// late-to-early edge reads the not-yet-computed value 0).
	{
		s1, s2 := stmt(), stmt()
		p1 := &Node{Pseudo: true, VC: s1, Cost: 0.6}
		p2 := &Node{Pseudo: true, VC: s2, Cost: 0.5}
		a := &Node{Stmt: stmt(), Cost: 2}
		b := &Node{Stmt: stmt(), Cost: 3}
		a.In = []EdgeTo{{From: p1, Prob: 0.8}, {From: b, Prob: 0.9}}
		b.In = []EdgeTo{{From: p2, Prob: 0.7}, {From: a, Prob: 0.4}}
		add("vc dep cycle", []*Node{p1, p2, a, b}, []*ir.Stmt{s1, s2})
	}

	return cases
}

// TestEvaluatorEdgeCases walks every subset of zeroed candidates three
// times over (forward, backward, forward again) through one shared
// evaluator, so each step starts from a different predecessor state, and
// checks every answer against a from-scratch Evaluate.
func TestEvaluatorEdgeCases(t *testing.T) {
	for _, tc := range edgeCaseModels() {
		t.Run(tc.name, func(t *testing.T) {
			m, vcs := tc.model, tc.vcs
			e := m.NewEvaluator()
			if e.NumVCs() != len(vcs) {
				t.Fatalf("evaluator sees %d VCs, model has %d", e.NumVCs(), len(vcs))
			}
			n := len(vcs)
			masks := make([]int, 0, 3*(1<<n))
			for mask := 0; mask < 1<<n; mask++ {
				masks = append(masks, mask)
			}
			for mask := 1<<n - 1; mask >= 0; mask-- {
				masks = append(masks, mask)
			}
			for mask := 0; mask < 1<<n; mask++ {
				masks = append(masks, mask)
			}

			seen := map[int]float64{}
			for _, mask := range masks {
				zero := bitset.New(n)
				pre := map[*ir.Stmt]bool{}
				for i, vc := range vcs {
					if mask&(1<<i) != 0 {
						pre[vc] = true
						ord := e.Ordinal(vc)
						if ord < 0 {
							t.Fatalf("VC %d has no ordinal", vc.ID)
						}
						zero.Add(ord)
					}
				}
				want := m.Evaluate(pre)
				got := e.EvalSet(zero)
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("mask %b: incremental %.15f, from-scratch %.15f", mask, got, want)
				}
				// History independence: revisiting a set must reproduce the
				// earlier answer bit for bit.
				if prev, ok := seen[mask]; ok && prev != got {
					t.Fatalf("mask %b: %.17f then %.17f — evaluation depends on history", mask, prev, got)
				}
				seen[mask] = got
			}

			// Across evaluators: a fresh one and a clone of e, walking
			// the masks in Gray-code order, must reproduce e's answers
			// bit for bit. The partition search relies on this: its
			// walkers evaluate on several evaluators each and reuse a
			// cost across them.
			for name, f := range map[string]*Evaluator{"fresh": m.NewEvaluator(), "clone": e.Clone()} {
				for k := 0; k < 1<<n; k++ {
					mask := k ^ k>>1
					zero := bitset.New(n)
					for i, vc := range vcs {
						if mask&(1<<i) != 0 {
							zero.Add(f.Ordinal(vc))
						}
					}
					if got := f.EvalSet(zero); got != seen[mask] {
						t.Fatalf("%s evaluator, mask %b: %.17f, first evaluator %.17f", name, mask, got, seen[mask])
					}
				}
			}
		})
	}
}

// TestEvaluatorOrdinalUnknown: statements that are not violation
// candidates have no ordinal.
func TestEvaluatorOrdinalUnknown(t *testing.T) {
	f := &ir.Func{Name: "ord"}
	s := f.NewStmt(ir.StmtAssign)
	p := &Node{Pseudo: true, VC: s, Cost: 1}
	m := NewHandModel([]*Node{p})
	e := m.NewEvaluator()
	other := f.NewStmt(ir.StmtAssign)
	if e.Ordinal(other) != -1 {
		t.Fatal("non-VC statement must have ordinal -1")
	}
	if e.Ordinal(s) != 0 {
		t.Fatalf("sole VC must have ordinal 0, got %d", e.Ordinal(s))
	}
}
