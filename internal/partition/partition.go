// Package partition implements §5 of the paper: finding the optimal SPT
// loop partition. The search space is the set of downward-closed subsets
// of violation candidates in the VC-dependence graph; a branch-and-bound
// search with the paper's two pruning heuristics finds the legal partition
// of minimum misspeculation cost subject to a pre-fork size threshold.
package partition

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"sptc/internal/bitset"
	"sptc/internal/cost"
	"sptc/internal/depgraph"
	"sptc/internal/ir"
	"sptc/internal/resilience"
)

// injectSearch fires once per Search call, before any node is explored;
// tests and CLIs arm it to force panics or budget exhaustion inside the
// branch-and-bound.
var injectSearch = resilience.Register("partition.search")

// Options configures the search.
type Options struct {
	// MaxVCs skips loops with more violation candidates (paper: 30).
	MaxVCs int
	// PreForkFraction bounds the pre-fork region size as a fraction of
	// the loop body size.
	PreForkFraction float64
	// PruneSize enables heuristic 1 (§5.2.1): stop descending once the
	// pre-fork region exceeds the size threshold.
	PruneSize bool
	// PruneBound enables heuristic 2: stop descending when the optimistic
	// lower bound already exceeds the best cost found.
	PruneBound bool
	// MaxSearchNodes is the search-node budget. The search is anytime:
	// when the budget runs out it stops and returns the best partition
	// found so far with Degraded set, instead of running unbounded
	// (paper §5's pruning becomes a soft bound). <= 0 means unbounded.
	MaxSearchNodes int
	// BodySize overrides the loop body size used for thresholds (0 =
	// static op count). The pipeline passes the effective, call-expanded
	// size here.
	BodySize int
	// Context carries the wall-clock deadline and cancellation for the
	// search (nil = context.Background()). Deadline exhaustion, like
	// node-budget exhaustion, yields the best partition so far.
	Context context.Context
	// Budget, when non-nil, replaces the internally built budget: every
	// search node charges one work unit, so one budget can be shared
	// across the searches of a whole compilation phase. MaxSearchNodes
	// and Context are ignored when Budget is set.
	//
	// With Workers >= 1 the search assumes exclusive ownership of the
	// budget for the duration of the call and pre-splits its remaining
	// units across subtree tasks (see Workers); callers sharing one
	// allowance across several parallel searches should carve it up
	// first with Budget.Split.
	Budget *resilience.Budget
	// Workers selects the parallel branch-and-bound: the search expands
	// a deterministic frontier of subtrees serially, then fans the
	// subtree tasks out to this many goroutines. The returned partition
	// is byte-identical for every Workers value >= 1 (and equal to the
	// serial result): candidates are totally ordered by (cost, pre-fork
	// size, DFS discovery rank) and the reducer takes the global minimum
	// of that order, which no schedule can change. 0 (the default) runs
	// the classic serial depth-first search.
	//
	// With a node budget (the default), each task prunes against the
	// incumbent frozen after frontier expansion plus its own
	// improvements, and spends a deterministically pre-split share of
	// the budget, so degradation decisions are also identical at every
	// worker count. Unbudgeted searches prune against a live shared
	// incumbent (CAS-published) instead — same partition, fewer explored
	// nodes, but scheduling-dependent SearchNodes.
	Workers int
}

// DefaultOptions mirror the paper's configuration.
func DefaultOptions() Options {
	return Options{
		MaxVCs:          30,
		PreForkFraction: 0.3,
		PruneSize:       true,
		PruneBound:      true,
		MaxSearchNodes:  1 << 20,
	}
}

// Closure is what moving one statement into the pre-fork region entails.
type Closure struct {
	// Move is the set of statements that must execute in the pre-fork
	// region (the statement plus its intra-iteration producers).
	Move map[*ir.Stmt]bool
	// CopyConds is the set of branch (StmtIf) statements whose conditions
	// must be replicated into the pre-fork region (Figure 12).
	CopyConds map[*ir.Stmt]bool
}

// Size is the call-expanded pre-fork op count the closure implies.
func (c Closure) Size() int { return closureSize(ir.NewSizeCache(), c.Move, c.CopyConds) }

// Result is the outcome of the optimal-partition search for one loop.
type Result struct {
	Skipped   bool // too many violation candidates
	VCCount   int
	BodySize  int
	SizeLimit int

	// Best partition found.
	PreForkVCs  []*ir.Stmt
	Move        map[*ir.Stmt]bool
	CopyConds   map[*ir.Stmt]bool
	PreForkSize int
	Cost        float64

	// EmptyCost is the misspeculation cost with an empty pre-fork region
	// (no reordering), for comparison.
	EmptyCost float64

	// Degraded reports that the search stopped early — node budget or
	// wall-clock deadline exhausted — and the partition is the best found
	// so far rather than the proven optimum. A degraded result is still
	// valid and legal, and its cost never exceeds the serial fallback
	// (the empty pre-fork partition): the search starts from that
	// partition and only ever improves on it.
	Degraded bool
	// DegradeReason classifies why the search degraded (ReasonNone when
	// it ran to completion).
	DegradeReason resilience.Reason

	SearchNodes int
	// CostEvals counts zero-sets propagated through an incremental
	// cost.Evaluator; DedupHits counts lower bounds reused, bit for bit,
	// from the parent's bound or the node's own record instead.
	// Recomputes counts the dirty nodes the evaluators recomputed across
	// those propagations.
	CostEvals  int
	DedupHits  int
	Recomputes int

	// Workers echoes Options.Workers. BoundUpdates counts incumbent
	// improvements across all walkers (how often the shared bound
	// tightened). Under a node budget, SearchNodes, CostEvals,
	// DedupHits, BoundUpdates and the partition are the same at every
	// Workers >= 1; Recomputes depends on which worker ran which
	// subtree.
	Workers      int
	BoundUpdates int
}

// add accumulates a finished walker's work counters.
func (r *Result) add(w *walker) {
	r.SearchNodes += w.nodes
	r.CostEvals += w.costEvals
	r.DedupHits += w.dedupHits
	r.BoundUpdates += w.boundUps
	r.Recomputes += w.recomputes()
}

// String summarizes the result.
func (r *Result) String() string {
	if r.Skipped {
		return fmt.Sprintf("skipped (%d violation candidates)", r.VCCount)
	}
	var vcs []string
	for _, vc := range r.PreForkVCs {
		vcs = append(vcs, fmt.Sprintf("s%d", vc.ID))
	}
	degraded := ""
	if r.Degraded {
		degraded = fmt.Sprintf(", degraded (%s)", r.DegradeReason)
	}
	return fmt.Sprintf("cost=%.3f (empty=%.3f) prefork=%d/%d ops, vcs=[%s], %d search nodes%s",
		r.Cost, r.EmptyCost, r.PreForkSize, r.BodySize, strings.Join(vcs, " "), r.SearchNodes, degraded)
}

// ComputeClosure determines the move set and condition copies required to
// place s (and everything it depends on within the iteration) into the
// pre-fork region.
func ComputeClosure(g *depgraph.Graph, s *ir.Stmt) Closure {
	return computeClosure(g, legalProducers(g), s)
}

// legalProducers indexes the legality edges by consumer, so closures of
// many statements of one graph share the index.
func legalProducers(g *depgraph.Graph) map[*ir.Stmt][]*ir.Stmt {
	producers := make(map[*ir.Stmt][]*ir.Stmt)
	for _, e := range g.Legal {
		producers[e.Later] = append(producers[e.Later], e.Earlier)
	}
	return producers
}

func computeClosure(g *depgraph.Graph, producers map[*ir.Stmt][]*ir.Stmt, s *ir.Stmt) Closure {
	c := Closure{Move: make(map[*ir.Stmt]bool), CopyConds: make(map[*ir.Stmt]bool)}

	var addMove func(*ir.Stmt)
	var addCond func(*ir.Stmt)
	addMove = func(s *ir.Stmt) {
		if s.IsTerminator() {
			// Branches are never moved; when a dependence requires a
			// branch's value in the pre-fork region (e.g. a memory
			// anti-dependence on its condition), the condition is
			// replicated instead (Figure 12's temp_cond).
			addCond(s)
			return
		}
		if c.Move[s] {
			return
		}
		c.Move[s] = true
		for _, p := range producers[s] {
			addMove(p)
		}
		for _, cd := range g.Ctrl[s] {
			addCond(cd.Branch)
		}
	}
	addCond = func(b *ir.Stmt) {
		if c.CopyConds[b] || c.Move[b] {
			return
		}
		c.CopyConds[b] = true
		// The condition's inputs must be available in the pre-fork region.
		for _, p := range producers[b] {
			addMove(p)
		}
		for _, cd := range g.Ctrl[b] {
			addCond(cd.Branch)
		}
	}
	addMove(s)
	return c
}

// closureSize is the call-expanded op count of a combined closure.
func closureSize(sc *ir.SizeCache, move, conds map[*ir.Stmt]bool) int {
	n := 0
	for s := range move {
		n += sc.StmtOps(s)
	}
	for s := range conds {
		if !move[s] {
			n += sc.StmtOps(s)
		}
	}
	return n
}

// vcDepGraph computes, for each violation candidate, the set of violation
// candidates it transitively depends on through intra-iteration true
// dependences (§5.1).
func vcDepGraph(g *depgraph.Graph) map[*ir.Stmt][]*ir.Stmt {
	// Transitive reachability over intra edges, restricted to VCs.
	intraPreds := make(map[*ir.Stmt][]*ir.Stmt)
	for _, e := range g.True {
		if !e.Cross {
			intraPreds[e.To] = append(intraPreds[e.To], e.From)
		}
	}
	isVC := make(map[*ir.Stmt]bool, len(g.VCs))
	for _, vc := range g.VCs {
		isVC[vc] = true
	}

	memo := make(map[*ir.Stmt]map[*ir.Stmt]bool)
	var reach func(s *ir.Stmt, visiting map[*ir.Stmt]bool) map[*ir.Stmt]bool
	reach = func(s *ir.Stmt, visiting map[*ir.Stmt]bool) map[*ir.Stmt]bool {
		if r, ok := memo[s]; ok {
			return r
		}
		if visiting[s] {
			return nil
		}
		visiting[s] = true
		r := make(map[*ir.Stmt]bool)
		for _, p := range intraPreds[s] {
			if isVC[p] {
				r[p] = true
			}
			for q := range reach(p, visiting) {
				r[q] = true
			}
		}
		delete(visiting, s)
		memo[s] = r
		return r
	}

	out := make(map[*ir.Stmt][]*ir.Stmt, len(g.VCs))
	for _, vc := range g.VCs {
		var preds []*ir.Stmt
		for p := range reach(vc, make(map[*ir.Stmt]bool)) {
			if p != vc {
				preds = append(preds, p)
			}
		}
		sort.Slice(preds, func(i, j int) bool { return g.Order[preds[i]] < g.Order[preds[j]] })
		out[vc] = preds
	}
	return out
}

// Search finds the optimal partition for the loop described by g.
//
// The search works entirely on dense indices: statements are numbered by
// g.Order, closures and the current move/copy-cond sets are bitsets over
// those indices, violation-candidate sets are bitsets over the cost
// model's pseudo ordinals, and every cost query goes to an incremental
// cost.Evaluator owned by the walker that asks, so each §4.2.3
// propagation recomputes only what changed since that evaluator's last
// set. Lower bounds are carried down the tree and reused where the
// bound set provably repeats (see walker.lowerBound).
//
// Search is an anytime algorithm: every node charges one work unit
// against the phase budget (Options.MaxSearchNodes and the
// Options.Context deadline, or a caller-shared Options.Budget). On
// exhaustion it stops and returns the best partition found so far with
// Degraded set. The result is always valid: the search seeds the best
// with the serial fallback (empty pre-fork region), so under any budget
// — even zero — the returned partition is legal and its modeled cost is
// at most the serial partition's cost. Node-budget exhaustion is
// deterministic (the same loop and budget always stop at the same node);
// deadline exhaustion is not.
//
// With Options.Workers >= 1 the branch-and-bound itself runs in
// parallel; see Options.Workers for the determinism contract.
func Search(g *depgraph.Graph, m *cost.Model, opt Options) *Result {
	r := &Result{
		VCCount:   len(g.VCs),
		BodySize:  g.Loop.BodySize(),
		Move:      make(map[*ir.Stmt]bool),
		CopyConds: make(map[*ir.Stmt]bool),
		Workers:   opt.Workers,
	}
	if opt.BodySize > 0 {
		r.BodySize = opt.BodySize
	}
	r.SizeLimit = int(float64(r.BodySize) * opt.PreForkFraction)

	// Phase budget: one work unit per search node plus the context's
	// deadline. A caller-provided budget is charged directly, so one
	// budget can span every loop of a compilation phase.
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	budget := opt.Budget
	if budget == nil {
		budget = resilience.NewBudget(ctx, int64(opt.MaxSearchNodes))
	}
	// stop is the sticky exhaustion error; once set, the search unwinds
	// without exploring or recording anything further.
	var stop error
	if err := injectSearch.Fire(resilience.WithBudget(ctx, budget)); err != nil {
		stop = err
	}

	s := &searcher{g: g, m: m, opt: opt}
	// The evaluator of the empty partition becomes the first walker's
	// record evaluator, already at the empty zero-set.
	eval := m.NewEvaluator()
	s.nVC = eval.NumVCs()
	r.EmptyCost = eval.EvalSet(bitset.New(s.nVC))
	r.CostEvals++

	if opt.MaxVCs > 0 && len(g.VCs) > opt.MaxVCs {
		r.Skipped = true
		return r
	}
	if stop != nil {
		// Injected or pre-exhausted before any node: degrade to the
		// serial fallback immediately.
		r.Cost = r.EmptyCost
		r.Degraded = true
		r.DegradeReason = resilience.ReasonFor(stop)
		return r
	}

	s.precompute(eval)

	// Parallelize only when asked and when the subset tree is big enough
	// to have a frontier; the serial and parallel paths return the same
	// partition either way, so this is purely a fan-out decision.
	var best *incumbent
	var stops []error
	if opt.Workers >= 1 && len(g.VCs) > 1 {
		best, stops = s.runParallel(r, budget, eval)
	} else {
		best, stops = s.runSerial(r, budget, eval)
	}

	for _, err := range stops {
		if err != nil {
			r.Degraded = true
			r.DegradeReason = resilience.ReasonFor(err)
			break
		}
	}

	// Convert the winning bitsets back to the exported map/slice form.
	r.Cost = best.cost
	r.PreForkSize = best.size
	best.vcs.ForEach(func(i int) { r.PreForkVCs = append(r.PreForkVCs, s.vcs[i]) })
	best.move.ForEach(func(si int) { r.Move[g.Stmts[si]] = true })
	best.conds.ForEach(func(si int) { r.CopyConds[g.Stmts[si]] = true })
	return r
}

// precompute builds the dense tables every walker shares: closures and
// legality edges as bitsets, per-statement sizes, and the suffix
// zero-sets of the optimistic lower bound.
func (s *searcher) precompute(eval *cost.Evaluator) {
	g := s.g
	// VCs are already in iteration order, which topologically orders the
	// VC-dep graph (intra edges are forward).
	s.vcs = g.VCs
	s.n = len(s.vcs)
	s.nStmt = len(g.Stmts)
	s.sizeLimit = int(float64(s.bodySize()) * s.opt.PreForkFraction)

	// Per-statement call-expanded op counts, by dense index.
	sizes := ir.NewSizeCache()
	s.ops = make([]int, s.nStmt)
	for i, st := range g.Stmts {
		s.ops[i] = sizes.StmtOps(st)
	}

	// Closures as statement bitsets, plus each closure's zeroed-VC set.
	producers := legalProducers(g)
	s.moveBits = make([]bitset.Set, s.n)
	s.condBits = make([]bitset.Set, s.n)
	s.moveVCBits = make([]bitset.Set, s.n)
	s.closureOps = make([]int, s.n)
	for i, vc := range s.vcs {
		c := computeClosure(g, producers, vc)
		s.closureOps[i] = closureSize(sizes, c.Move, c.CopyConds)
		s.moveBits[i] = bitset.New(s.nStmt)
		s.condBits[i] = bitset.New(s.nStmt)
		s.moveVCBits[i] = bitset.New(s.nVC)
		for st := range c.Move {
			s.moveBits[i].Add(g.Order[st])
			if o := eval.Ordinal(st); o >= 0 {
				s.moveVCBits[i].Add(o)
			}
		}
		for st := range c.CopyConds {
			s.condBits[i].Add(g.Order[st])
		}
	}

	// VC-dep predecessors as bitsets over VC indices (§5.2 legality).
	vcIdx := make(map[*ir.Stmt]int, s.n)
	for i, vc := range s.vcs {
		vcIdx[vc] = i
	}
	s.predBits = make([]bitset.Set, s.n)
	for i := range s.predBits {
		s.predBits[i] = bitset.New(s.n)
	}
	for vc, preds := range vcDepGraph(g) {
		for _, p := range preds {
			s.predBits[vcIdx[vc]].Add(vcIdx[p])
		}
	}

	// suffixZero[i] = zeroed-VC set of the union of closures of vcs[i..],
	// used for the optimistic lower bound of heuristic 2.
	s.suffixZero = make([]bitset.Set, s.n+1)
	s.suffixZero[s.n] = bitset.New(s.nVC)
	for i := s.n - 1; i >= 0; i-- {
		u := s.suffixZero[i+1].Clone()
		u.Or(s.moveVCBits[i])
		s.suffixZero[i] = u
	}
}

func (s *searcher) bodySize() int {
	if s.opt.BodySize > 0 {
		return s.opt.BodySize
	}
	return s.g.Loop.BodySize()
}

// runSerial is the classic depth-first branch-and-bound on the calling
// goroutine. A caller-shared Options.Budget is charged sequentially,
// preserving the exact legacy exhaustion points. The root inherits the
// empty partition's cost as its record, which is also the incumbent it
// starts from.
func (s *searcher) runSerial(r *Result, budget *resilience.Budget, eval *cost.Evaluator) (*incumbent, []error) {
	w := s.newWalker(budget, false, false)
	w.evs[0] = eval
	w.seedEmpty(r.EmptyCost)
	w.search(-1, 0, nodeIn{rec: r.EmptyCost, recorded: true})
	r.add(w)
	return w.snapshot(), []error{w.stop}
}
