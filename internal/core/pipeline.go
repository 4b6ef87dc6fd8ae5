// Package core is the paper's primary contribution: the cost-driven
// two-pass SPT compilation framework (§3). Pass 1 analyzes every loop
// candidate — building its annotated dependence graph, the misspeculation
// cost model, and the optimal pre-fork/post-fork partition. Pass 2
// selects the good SPT loops by the §6.1 criteria and performs the final
// SPT transformation with cleanup.
//
// Three compilation levels mirror the paper's evaluation: Basic (loop
// unrolling and code reordering with control-flow profiling and static
// type-based dependence analysis only), Best (plus data-dependence
// profiling and software value prediction), and Anticipated (plus
// while-loop unrolling and privatization).
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sptc/internal/cost"
	"sptc/internal/depgraph"
	"sptc/internal/incr"
	"sptc/internal/ir"
	"sptc/internal/parser"
	"sptc/internal/partition"
	"sptc/internal/profile"
	"sptc/internal/resilience"
	"sptc/internal/sem"
	"sptc/internal/ssa"
	"sptc/internal/trace"
	"sptc/internal/transform"
)

// Fault-injection points for the fail-soft tests and CLIs
// (see internal/resilience).
var (
	injectPass1     = resilience.Register("core.pass1.loop")
	injectTransform = resilience.Register("core.pass2.transform")
)

// buildGraph builds every dependence graph of a compile (pass 1 and SVP);
// tests wrap it to inspect them.
var buildGraph = depgraph.Build

// Level is the compilation level.
type Level int

// Compilation levels.
const (
	// LevelBase builds the non-SPT reference code (no speculation).
	LevelBase Level = iota
	// LevelBasic is the paper's basic compilation: unrolling + code
	// reordering, control-flow profiling, static dependence analysis.
	LevelBasic
	// LevelBest adds data-dependence profiling and software value
	// prediction.
	LevelBest
	// LevelAnticipated additionally unrolls while loops and privatizes
	// per-iteration scratch globals.
	LevelAnticipated
)

func (l Level) String() string {
	switch l {
	case LevelBase:
		return "base"
	case LevelBasic:
		return "basic"
	case LevelBest:
		return "best"
	case LevelAnticipated:
		return "anticipated"
	}
	return "?"
}

// SelectOptions are the §6.1 SPT loop selection criteria.
type SelectOptions struct {
	// CostFraction: the optimal misspeculation cost must be below this
	// fraction of the loop body size (criterion 1).
	CostFraction float64
	// PreForkFraction: the pre-fork region must be below this fraction of
	// the loop body size (criterion 2; also the search threshold).
	PreForkFraction float64
	// MinBodySize and MaxBodySize bound the loop body (criterion 3); the
	// paper's maximum loop size limit is 1000.
	MinBodySize int
	MaxBodySize int
	// MinIterCount rejects loops with too few iterations per entry
	// (criterion 4; paper: "especially a number smaller than 2").
	MinIterCount float64
}

// Options configures a compilation.
type Options struct {
	Level     Level
	Unroll    transform.UnrollOptions
	SVP       transform.SVPOptions
	Partition partition.Options
	Select    SelectOptions
	// MaxProfileSteps bounds the profiling execution.
	MaxProfileSteps int64
	// ProfileMemo, when non-nil, shares profiling runs between compiles
	// that profile identical IR (see profile.Memo): a hit records no
	// "profile" span and counts profile_memo_hit on CompileSource's
	// "compile" span instead. The result is the same either way. Nil
	// runs every profile.
	ProfileMemo *profile.Memo
	// DisableSVP turns software value prediction off (ablation).
	DisableSVP bool
	// SearchWorkers parallelizes pass 1 at two levels: candidate loops
	// are analyzed by a pool of SearchWorkers goroutines (dependence
	// graphs and cost models are per-loop and read-only), and each
	// loop's partition search runs its own parallel branch-and-bound
	// with partition.Options.Workers = SearchWorkers. The compilation
	// result is identical for every SearchWorkers value: loop analyses
	// are independent, reports and degradation events are reduced in
	// loop order after the join, a shared partition.Options.Budget is
	// pre-split deterministically across candidate loops, and every
	// search returns the same partition. Search-node counts are equal
	// among SearchWorkers >= 1 only: the serial search (0) may prune
	// more (see partition.Options.Workers). 0 (the default) keeps the
	// classic single-threaded pass 1 and serial search. Pass 2
	// (selection + transformation) always stays serial: it mutates the
	// IR.
	SearchWorkers int
	// DisableSelection transforms every loop with a legal partition
	// regardless of the §6.1 criteria (ablation: "speculate everything").
	DisableSelection bool
	// Incr enables incremental recompilation: before the pass-1 pool
	// runs, every candidate loop is fingerprinted (normalized IR plus all
	// dependence-graph and profile inputs the cost model reads) and
	// looked up in the store; clean loops splice their stored partition
	// into pass 2 without building a dependence graph or searching, dirty
	// loops run pass 1 as usual and store their result. The compilation
	// output is byte-identical to a from-scratch compile (pinned by the
	// metamorphic equivalence suite). Caching is bypassed — every loop
	// compiles cold — whenever a hit could diverge from a cold compile:
	// under a shared search budget or a context deadline (anytime
	// degradation depends on elapsed work), or with fault-injection
	// points armed (a hit would skip the injection sites). Degraded
	// results are never stored. Nil disables the cache.
	Incr *incr.Store
	// Trace receives one span per pipeline pass (parse, sem, build,
	// unroll, privatize, ssa, profile, svp, pass1, pass2, transform,
	// cleanup) plus one "loop" span per analyzed candidate carrying the
	// partition-search counters. Nil disables tracing at no cost.
	Trace *trace.Track
	// Context cancels the whole compilation: it is checked between
	// passes, inside the profiling interpreter, and inside the
	// partition search. Nil means context.Background().
	Context context.Context
}

// DefaultOptions returns the paper-faithful configuration for a level.
func DefaultOptions(level Level) Options {
	return Options{
		Level:     level,
		Unroll:    transform.DefaultUnrollOptions(),
		SVP:       transform.DefaultSVPOptions(),
		Partition: partition.DefaultOptions(),
		Select: SelectOptions{
			CostFraction:    0.08,
			PreForkFraction: 0.3,
			MinBodySize:     48,
			MaxBodySize:     1000,
			MinIterCount:    2,
		},
		MaxProfileSteps: 2_000_000_000,
	}
}

// Decision is the pass-2 disposition of one loop candidate, the
// categories of the paper's Figure 15.
type Decision int

// Loop dispositions.
const (
	DecisionSelected Decision = iota
	DecisionNotRun            // never executed during profiling
	DecisionTooSmall          // body below minimum (the paper's unrollable-while problem)
	DecisionTooLarge          // body above the hardware limit
	DecisionLowTrip           // iteration count too small
	DecisionTooManyVCs
	DecisionHighCost
	DecisionBigPreFork
	DecisionNested   // a better overlapping candidate was selected
	DecisionShape    // header shape unsupported for transformation
	DecisionDegraded // analysis or transform failed; loop demoted to serial
)

func (d Decision) String() string {
	switch d {
	case DecisionSelected:
		return "selected"
	case DecisionNotRun:
		return "not-run"
	case DecisionTooSmall:
		return "body-too-small"
	case DecisionTooLarge:
		return "body-too-large"
	case DecisionLowTrip:
		return "low-trip-count"
	case DecisionTooManyVCs:
		return "too-many-vcs"
	case DecisionHighCost:
		return "high-cost"
	case DecisionBigPreFork:
		return "big-prefork"
	case DecisionNested:
		return "overlap"
	case DecisionShape:
		return "shape"
	case DecisionDegraded:
		return "degraded"
	}
	return "?"
}

// LoopReport captures everything pass 1 and pass 2 learned about a loop.
type LoopReport struct {
	Func     string
	LoopID   int
	HeaderID int
	Kind     ssa.LoopKind
	Depth    int

	BodySize   int
	Iterations float64
	Entries    float64
	AvgTrip    float64
	VCCount    int

	Partition *partition.Result
	SVP       bool // software value prediction applied

	Decision Decision
	// Benefit is the selection ranking estimate (dynamic ops covered,
	// scaled by expected overlap).
	Benefit float64

	// Filled after transformation.
	Transformed bool
	SPTLoopID   int
	EstCost     float64
	PreForkSize int
	// HasCalls reports whether the transformed loop's final body contains
	// non-builtin calls (the paper's Figure 19 outliers). Computed on the
	// post-cleanup IR for transformed loops only.
	HasCalls bool
}

// SPTLoop identifies a transformed loop for the machine simulator.
type SPTLoop struct {
	ID     int
	Func   *ir.Func
	Header *ir.Block
	// Loop is the natural loop of Header on the final IR; nil when
	// cleanup removed it (e.g. fully dead).
	Loop   *ssa.Loop
	Report *LoopReport
}

// Result is a completed compilation.
type Result struct {
	Level   Level
	Prog    *ir.Program
	Reports []*LoopReport
	SPT     []*SPTLoop

	// Degradations lists every fail-soft event survived during the
	// compile: loops demoted to serial after a panic, and anytime
	// partition searches stopped by a budget or deadline.
	Degradations []resilience.DegradationEvent
}

// Degraded reports whether any fail-soft event occurred.
func (r *Result) Degraded() bool { return len(r.Degradations) > 0 }

// CompileSource parses and compiles SPL source text. The whole
// compilation is recorded as one "compile" span on opt.Trace, with the
// front-end and pipeline passes as children.
func CompileSource(name, src string, opt Options) (*Result, error) {
	root := opt.Trace.Start("compile").Str("source", name).Str("level", opt.Level.String())
	defer root.End()

	sp := opt.Trace.Start("parse")
	prog, err := parser.Parse(name, src)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = opt.Trace.Start("sem")
	info, err := sem.Check(prog)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = opt.Trace.Start("build")
	p, err := ir.Build(info)
	sp.End()
	if err != nil {
		return nil, err
	}
	return compile(p, opt, root)
}

// Compile runs the SPT pipeline over an IR program (which it mutates).
//
// Compile is fail-soft: a candidate loop whose analysis or transform
// panics (or hits an armed fault-injection point) is demoted to serial
// with DecisionDegraded and the event recorded in Result.Degradations;
// the compile itself keeps going. Only front-end errors, IR corruption,
// and cancellation of opt.Context abort the whole compilation.
func Compile(p *ir.Program, opt Options) (*Result, error) {
	return compile(p, opt, nil)
}

// compile is Compile; root is the span enclosing the compilation on
// opt.Trace, which records profile memo hits (nil records none).
func compile(p *ir.Program, opt Options, root *trace.Span) (*Result, error) {
	res := &Result{Level: opt.Level, Prog: p}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if opt.Level == LevelBase {
		finishSSA(p, opt.Trace)
		return res, ir.VerifyProgram(p)
	}

	// Preprocessing (pre-SSA): loop unrolling (§7.1); while-loop
	// unrolling and privatization at the anticipated level.
	sp := opt.Trace.Start("unroll")
	uopt := opt.Unroll
	uopt.UnrollWhile = opt.Level >= LevelAnticipated
	for _, f := range p.Funcs {
		transform.UnrollAll(f, uopt)
	}
	sp.End()
	if opt.Level >= LevelAnticipated {
		sp = opt.Trace.Start("privatize")
		effects := depgraph.ComputeEffects(p)
		for _, f := range p.Funcs {
			dom := ssa.BuildDomTree(f)
			nest := ssa.FindLoops(f, dom)
			for _, l := range nest.Loops {
				transform.Privatize(f, l, dom, effects)
			}
		}
		sp.End()
	}

	// Each function's analyses are built once per IR version: here, and
	// again only where a pass edits a function's CFG (SVP, pass 2).
	sp = opt.Trace.Start("ssa")
	buildSSAAll(p)
	an := make(map[*ir.Func]*depgraph.Analysis, len(p.Funcs))
	for _, f := range p.Funcs {
		an[f] = depgraph.Analyze(f)
	}
	sp.End()
	if err := ir.VerifyProgram(p); err != nil {
		return nil, fmt.Errorf("after preprocessing: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Profiling run.
	prof, err := runProfile(ctx, p, an, opt, root)
	if err != nil {
		return nil, fmt.Errorf("profiling: %w", err)
	}

	// Software value prediction (best level and up): rewrite predictable
	// critical recurrences, then re-profile so pass 1 sees the new code.
	svpApplied := make(map[*ir.Block]bool) // headers of SVP'd loops
	if opt.Level >= LevelBest && !opt.DisableSVP {
		sp = opt.Trace.Start("svp")
		changed := applySVP(p, an, prof, opt, svpApplied)
		sp.Int("rewrites", int64(len(svpApplied))).End()
		if changed {
			if err := ir.VerifyProgram(p); err != nil {
				return nil, fmt.Errorf("after SVP: %w", err)
			}
			prof, err = runProfile(ctx, p, an, opt, root)
			if err != nil {
				return nil, fmt.Errorf("re-profiling after SVP: %w", err)
			}
		}
	}
	prof.Edge.Apply(p)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pass 1: analyze every loop candidate. Phase A walks the program in
	// order, building one job per loop of each function's Analysis;
	// phase B runs the jobs — inline when SearchWorkers <= 1, on a worker
	// pool otherwise; phase C reduces results into reports, trace spans,
	// and degradation events in loop order, so the compilation outcome
	// never depends on scheduling.
	pass1 := opt.Trace.Start("pass1")
	effects := depgraph.ComputeEffects(p)
	var jobs []*pass1Job
	loopID := 0
	for _, f := range p.Funcs {
		a := an[f]
		for _, l := range a.Loops.Loops {
			rep := &LoopReport{
				Func: f.Name, LoopID: loopID, HeaderID: l.Header.ID,
				Kind: l.Kind, Depth: l.Depth, BodySize: l.EffectiveBodySize(),
			}
			loopID++
			rep.SVP = svpApplied[l.Header]
			st := prof.Edge.Stats(l)
			rep.Iterations = float64(st.Iterations)
			rep.Entries = float64(st.Entries)
			rep.AvgTrip = st.AvgTrip
			res.Reports = append(res.Reports, rep)
			jobs = append(jobs, &pass1Job{
				rep:    rep,
				loop:   l,
				notRun: st.Iterations == 0,
				cfg: depgraph.Config{
					UseProfile: opt.Level >= LevelBest,
					Dep:        prof.Dep,
					Effects:    effects,
					Analysis:   a,
				},
				unit: fmt.Sprintf("%s/loop%d", f.Name, rep.LoopID),
			})
		}
	}

	popt := opt.Partition
	popt.PreForkFraction = opt.Select.PreForkFraction
	popt.Workers = opt.SearchWorkers

	// Incremental planning: fingerprint every candidate and mark the
	// clean ones before any budget is split or any worker runs; hits
	// never reach the search, so the split below stays deterministic.
	plan := planIncremental(p, jobs, opt, popt, ctx, effects)

	if opt.SearchWorkers >= 2 {
		// A shared node budget cannot be raced over by concurrent
		// searches without making exhaustion order — and so degradation
		// decisions — scheduling-dependent. Pre-split it into per-loop
		// shares (deterministic: job order and share sizes depend only
		// on the program).
		if popt.Budget != nil {
			shares := popt.Budget.Split(len(jobs))
			for i, j := range jobs {
				j.budget = shares[i]
			}
		}
		runJobs(jobs, opt.SearchWorkers, func(j *pass1Job) {
			j.begin = opt.Trace.Now()
			j.run(ctx, popt)
			j.dur = opt.Trace.Now() - j.begin
		})
	} else {
		for _, j := range jobs {
			j.begin = opt.Trace.Now()
			j.run(ctx, popt)
			j.dur = opt.Trace.Now() - j.begin
		}
	}

	// Phase C: serial reduction in loop order.
	var cands []*candidateShim
	for _, j := range jobs {
		rep := j.rep
		lsp := opt.Trace.Record("loop", j.begin, j.dur).
			Str("func", rep.Func).Int("loop", int64(rep.LoopID)).Int("body", int64(rep.BodySize))
		if j.notRun {
			rep.Decision = DecisionNotRun
			continue
		}
		if j.gerr != nil {
			if ctx.Err() != nil {
				pass1.End()
				return nil, ctx.Err()
			}
			rep.Decision = DecisionDegraded
			ev := resilience.Event("pass1.loop", j.unit, j.gerr)
			res.Degradations = append(res.Degradations, ev)
			lsp.Str("degraded", ev.Reason.String())
			continue
		}
		if j.pr == nil {
			// No dependence graph (the loop never ran) and no cached
			// partition: nothing to decide.
			rep.Decision = DecisionNotRun
			continue
		}
		pr := j.pr
		rep.Partition = pr
		rep.EstCost = pr.Cost
		rep.PreForkSize = pr.PreForkSize
		if pr.Degraded {
			// The anytime search stopped early but its best-so-far
			// partition is still valid; record the event and keep
			// the loop in play.
			res.Degradations = append(res.Degradations, resilience.DegradationEvent{
				Phase: "pass1.search", Unit: j.unit, Reason: pr.DegradeReason,
			})
			lsp.Str("degraded", pr.DegradeReason.String())
		}
		lsp.Int("vcs", int64(rep.VCCount)).
			Int("search_nodes", int64(pr.SearchNodes)).
			Int("cost_evals", int64(pr.CostEvals)).
			Int("dedup_hits", int64(pr.DedupHits)).
			Int("recomputes", int64(pr.Recomputes)).
			Int("search_workers", int64(pr.Workers)).
			Int("bound_updates", int64(pr.BoundUpdates))
		order := j.order
		if order == nil && j.g != nil {
			order = j.g.Order
		}
		if plan != nil {
			if j.cached != nil {
				lsp.Int("incr_hit", 1)
			} else if j.fpOK && j.g != nil && len(j.g.Stmts) == len(j.stmts) {
				// Store the fresh result for the next compile. Degraded
				// results are rejected inside EncodeResult; a statement
				// enumeration mismatch (never expected: the fingerprint
				// and the graph flatten the same body order) skips the
				// store rather than risking a bad splice.
				if e := incr.EncodeResult(pr, j.g.Order, len(j.g.Stmts), j.unit, rep.VCCount); e != nil {
					opt.Incr.Put(j.key, e)
				}
			}
		}
		cands = append(cands, &candidateShim{rep: rep, loop: j.loop, order: order})
	}
	if plan != nil {
		pass1.Int("incr_hits", plan.hits).
			Int("incr_misses", plan.misses).
			Int("incr_invalidated", plan.invalidated)
	}
	pass1.Int("degraded", int64(len(res.Degradations))).End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pass 2: final SPT loop selection (§6.1).
	pass2 := opt.Trace.Start("pass2")
	for _, c := range cands {
		c.rep.Decision = decide(c.rep, opt.Select, opt.DisableSelection)
		if c.rep.Decision == DecisionSelected {
			// Benefit: dynamic operations covered by speculative overlap.
			overlap := float64(c.rep.BodySize-c.rep.PreForkSize) - c.rep.EstCost
			if overlap < 0 {
				overlap = 0
			}
			c.rep.Benefit = c.rep.Iterations * overlap
		}
	}

	// Resolve overlapping candidates (nesting levels of a loop nest):
	// keep the higher-benefit loop.
	selected := resolveOverlaps(cands)
	pass2.Int("selected", int64(len(selected))).End()

	// Transformation: per function, collapse out of SSA, transform each
	// selected loop, then rebuild SSA and clean up.
	byFunc := make(map[*ir.Func][]*candidateShim)
	var funcOrder []*ir.Func
	for _, c := range selected {
		f := c.loop.Func
		if byFunc[f] == nil {
			funcOrder = append(funcOrder, f)
		}
		byFunc[f] = append(byFunc[f], c)
	}
	sptID := 0
	degradedIn := len(res.Degradations)
	tsp := opt.Trace.Start("transform")
	for _, f := range funcOrder {
		if err := ctx.Err(); err != nil {
			tsp.End()
			return nil, err
		}
		ssa.Collapse(f)
		for _, c := range byFunc[f] {
			pr := c.rep.Partition
			// A panic mid-transform can leave f half-rewritten; snapshot
			// first so the loop can be rolled back and demoted to serial
			// while the rest of the function transforms normally.
			sn := ir.Snapshot(f)
			var sr *transform.SPTResult
			gerr := resilience.Guard(func() error {
				if err := injectTransform.Fire(ctx); err != nil {
					return err
				}
				var err error
				sr, err = transform.TransformSPT(f, c.loop, pr.Move, pr.CopyConds, c.order, sptID)
				return err
			})
			if gerr != nil {
				sn.Restore()
				if ctx.Err() != nil {
					tsp.End()
					return nil, ctx.Err()
				}
				if resilience.ReasonFor(gerr) == resilience.ReasonError {
					// TransformSPT declined the loop (unsupported header
					// shape): the historical, non-exceptional outcome.
					c.rep.Decision = DecisionShape
					continue
				}
				c.rep.Decision = DecisionDegraded
				unit := fmt.Sprintf("%s/loop%d", f.Name, c.rep.LoopID)
				res.Degradations = append(res.Degradations, resilience.Event("pass2.transform", unit, gerr))
				continue
			}
			c.rep.Transformed = true
			c.rep.SPTLoopID = sptID
			res.SPT = append(res.SPT, &SPTLoop{ID: sptID, Func: f, Header: sr.Header, Report: c.rep})
			sptID++
		}
	}
	tsp.Int("spt_loops", int64(sptID)).Int("degraded", int64(len(res.Degradations)-degradedIn)).End()
	csp := opt.Trace.Start("cleanup")
	for _, f := range funcOrder {
		ir.PruneUnreachable(f)
		ir.ReorderRPO(f)
		ssa.Repair(f)
		ssa.CopyProp(f)
		ssa.ConstFold(f)
		ssa.DeadCode(f)
		if err := ir.Verify(f); err != nil {
			csp.End()
			return nil, fmt.Errorf("after SPT transformation of %s: %w", f.Name, err)
		}
		an[f] = depgraph.Analyze(f)
	}
	csp.End()
	for _, sl := range res.SPT {
		sl.Loop = an[sl.Func].Loops.ByHeader[sl.Header]
		sl.Report.HasCalls = loopHasCalls(sl.Loop)
	}
	return res, nil
}

// loopHasCalls reports whether the loop's final body contains non-builtin
// calls, read on the post-cleanup IR (Figure 19's outlier marker); nl is
// nil when cleanup removed the loop.
func loopHasCalls(nl *ssa.Loop) bool {
	if nl == nil {
		return false
	}
	for _, b := range nl.Blocks {
		for _, s := range b.Stmts {
			found := false
			s.Ops(func(o *ir.Op) {
				if o.Kind == ir.OpCall && !o.Builtin {
					found = true
				}
			})
			if found {
				return true
			}
		}
	}
	return false
}

// candidateShim carries one loop candidate through passes 1 and 2.
// order is the body-statement iteration order the transformation sorts
// by — from the dependence graph on a cold analysis, or rebuilt from the
// fingerprint enumeration on an incremental hit (the full graph is never
// built for clean loops).
type candidateShim struct {
	rep   *LoopReport
	loop  *ssa.Loop
	order map[*ir.Stmt]int
}

// pass1Job is one loop candidate's analysis unit: the inputs are built
// serially in program order (phase A), run writes the outputs — each job
// touches only its own fields, so a pool of workers can run jobs without
// locks — and the serial reduction (phase C) folds them into the
// compile result in loop order.
type pass1Job struct {
	rep    *LoopReport
	loop   *ssa.Loop
	notRun bool
	cfg    depgraph.Config
	unit   string
	// budget is this loop's pre-split share of a shared search budget
	// (nil: use partition.Options.Budget as passed).
	budget *resilience.Budget

	// Incremental-compilation state (set by planIncremental). fpOK marks
	// a fingerprintable loop; cached is the stored partition on a hit
	// (run skips the whole analysis), with order the rebuilt iteration
	// order; stmts is the fingerprint's body enumeration.
	fpOK   bool
	key    incr.Key
	stmts  []*ir.Stmt
	cached *partition.Result
	order  map[*ir.Stmt]int

	g          *depgraph.Graph
	pr         *partition.Result
	gerr       error
	begin, dur time.Duration
}

// run analyzes the job's loop: dependence graph, cost model, partition
// search. Isolated by resilience.Guard — a panic or injected fault
// demotes this loop to serial without aborting the compile (or, in the
// parallel pass 1, killing the worker pool).
func (j *pass1Job) run(ctx context.Context, popt partition.Options) {
	if j.notRun {
		return
	}
	if j.cached != nil {
		// Incremental hit: the stored partition replaces the whole
		// analysis — no dependence graph, no cost model, no search.
		j.pr = j.cached
		return
	}
	j.gerr = resilience.Guard(func() error {
		if err := injectPass1.Fire(ctx); err != nil {
			return err
		}
		j.g = buildGraph(j.loop, j.cfg)
		if j.g == nil {
			return nil
		}
		j.rep.VCCount = len(j.g.VCs)
		popt.BodySize = j.rep.BodySize
		popt.Context = ctx
		if j.budget != nil {
			popt.Budget = j.budget
		}
		j.pr = partition.Search(j.g, cost.Build(j.g), popt)
		return nil
	})
}

// incrPlan summarizes one compile's incremental planning, for the pass-1
// trace counters (incr_hits/incr_misses/incr_invalidated).
type incrPlan struct {
	hits, misses, invalidated int64
}

// planIncremental fingerprints every runnable candidate loop and marks
// the store hits so the pool skips their analysis. Returns nil when the
// cache is off or bypassed; bypass conditions are exactly the ones under
// which a splice could diverge from a cold compile: a shared search
// budget or a deadline makes anytime degradation depend on elapsed work,
// and armed fault-injection points must keep firing inside every loop's
// analysis.
func planIncremental(p *ir.Program, jobs []*pass1Job, opt Options, popt partition.Options, ctx context.Context, effects map[*ir.Func]*depgraph.Effects) *incrPlan {
	if opt.Incr == nil || popt.Budget != nil {
		return nil
	}
	if _, hasDeadline := ctx.Deadline(); hasDeadline {
		return nil
	}
	if len(resilience.Armed()) > 0 {
		return nil
	}
	fper := incr.NewFingerprinter(p, effects)
	optsKey := incr.OptionsKey(popt)
	plan := &incrPlan{}
	for _, j := range jobs {
		if j.notRun {
			continue
		}
		sum, stmts, ok := fper.Loop(j.loop, j.cfg, j.rep.BodySize)
		if !ok {
			continue
		}
		j.fpOK = true
		j.key = incr.Key{FP: sum, Level: int(opt.Level), Opts: optsKey}
		j.stmts = stmts
		e, st := opt.Incr.Lookup(j.key, j.unit)
		switch st {
		case incr.StatusHit:
			pr, ok := e.Decode(stmts, popt.Workers)
			if !ok {
				// The stored entry does not fit this body enumeration
				// (a store written by a different build, or damage the
				// checksum missed): recompile cold.
				plan.misses++
				continue
			}
			order := make(map[*ir.Stmt]int, len(stmts))
			for i, s := range stmts {
				order[s] = i
			}
			j.cached = pr
			j.order = order
			j.rep.VCCount = pr.VCCount
			plan.hits++
		case incr.StatusInvalidated:
			plan.invalidated++
			plan.misses++
		default:
			plan.misses++
		}
	}
	return plan
}

// runJobs drains the job list with a pool of worker goroutines.
func runJobs(jobs []*pass1Job, workers int, run func(*pass1Job)) {
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= len(jobs) {
					return
				}
				run(jobs[t])
			}
		}()
	}
	wg.Wait()
}

func decide(rep *LoopReport, sel SelectOptions, disableSelection bool) Decision {
	pr := rep.Partition
	if pr == nil {
		return DecisionNotRun
	}
	if pr.Skipped {
		return DecisionTooManyVCs
	}
	if disableSelection {
		return DecisionSelected
	}
	if rep.BodySize < sel.MinBodySize {
		return DecisionTooSmall
	}
	if rep.BodySize > sel.MaxBodySize {
		return DecisionTooLarge
	}
	if rep.AvgTrip < sel.MinIterCount || rep.Iterations < 64 {
		return DecisionLowTrip
	}
	if pr.Cost > sel.CostFraction*float64(rep.BodySize) {
		return DecisionHighCost
	}
	if pr.PreForkSize > int(sel.PreForkFraction*float64(rep.BodySize)) {
		return DecisionBigPreFork
	}
	return DecisionSelected
}

// resolveOverlaps keeps, among candidates sharing blocks (nesting levels
// of the same nest), only the highest-benefit selected loop.
func resolveOverlaps(cands []*candidateShim) []*candidateShim {
	var sel []*candidateShim
	for _, c := range cands {
		if c.rep.Decision == DecisionSelected {
			sel = append(sel, c)
		}
	}
	sort.SliceStable(sel, func(i, j int) bool { return sel[i].rep.Benefit > sel[j].rep.Benefit })
	var kept []*candidateShim
	for _, c := range sel {
		conflict := false
		for _, k := range kept {
			if c.loop.Func == k.loop.Func && (loopOverlaps(c.loop, k.loop)) {
				conflict = true
				break
			}
		}
		if conflict {
			c.rep.Decision = DecisionNested
			continue
		}
		kept = append(kept, c)
	}
	// Deterministic transformation order: program order.
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].rep.LoopID < kept[j].rep.LoopID })
	return kept
}

func loopOverlaps(a, b *ssa.Loop) bool {
	for _, blk := range a.Blocks {
		if b.Contains(blk) {
			return true
		}
	}
	return false
}

// applySVP scans loops for predictable critical recurrences and rewrites
// them (Figure 13), rebuilding the Analysis of every function it edits.
// Returns whether anything changed.
func applySVP(p *ir.Program, an map[*ir.Func]*depgraph.Analysis, prof *profile.Profiles, opt Options, applied map[*ir.Block]bool) bool {
	prof.Edge.Apply(p)
	effects := depgraph.ComputeEffects(p)
	changed := false
	for _, f := range p.Funcs {
		a := an[f]
		var todo []*transform.SVPCandidate
		for _, l := range a.Loops.Loops {
			if prof.Edge.Stats(l).Iterations == 0 {
				continue
			}
			cfg := depgraph.Config{UseProfile: true, Dep: prof.Dep, Effects: effects, Analysis: a}
			g := buildGraph(l, cfg)
			if g == nil || len(g.VCs) == 0 {
				continue
			}
			// Only bother when the loop's no-reorder cost is material:
			// SVP is for critical dependences (§7.2).
			body := l.EffectiveBodySize()
			model := cost.Build(g)
			empty := model.Evaluate(nil)
			if empty <= opt.Select.CostFraction*float64(body) {
				continue
			}
			c := transform.FindSVPCandidate(l, g.VCs, g.ViolProb, prof.Value, opt.SVP)
			if c == nil {
				continue
			}
			// SVP is for dependences code reordering cannot remove
			// (§7.2: "x=bar(x) is a violation candidate which cannot be
			// moved to the pre-fork region"): skip candidates whose
			// closure already fits the pre-fork size budget.
			sizeLimit := int(opt.Select.PreForkFraction * float64(body))
			if transform.ClosureFits(g, c.Stmt, sizeLimit) {
				continue
			}
			// The prediction chain itself needs pre-fork budget, and the
			// loop must be large enough to ever be selected; otherwise
			// the instrumentation is pure overhead (the paper inserts SVP
			// only when the value-prediction overhead is acceptably low).
			if sizeLimit < 10 || body < opt.Select.MinBodySize {
				continue
			}
			// The prediction must actually rescue the loop: the residual
			// cost with the candidate neutralized must be selectable, and
			// the candidate must account for a large share of the cost.
			pre := map[*ir.Stmt]bool{c.Stmt: true}
			residual := model.Evaluate(pre)
			if empty-residual < 0.25*empty {
				continue
			}
			if residual > opt.Select.CostFraction*float64(body) {
				continue
			}
			todo = append(todo, c)
		}
		if len(todo) == 0 {
			continue
		}
		ssa.Collapse(f)
		any := false
		for _, c := range todo {
			if transform.ApplySVP(f, c) {
				applied[c.Loop.Header] = true
				any = true
			}
		}
		ir.PruneUnreachable(f)
		ir.ReorderRPO(f)
		ssa.Repair(f)
		an[f] = depgraph.Analyze(f)
		if any {
			changed = true
		}
	}
	return changed
}

// runProfile profiles p, whose functions have the analyses an, through
// opt.ProfileMemo. An executed run is recorded as a "profile" span; a
// memo hit executes nothing and is counted on root instead.
func runProfile(ctx context.Context, p *ir.Program, an map[*ir.Func]*depgraph.Analysis, opt Options, root *trace.Span) (*profile.Profiles, error) {
	begin := opt.Trace.Now()
	nests := make(map[*ir.Func]*ssa.LoopNest, len(p.Funcs))
	for f, a := range an {
		nests[f] = a.Loops
	}
	prof, hit, err := opt.ProfileMemo.Run(ctx, p, nests, opt.MaxProfileSteps)
	if hit {
		n, _ := root.Int64("profile_memo_hit")
		root.Int("profile_memo_hit", n+1)
	} else {
		opt.Trace.Record("profile", begin, opt.Trace.Now()-begin)
	}
	return prof, err
}

func finishSSA(p *ir.Program, tk *trace.Track) {
	sp := tk.Start("ssa")
	buildSSAAll(p)
	sp.End()
	sp = tk.Start("cleanup")
	for _, f := range p.Funcs {
		ssa.CopyProp(f)
		ssa.ConstFold(f)
		ssa.DeadCode(f)
	}
	sp.End()
}

func buildSSAAll(p *ir.Program) {
	for _, f := range p.Funcs {
		ssa.Repair(f)
	}
}
