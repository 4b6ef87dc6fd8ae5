// Benchmark harness regenerating the paper's evaluation (§8): one
// benchmark per table and figure, plus ablations of the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Reported metrics carry the figure data (speedup %, IPC, coverage %,
// misspeculation %, ...); the wall-clock numbers measure the compiler and
// simulator themselves.
package sptc_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"sptc"
	"sptc/internal/benchprog"
	"sptc/internal/core"
	"sptc/internal/cost"
	"sptc/internal/depgraph"
	"sptc/internal/incr"
	"sptc/internal/interp"
	"sptc/internal/ir"
	"sptc/internal/machine"
	"sptc/internal/parser"
	"sptc/internal/partition"
	"sptc/internal/profile"
	"sptc/internal/sem"
	"sptc/internal/ssa"
)

// ---- shared compile cache (compilation is deterministic) ----

type compileKey struct {
	name  string
	level core.Level
}

// compileCache holds one compilation per (benchmark, level), shared by
// the benchmarks below; they call compiled from one goroutine.
var compileCache = map[compileKey]*core.Result{}

func compiled(b *testing.B, name string, level core.Level) *core.Result {
	b.Helper()
	key := compileKey{name, level}
	if r := compileCache[key]; r != nil {
		return r
	}
	bench := benchprog.ByName(name)
	if bench == nil {
		b.Fatalf("unknown benchmark %s", name)
	}
	r, err := core.CompileSource(name, bench.Source, core.DefaultOptions(level))
	if err != nil {
		b.Fatalf("compile %s@%s: %v", name, level, err)
	}
	compileCache[key] = r
	return r
}

func simulate(b *testing.B, res *core.Result) *machine.Result {
	b.Helper()
	sim, err := sptc.SimulateWith(res, machine.DefaultConfig(), io.Discard)
	if err != nil {
		b.Fatalf("simulate: %v", err)
	}
	return sim
}

// ---- Table 1: IPC of the non-SPT base reference ----

func BenchmarkTable1BaseIPC(b *testing.B) {
	for _, bench := range benchprog.Suite() {
		b.Run(bench.Name, func(b *testing.B) {
			res := compiled(b, bench.Name, core.LevelBase)
			var ipc float64
			for i := 0; i < b.N; i++ {
				sim := simulate(b, res)
				ipc = sim.IPC()
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// ---- Figure 14: speedup per benchmark and compilation level ----

func BenchmarkFig14Speedup(b *testing.B) {
	levels := []core.Level{core.LevelBasic, core.LevelBest, core.LevelAnticipated}
	for _, bench := range benchprog.Suite() {
		for _, lvl := range levels {
			b.Run(bench.Name+"/"+lvl.String(), func(b *testing.B) {
				base := compiled(b, bench.Name, core.LevelBase)
				res := compiled(b, bench.Name, lvl)
				var speedup float64
				for i := 0; i < b.N; i++ {
					baseSim := simulate(b, base)
					sim := simulate(b, res)
					speedup = baseSim.Cycles / sim.Cycles
				}
				b.ReportMetric((speedup-1)*100, "speedup_%")
			})
		}
	}
}

// ---- Figure 15: loop candidate breakdown at the best level ----

func BenchmarkFig15LoopBreakdown(b *testing.B) {
	var selected, total int
	for i := 0; i < b.N; i++ {
		selected, total = 0, 0
		for _, bench := range benchprog.Suite() {
			res := compiled(b, bench.Name, core.LevelBest)
			for _, r := range res.Reports {
				total++
				if r.Decision == core.DecisionSelected {
					selected++
				}
			}
		}
	}
	b.ReportMetric(float64(total), "loops")
	b.ReportMetric(100*float64(selected)/float64(total), "valid_partition_%")
}

// ---- Figure 16: runtime coverage of SPT loops ----

func BenchmarkFig16Coverage(b *testing.B) {
	for _, bench := range benchprog.Suite() {
		b.Run(bench.Name, func(b *testing.B) {
			res := compiled(b, bench.Name, core.LevelBest)
			var coverage float64
			var loops int
			for i := 0; i < b.N; i++ {
				sim := simulate(b, res)
				var inLoops float64
				for _, ls := range sim.Loops {
					inLoops += ls.Elapsed
				}
				coverage = inLoops / sim.Cycles
				loops = len(res.SPT)
			}
			b.ReportMetric(coverage*100, "coverage_%")
			b.ReportMetric(float64(loops), "spt_loops")
		})
	}
}

// ---- Figure 17: SPT loop body size and pre-fork share ----

func BenchmarkFig17PartitionShape(b *testing.B) {
	var bodySum, preSum float64
	var n int
	for i := 0; i < b.N; i++ {
		bodySum, preSum, n = 0, 0, 0
		for _, bench := range benchprog.Suite() {
			res := compiled(b, bench.Name, core.LevelBest)
			sim := simulate(b, res)
			for _, sl := range res.SPT {
				ls := sim.Loops[sl.ID]
				if ls == nil || ls.SpecIters == 0 {
					continue
				}
				bodySum += float64(ls.SpecOps) / float64(ls.SpecIters)
				if sl.Report.BodySize > 0 {
					preSum += float64(sl.Report.PreForkSize) / float64(sl.Report.BodySize)
				}
				n++
			}
		}
	}
	if n > 0 {
		b.ReportMetric(bodySum/float64(n), "dyn_ops_per_iter")
		b.ReportMetric(100*preSum/float64(n), "prefork_share_%")
	}
}

// ---- Figure 18: misspeculation ratio and loop-local speedup ----

func BenchmarkFig18LoopPerf(b *testing.B) {
	for _, bench := range benchprog.Suite() {
		b.Run(bench.Name, func(b *testing.B) {
			res := compiled(b, bench.Name, core.LevelBest)
			var misspec, speedup float64
			for i := 0; i < b.N; i++ {
				sim := simulate(b, res)
				var specOps, reexecOps int64
				var seq, elapsed float64
				for _, ls := range sim.Loops {
					specOps += ls.SpecOps
					reexecOps += ls.ReexecOps
					seq += ls.SeqCycles
					elapsed += ls.Elapsed
				}
				if specOps > 0 {
					misspec = float64(reexecOps) / float64(specOps)
				}
				if elapsed > 0 {
					speedup = seq / elapsed
				}
			}
			b.ReportMetric(misspec*100, "misspec_%")
			b.ReportMetric(speedup, "loop_speedup")
		})
	}
}

// ---- Figure 19: estimated cost vs measured re-execution correlation ----

func BenchmarkFig19CostCorrelation(b *testing.B) {
	var corr float64
	var points int
	for i := 0; i < b.N; i++ {
		var xs, ys []float64
		for _, bench := range benchprog.Suite() {
			res := compiled(b, bench.Name, core.LevelBest)
			sim := simulate(b, res)
			for _, sl := range res.SPT {
				ls := sim.Loops[sl.ID]
				if ls == nil || ls.SpecIters < 8 {
					continue
				}
				est := 0.0
				if sl.Report.BodySize > 0 {
					est = sl.Report.EstCost / float64(sl.Report.BodySize)
				}
				xs = append(xs, est)
				ys = append(ys, ls.ReexecRatio())
			}
		}
		corr = pearson(xs, ys)
		points = len(xs)
	}
	b.ReportMetric(corr, "pearson_r")
	b.ReportMetric(float64(points), "points")
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
		vx += (xs[i] - mx) * (xs[i] - mx)
		vy += (ys[i] - my) * (ys[i] - my)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// ---- Ablations ----

// BenchmarkAblationPruning measures the branch-and-bound search with and
// without the paper's §5.2.1 pruning heuristics (search-node counts).
func BenchmarkAblationPruning(b *testing.B) {
	g, m := ablationLoopGraph(b)
	for _, pruned := range []bool{true, false} {
		name := "pruned"
		if !pruned {
			name = "exhaustive"
		}
		b.Run(name, func(b *testing.B) {
			opt := partition.DefaultOptions()
			opt.PruneSize = pruned
			opt.PruneBound = pruned
			var nodes int
			for i := 0; i < b.N; i++ {
				r := partition.Search(g, m, opt)
				nodes = r.SearchNodes
			}
			b.ReportMetric(float64(nodes), "search_nodes")
		})
	}
}

// BenchmarkAblationSelection compares cost-driven selection against
// speculating every legal loop.
func BenchmarkAblationSelection(b *testing.B) {
	src := benchprog.ByName("gap").Source
	base, err := core.CompileSource("gap", src, core.DefaultOptions(core.LevelBase))
	if err != nil {
		b.Fatal(err)
	}
	baseSim := simulateResult(b, base)

	for _, everything := range []bool{false, true} {
		name := "cost-driven"
		if everything {
			name = "speculate-all"
		}
		b.Run(name, func(b *testing.B) {
			opt := core.DefaultOptions(core.LevelBest)
			opt.DisableSelection = everything
			res, err := core.CompileSource("gap", src, opt)
			if err != nil {
				b.Fatal(err)
			}
			var speedup float64
			for i := 0; i < b.N; i++ {
				sim := simulateResult(b, res)
				speedup = baseSim.Cycles / sim.Cycles
			}
			b.ReportMetric((speedup-1)*100, "speedup_%")
			b.ReportMetric(float64(len(res.SPT)), "spt_loops")
		})
	}
}

// BenchmarkAblationSVP compares the best compilation with and without
// software value prediction on the SVP-dependent vpr benchmark.
func BenchmarkAblationSVP(b *testing.B) {
	src := benchprog.ByName("vpr").Source
	base, err := core.CompileSource("vpr", src, core.DefaultOptions(core.LevelBase))
	if err != nil {
		b.Fatal(err)
	}
	baseSim := simulateResult(b, base)
	for _, disable := range []bool{false, true} {
		name := "svp-on"
		if disable {
			name = "svp-off"
		}
		b.Run(name, func(b *testing.B) {
			opt := core.DefaultOptions(core.LevelBest)
			opt.DisableSVP = disable
			res, err := core.CompileSource("vpr", src, opt)
			if err != nil {
				b.Fatal(err)
			}
			var speedup float64
			for i := 0; i < b.N; i++ {
				sim := simulateResult(b, res)
				speedup = baseSim.Cycles / sim.Cycles
			}
			b.ReportMetric((speedup-1)*100, "speedup_%")
		})
	}
}

// BenchmarkAblationProfiling isolates the value of dependence profiling:
// the basic (static) vs best (profiled) compilations of mcf, whose hot
// loop only profiling can clear.
func BenchmarkAblationProfiling(b *testing.B) {
	base := compiled(b, "mcf", core.LevelBase)
	baseSim := simulateResult(b, base)
	for _, lvl := range []core.Level{core.LevelBasic, core.LevelBest} {
		b.Run(lvl.String(), func(b *testing.B) {
			res := compiled(b, "mcf", lvl)
			var speedup float64
			for i := 0; i < b.N; i++ {
				sim := simulateResult(b, res)
				speedup = baseSim.Cycles / sim.Cycles
			}
			b.ReportMetric((speedup-1)*100, "speedup_%")
		})
	}
}

// BenchmarkAblationUnroll compares compilation with and without loop
// unrolling (§7.1).
func BenchmarkAblationUnroll(b *testing.B) {
	src := benchprog.ByName("bzip2").Source
	base, err := core.CompileSource("bzip2", src, core.DefaultOptions(core.LevelBase))
	if err != nil {
		b.Fatal(err)
	}
	baseSim := simulateResult(b, base)
	for _, unroll := range []bool{true, false} {
		name := "unroll-on"
		if !unroll {
			name = "unroll-off"
		}
		b.Run(name, func(b *testing.B) {
			opt := core.DefaultOptions(core.LevelBest)
			if !unroll {
				opt.Unroll.MaxFactor = 1
			}
			res, err := core.CompileSource("bzip2", src, opt)
			if err != nil {
				b.Fatal(err)
			}
			var speedup float64
			for i := 0; i < b.N; i++ {
				sim := simulateResult(b, res)
				speedup = baseSim.Cycles / sim.Cycles
			}
			b.ReportMetric((speedup-1)*100, "speedup_%")
		})
	}
}

// ---- Compiler and simulator micro-benchmarks ----

func BenchmarkCompileBest(b *testing.B) {
	src := benchprog.ByName("gap").Source
	for i := 0; i < b.N; i++ {
		if _, err := core.CompileSource("gap", src, core.DefaultOptions(core.LevelBest)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	res := compiled(b, "gap", core.LevelBase)
	var ops int64
	for i := 0; i < b.N; i++ {
		sim := simulateResult(b, res)
		ops = sim.Ops
	}
	b.ReportMetric(float64(ops), "sim_instructions")
}

func BenchmarkInterpreterThroughput(b *testing.B) {
	res := compiled(b, "gap", core.LevelBase)
	for i := 0; i < b.N; i++ {
		m := interp.New(res.Prog, io.Discard)
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionSearch(b *testing.B) {
	g, m := searchLoopGraph(b)
	opt := partition.DefaultOptions()
	var nodes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := partition.Search(g, m, opt)
		nodes = r.SearchNodes
	}
	b.ReportMetric(float64(nodes), "search_nodes")
}

// wideFanSource builds a loop with n independent accumulator
// recurrences: every subset of the accumulators' violation candidates is
// legal and downward-closed, so the unpruned subset tree is exponential
// in n and the lower bound prunes little — the adversarial worst case for
// the branch-and-bound and the workload where parallel subtree
// exploration pays off most. The loop has n+2 violation candidates: the
// accumulators, the induction variable and the array store.
func wideFanSource(n int) string {
	var b strings.Builder
	b.WriteString("var a int[64];\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "var s%d int;\n", k)
	}
	b.WriteString("func main() {\n\tvar i int;\n\tfor (i = 0; i < 200; i++) {\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "\t\ts%d = (s%d + a[(i + %d) & 63] + %d) & 1048575;\n", k, k, k, k+1)
	}
	b.WriteString("\t\ta[(i * 7) & 63] = i;\n\t}\n\tprint(")
	for k := 0; k < n; k++ {
		if k > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "s%d", k)
	}
	b.WriteString(");\n}\n")
	return b.String()
}

// BenchmarkPartitionSearchParallel measures the parallel branch-and-bound
// on wideFanSource(22) at increasing worker counts, against the classic
// serial search. That loop has 24 violation candidates. The size prune
// (limit 91 of a 304-op body) cuts the serial walk to 390 656 nodes,
// and the bound prune cuts none of them; with the bound prune alone the
// walk runs into the default node budget (DefaultOptions().MaxSearchNodes,
// 2^20 nodes). The partition returned is byte-identical in every
// sub-benchmark; search_nodes is reported so node accounting across
// worker counts can be compared (under the default node budget the
// frozen-incumbent mode keeps it worker-count-invariant).
// Wall-clock scaling requires GOMAXPROCS > 1; on a single-core runner all
// sub-benchmarks measure the same work plus coordination overhead.
func BenchmarkPartitionSearchParallel(b *testing.B) {
	g, m := loopGraphFromSource(b, wideFanSource(22))
	cases := []struct {
		name    string
		workers int
	}{
		{"serial", 0}, {"w1", 1}, {"w2", 2}, {"w4", 4}, {"w8", 8},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			opt := partition.DefaultOptions()
			opt.Workers = c.workers
			var nodes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := partition.Search(g, m, opt)
				nodes = r.SearchNodes
			}
			b.ReportMetric(float64(nodes), "search_nodes")
		})
	}
}

// BenchmarkProfile measures the §7 profiling run alone — edge,
// dependence and value profiling in one interpreted execution — on mcf's
// anticipated-level program, the suite's most expensive profile. Run it
// with -benchmem: the allocations are the profiler's tables.
func BenchmarkProfile(b *testing.B) {
	prog := compiled(b, "mcf", core.LevelAnticipated).Prog
	nests := make(map[*ir.Func]*ssa.LoopNest, len(prog.Funcs))
	for _, f := range prog.Funcs {
		nests[f] = ssa.FindLoops(f, ssa.BuildDomTree(f))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.Run(context.Background(), prog, nests, io.Discard, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures end-to-end compilation (parse → sem → IR →
// profile → pass 1 → selection → transform → cleanup) of the full
// benchmark suite at the best level, with the classic serial pass 1 and
// with the parallel pass 1 at 8 workers.
func BenchmarkCompile(b *testing.B) {
	for _, c := range []struct {
		name    string
		workers int
	}{
		{"serial", 0}, {"w8", 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, bench := range benchprog.Suite() {
					opt := core.DefaultOptions(core.LevelBest)
					opt.SearchWorkers = c.workers
					if _, err := core.CompileSource(bench.Name, bench.Source, opt); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCostPropagation measures the §4.2.3 probability-propagation
// kernel in the access pattern the partition search produces: repeated
// from-scratch evaluations of partitions that grow by one violation
// candidate's closure at a time.
func BenchmarkCostPropagation(b *testing.B) {
	g, m := searchLoopGraph(b)
	cur := map[*ir.Stmt]bool{}
	partitions := []map[*ir.Stmt]bool{{}}
	for _, vc := range g.VCs {
		cl := partition.ComputeClosure(g, vc)
		for s := range cl.Move {
			cur[s] = true
		}
		next := make(map[*ir.Stmt]bool, len(cur))
		for s := range cur {
			next[s] = true
		}
		partitions = append(partitions, next)
	}
	b.ResetTimer()
	var c float64
	for i := 0; i < b.N; i++ {
		c = m.Evaluate(partitions[i%len(partitions)])
	}
	_ = c
}

// BenchmarkSimulate measures the SPT machine simulator end to end on a
// speculation-heavy compilation (forks, speculative legs, violation
// checks, re-execution accounting all active).
func BenchmarkSimulate(b *testing.B) {
	res := compiled(b, "gap", core.LevelBest)
	var ops int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := simulateResult(b, res)
		ops = sim.Ops
	}
	b.ReportMetric(float64(ops), "sim_instructions")
}

// BenchmarkRunBatch measures the batched entry point over the whole
// benchmark suite at the best level: one RunBatch call simulates every
// program on worker-owned pooled engines. The w1/wmax pair separates
// single-stream engine speed from the scheduler's scaling; lowered
// programs are cached across iterations, as in a sweep.
func BenchmarkRunBatch(b *testing.B) {
	var jobs []machine.BatchJob
	for _, bench := range benchprog.Suite() {
		res := compiled(b, bench.Name, core.LevelBest)
		opt := sptc.SimulationOptions(res)
		opt.Out = io.Discard
		jobs = append(jobs, machine.BatchJob{Prog: res.Prog, Config: machine.DefaultConfig(), Opt: opt})
	}
	for _, c := range []struct {
		name    string
		workers int
	}{
		{"w1", 1}, {"wmax", 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			var ops int64
			for i := 0; i < b.N; i++ {
				ops = 0
				for _, r := range machine.RunBatch(jobs, machine.BatchOptions{Workers: c.workers}) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
					ops += r.Res.Ops
				}
			}
			b.ReportMetric(float64(ops), "sim_instructions")
		})
	}
}

// incrWideSource builds a program of `loops` independent loops, each a
// wide fan of n accumulator recurrences (every subset of its n violation
// candidates is legal, so each loop costs ~2^n search nodes): compile
// time is dominated by the partition searches, the work incremental
// recompilation can skip. salt perturbs the first loop's constants only,
// for the one-dirty-loop case.
func incrWideSource(loops, n, salt int) string {
	var sb strings.Builder
	sb.WriteString("var a int[64];\n")
	for l := 0; l < loops; l++ {
		for k := 0; k < n; k++ {
			fmt.Fprintf(&sb, "var s%dx%d int;\n", l, k)
		}
	}
	sb.WriteString("func main() {\n")
	for l := 0; l < loops; l++ {
		c := l*7 + 1
		if l == 0 {
			c += salt
		}
		fmt.Fprintf(&sb, "\tvar i%d int;\n\tfor (i%d = 0; i%d < 150; i%d++) {\n", l, l, l, l)
		for k := 0; k < n; k++ {
			fmt.Fprintf(&sb, "\t\ts%dx%d = (s%dx%d + a[(i%d + %d) & 63] + %d) & 1048575;\n", l, k, l, k, l, k, c+k)
		}
		fmt.Fprintf(&sb, "\t\ta[(i%d * 7) & 63] = i%d;\n\t}\n", l, l)
	}
	sb.WriteString("\tprint(")
	for l := 0; l < loops; l++ {
		for k := 0; k < n; k++ {
			if l+k > 0 {
				sb.WriteString(" + ")
			}
			fmt.Fprintf(&sb, "s%dx%d", l, k)
		}
	}
	sb.WriteString(");\n}\n")
	return sb.String()
}

// BenchmarkCompileIncremental measures what a loop-result store saves on
// the search-dominated incrWideSource program: `cold` compiles with no
// store, `warm` recompiles an unchanged program against a populated
// store (every loop a hit, pass 1 skips all searches), and
// `one-dirty-loop` recompiles after an edit to one loop (that loop
// searches cold, the rest splice from the store; the store is rebuilt
// off-clock each iteration so the dirty loop never becomes a hit).
// Compiled at the basic level: at best+, profile-driven dependence
// pruning collapses the scalar fan to one violation candidate and the
// search is no longer the dominant phase being skipped.
func BenchmarkCompileIncremental(b *testing.B) {
	const loops, fan = 3, 16
	src := incrWideSource(loops, fan, 0)
	edited := incrWideSource(loops, fan, 100)
	compile := func(src string, store *incr.Store) *core.Result {
		opt := core.DefaultOptions(core.LevelBasic)
		opt.Incr = store
		res, err := core.CompileSource("incrbench.spl", src, opt)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compile(src, nil)
		}
	})
	b.Run("warm", func(b *testing.B) {
		store := incr.New()
		compile(src, store)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			compile(src, store)
		}
	})
	b.Run("one-dirty-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			store := incr.New()
			compile(src, store)
			b.StartTimer()
			compile(edited, store)
		}
	})
}

func BenchmarkCostModelEvaluate(b *testing.B) {
	g, m := ablationLoopGraph(b)
	pre := map[*ir.Stmt]bool{}
	if len(g.VCs) > 0 {
		cl := partition.ComputeClosure(g, g.VCs[0])
		pre = cl.Move
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Evaluate(pre)
	}
}

// ---- helpers ----

func simulateResult(b *testing.B, res *core.Result) *machine.Result {
	b.Helper()
	sim, err := sptc.SimulateWith(res, machine.DefaultConfig(), io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// ablationLoopGraph builds a dependence graph + cost model for a loop
// with several violation candidates, for search benchmarks.
func ablationLoopGraph(b *testing.B) (*depgraph.Graph, *cost.Model) {
	b.Helper()
	return loopGraphFromSource(b, `
var a int[512];
var s1 int;
var s2 int;
var s3 int;
func main() {
	var i int = 0;
	var r int = 7;
	while (i < 512) {
		var x int = a[i & 511] * 3 + (a[i & 511] >> 2);
		r = (r + x) & 1023;
		s1 = s1 + (x & 15);
		s2 = s2 + (r & 7);
		if (x % 19 == 0) {
			s3 = s3 + 1;
		}
		i = i + 1;
	}
	print(s1, s2, s3, r);
}
`)
}

// searchLoopGraph builds a much larger workload for the partition-search
// and cost-propagation benchmarks: many violation candidates with small
// independent closures plus a few chained ones, and enough filler
// computation that the 30% pre-fork size threshold admits deep subsets.
// The branch-and-bound search visits thousands of nodes here.
func searchLoopGraph(b *testing.B) (*depgraph.Graph, *cost.Model) {
	b.Helper()
	return loopGraphFromSource(b, `
var a int[512];
var s1 int; var s2 int; var s3 int; var s4 int;
var s5 int; var s6 int; var s7 int; var s8 int;
var s9 int; var s10 int; var s11 int; var s12 int;
func main() {
	var i int = 0;
	while (i < 512) {
		var x int = a[i & 511] * 3 + (a[i & 511] >> 2);
		var f1 int = (x * 17 + i * 29) & 4095;
		var f2 int = (f1 * 13 + x * 7) & 4095;
		var f3 int = (f2 * 11 + f1 * 5) & 4095;
		var f4 int = (f3 * 23 + f2 * 3) & 4095;
		var f5 int = (f4 * 31 + f3 * 19) & 4095;
		var f6 int = (f5 * 37 + f4 * 41) & 4095;
		var f7 int = (f6 * 43 + f5 * 47) & 4095;
		var f8 int = (f7 * 53 + f6 * 59) & 4095;
		a[(i * 7 + 3) & 511] = f8 & 255;
		s1 = s1 + (i & 15);
		s2 = s2 + (i & 7);
		s3 = s3 + (i & 3);
		s4 = s4 + (i & 31);
		s5 = s5 + (i & 63);
		s6 = s6 + (i & 1);
		s7 = s7 + (s1 & 7);
		s8 = s8 + (s2 & 3);
		s9 = s9 + (i & 127);
		s10 = s10 + (i & 255);
		s11 = s11 + (s4 & 15);
		s12 = s12 + (x & 7);
		i = i + 1;
	}
	print(s1 + s2 + s3 + s4 + s5 + s6, s7 + s8 + s9 + s10 + s11 + s12, a[3]);
}
`)
}

func loopGraphFromSource(b *testing.B, src string) (*depgraph.Graph, *cost.Model) {
	b.Helper()
	p, err := parser.Parse("abl.spl", src)
	if err != nil {
		b.Fatal(err)
	}
	info, err := sem.Check(p)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ir.Build(info)
	if err != nil {
		b.Fatal(err)
	}
	an := make(map[*ir.Func]*depgraph.Analysis)
	nests := make(map[*ir.Func]*ssa.LoopNest)
	for _, f := range prog.Funcs {
		ssa.Repair(f)
		an[f] = depgraph.Analyze(f)
		nests[f] = an[f].Loops
	}
	prof, err := profile.Run(context.Background(), prog, nests, io.Discard, 0)
	if err != nil {
		b.Fatal(err)
	}
	prof.Edge.Apply(prog)

	f := prog.Main
	l := nests[f].Loops[0]
	g := depgraph.Build(l, depgraph.Config{
		UseProfile: true,
		Dep:        prof.Dep,
		Effects:    depgraph.ComputeEffects(prog),
		Analysis:   an[f],
	})
	if g == nil {
		b.Fatal("nil graph")
	}
	return g, cost.Build(g)
}
