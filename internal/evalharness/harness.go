// Package evalharness reproduces the paper's evaluation (§8): it compiles
// the benchmark suite at the paper's three compilation levels, runs the
// generated code on the SPT machine simulator, and regenerates every
// table and figure: Table 1 (base IPC), Figure 14 (speedups), Figure 15
// (loop disposition breakdown), Figure 16 (runtime coverage and SPT loop
// counts), Figure 17 (loop body and partition shapes), Figure 18
// (misspeculation ratio and loop speedup), and Figure 19 (estimated cost
// vs measured re-execution ratio).
package evalharness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sptc/internal/benchprog"
	"sptc/internal/core"
	"sptc/internal/machine"
	"sptc/internal/profile"
	"sptc/internal/service"
	"sptc/internal/trace"
)

// LevelRun is one benchmark compiled and simulated at one level.
type LevelRun struct {
	Level core.Level
	// Compile and Sim are the job's service response as the client
	// decoded it: loop reports, SPT count and degradation events, and
	// the simulation statistics.
	Compile  *service.CompileResponse
	Sim      *machine.Result
	Output   string
	Speedup  float64 // base cycles / this level's cycles
	Coverage float64 // fraction of cycles inside SPT loops
	Metrics  Metrics // per-job cost of this compile+simulate

	// Status is the job's fail-soft disposition. On StatusTimeout or
	// StatusPanic the job produced no results (Compile and Sim are nil)
	// and Err holds the failure; on StatusDegraded the results are
	// complete but Compile.Degraded is set.
	Status  Status
	Err     error
	Retried bool // the job timed out once and was retried
}

// BenchmarkRun holds everything measured for one benchmark.
type BenchmarkRun struct {
	Name string

	Base        *machine.Result
	BaseOutput  string
	BaseIPC     float64
	BaseMetrics Metrics // per-job cost of the base compile+simulate

	// MaxCoverage is the fraction of base cycles spent in any loop with
	// body size at most the SPT hardware limit (Figure 16's upper bar).
	MaxCoverage float64

	// BaseStatus is the base job's fail-soft disposition; on timeout or
	// panic Base is nil and BaseErr holds the failure.
	BaseStatus Status
	BaseErr    error

	Levels map[core.Level]*LevelRun
}

// SuiteResult is the full evaluation.
type SuiteResult struct {
	Runs   []*BenchmarkRun
	Config machine.Config
	Levels []core.Level
}

// Options configures an evaluation run.
type Options struct {
	Machine machine.Config
	Levels  []core.Level
	// Benchmarks restricts the suite (nil = all ten).
	Benchmarks []string
	// MaxLoopBody is the SPT hardware size limit used for the maximum
	// coverage measurement (paper: 1000).
	MaxLoopBody int
	// Log receives progress lines (nil = silent). Lines are prefixed with
	// the benchmark name, so interleaving under concurrency stays legible.
	Log io.Writer
	// Workers bounds the number of concurrent compile+simulate jobs
	// (<= 0 means runtime.NumCPU()). The results are independent of the
	// worker count: jobs are collected in suite order.
	Workers int
	// Trace, when non-nil and enabled, receives one track per
	// compile+simulate job ("name/base", "name/<level>"), created in
	// suite order before the workers start so track IDs are deterministic
	// and no two jobs ever share a span buffer. A job executed in-process
	// records its span tree there; a daemon records on its own tracer.
	// When nil, the harness records on a private tracer: the per-job
	// Metrics are always span-derived.
	Trace *trace.Tracer
	// Timeout bounds each compile+simulate job's wall clock. A job that
	// exceeds it is retried once, then marked StatusTimeout; the rest of
	// the suite still completes. 0 disables the per-job timeout.
	Timeout time.Duration
	// SearchBudget caps the partition search at this many nodes per loop
	// candidate (the anytime search keeps the best partition found;
	// affected jobs are marked StatusDegraded). <= 0 leaves the search
	// unbounded.
	SearchBudget int
	// Context cancels the whole suite (a hard abort, unlike the per-job
	// Timeout). Nil means context.Background().
	Context context.Context
	// Client executes every compile+simulate job as one Simulate request
	// (nil = in-process service.Local). Figures are extracted from the
	// responses, so they cannot tell where a job ran.
	//
	// The in-process Local that executes a job (the Client itself, or a
	// *service.Failover's fallback) is bound to that job: its trace
	// track, the worker's pooled engine, the job context and the
	// suite's profile memo. Its Env.Incr (a loop-result store shared by
	// every level compile) and Env.SearchWorkers (parallel pass 1,
	// result-invariant) stay as the caller set them. A *service.Remote
	// is bound to the job context, so the per-job Timeout cancels the
	// HTTP request itself.
	Client service.Client
}

// DefaultEvalOptions returns the paper's evaluation setup.
func DefaultEvalOptions() Options {
	return Options{
		Machine:     machine.DefaultConfig(),
		Levels:      []core.Level{core.LevelBasic, core.LevelBest, core.LevelAnticipated},
		MaxLoopBody: 1000,
	}
}

// RunSuite evaluates the benchmark suite. The independent
// (benchmark x level) compile+simulate jobs fan out over a bounded
// worker pool (Options.Workers); results are collected in suite order,
// so the outcome is identical to a serial run.
func RunSuite(opt Options) (*SuiteResult, error) {
	if len(opt.Levels) == 0 {
		opt.Levels = []core.Level{core.LevelBasic, core.LevelBest, core.LevelAnticipated}
	}
	if err := validateLevels(opt.Levels); err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	var benches []benchprog.Benchmark
	if len(opt.Benchmarks) == 0 {
		benches = benchprog.Suite()
	} else {
		for _, n := range opt.Benchmarks {
			b := benchprog.ByName(n)
			if b == nil {
				return nil, fmt.Errorf("evalharness: unknown benchmark %q (valid: %s)",
					n, strings.Join(benchprog.Names(), ", "))
			}
			benches = append(benches, *b)
		}
	}

	suite := &SuiteResult{Config: opt.Machine, Levels: opt.Levels}
	suite.Runs = make([]*BenchmarkRun, len(benches))
	for i, b := range benches {
		suite.Runs[i] = &BenchmarkRun{Name: b.Name, Levels: make(map[core.Level]*LevelRun, len(opt.Levels))}
	}

	// One job per (benchmark, level) plus a base job per benchmark. Level
	// jobs share the base compile+simulate through the per-benchmark
	// baseRun memo, so nothing recompiles the base program.
	type job struct {
		benchIdx int
		levelIdx int // -1: the base job
	}
	var jobs []job
	for i := range benches {
		jobs = append(jobs, job{i, -1})
		for li := range opt.Levels {
			jobs = append(jobs, job{i, li})
		}
	}

	r := &runner{
		opt:    opt,
		client: opt.Client,
		// Level compiles of one program often profile identical IR (basic
		// and best do whenever SVP is applied after the first profile).
		memo:   profile.NewMemo(),
		logger: &safeLogger{w: opt.Log},
	}
	if r.client == nil {
		r.client = &service.Local{}
	}

	// Every job gets its own trace track, allocated here in suite order —
	// before the worker pool starts — so track IDs are independent of the
	// worker count and concurrent jobs never interleave span buffers.
	tr := opt.Trace
	if tr == nil {
		tr = trace.New()
	}
	bases := make([]*baseRun, len(benches))
	levelTracks := make([][]*trace.Track, len(benches))
	for i, b := range benches {
		bases[i] = &baseRun{track: tr.StartTrack(b.Name + "/base")}
		levelTracks[i] = make([]*trace.Track, len(opt.Levels))
		for li, lvl := range opt.Levels {
			levelTracks[i][li] = tr.StartTrack(b.Name + "/" + lvl.String())
		}
	}
	levelRuns := make([][]*LevelRun, len(benches))
	for i := range levelRuns {
		levelRuns[i] = make([]*LevelRun, len(opt.Levels))
	}
	errs := make([]error, len(jobs))

	var failed atomic.Bool
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one simulation engine, so the expensive
			// per-run machine state (memory image, cache and predictor
			// tables, frame pools) is pooled across the jobs it executes.
			eng := machine.NewEngine()
			for ji := range ch {
				if failed.Load() {
					continue
				}
				j := jobs[ji]
				b := benches[j.benchIdx]
				var err error
				if j.levelIdx < 0 {
					err = r.runBase(b, eng, bases[j.benchIdx], suite.Runs[j.benchIdx])
				} else {
					lvl := opt.Levels[j.levelIdx]
					tk := levelTracks[j.benchIdx][j.levelIdx]
					levelRuns[j.benchIdx][j.levelIdx], err = r.runLevel(b, lvl, eng, bases[j.benchIdx], tk)
				}
				if err != nil {
					errs[ji] = fmt.Errorf("%s: %w", b.Name, err)
					failed.Store(true)
				}
			}
		}()
	}
	for ji := range jobs {
		ch <- ji
	}
	close(ch)
	wg.Wait()

	// Jobs are enqueued in suite order, so the first recorded error is
	// the earliest one in that order among the jobs that ran.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for i := range benches {
		for li, lvl := range opt.Levels {
			suite.Runs[i].Levels[lvl] = levelRuns[i][li]
		}
	}
	return suite, nil
}

// validateLevels rejects level lists that would collide in the per-run
// Levels map: duplicates, and LevelBase (the base run is implicit).
func validateLevels(levels []core.Level) error {
	seen := make(map[core.Level]bool, len(levels))
	for _, l := range levels {
		if l == core.LevelBase {
			return fmt.Errorf("evalharness: Options.Levels must not include %s: the base run is implicit and would collide in the Levels map", core.LevelBase)
		}
		if seen[l] {
			return fmt.Errorf("evalharness: duplicate level %s in Options.Levels", l)
		}
		seen[l] = true
	}
	return nil
}

// runner is what every job of one suite shares.
type runner struct {
	opt    Options
	client service.Client // Options.Client, or an in-process service.Local
	memo   *profile.Memo
	logger *safeLogger
}

// simulate issues one job's request through the suite's client bound to
// the job (see Options.Client), on the machine the suite evaluates.
func (r *runner) simulate(ctx context.Context, tk *trace.Track, eng *machine.Engine, req *service.SimulateRequest) (*service.SimulateResponse, error) {
	req.Machine = &r.opt.Machine
	local := func(l *service.Local) *service.Local {
		lc := *l
		lc.Env.Track, lc.Env.Eng, lc.Env.Context, lc.Env.ProfileMemo = tk, eng, ctx, r.memo
		return &lc
	}
	c := r.client
	switch cl := c.(type) {
	case *service.Local:
		c = local(cl)
	case *service.Remote:
		rc := *cl
		rc.Context = ctx
		c = &rc
	case *service.Failover:
		c = cl.ForJob(ctx, local(cl.Local))
	}
	return c.Simulate(req)
}

// baseRun memoizes one benchmark's base compile+simulate so the base job
// and every level job of that benchmark share a single computation. The
// work always records on the dedicated base track — whichever job wins
// the once — so the base span tree never lands on a level job's track
// (sync.Once gives the single writer the necessary happens-before).
type baseRun struct {
	once    sync.Once
	track   *trace.Track
	sim     *machine.Result
	out     string
	maxCov  float64 // Figure 16 maximum coverage
	metrics Metrics
	status  Status
	retried bool
	err     error
}

// healthy reports whether the base reference data is usable: an OK run,
// or a fallback run (in-process execution after the daemon vanished —
// exact results, flagged disposition).
func (br *baseRun) healthy() bool {
	return br.status == StatusOK || br.status == StatusFallback
}

func (r *runner) base(b benchprog.Benchmark, eng *machine.Engine, br *baseRun) error {
	br.once.Do(func() {
		err := runJob(r.opt, &br.retried, func(ctx context.Context) error {
			// Figure 16's maximum coverage is measured on this run: loop
			// attribution observes the simulation without changing it.
			resp, err := r.simulate(ctx, br.track, eng, &service.SimulateRequest{
				Name:            b.Name,
				Source:          b.Source,
				Level:           core.LevelBase.String(),
				CoverageMaxBody: r.opt.MaxLoopBody,
			})
			if err != nil {
				return fmt.Errorf("base compile+simulate: %w", err)
			}
			br.sim = resp.Sim
			br.out = resp.Output
			br.maxCov = resp.MaxCoverage
			br.metrics = metricsFromCounters(resp.Compile.Counters, resp.Meta)
			if resp.Meta.Fallback {
				br.status = StatusFallback
			}
			r.logger.logf("[%s] base: %.0f cycles, IPC %.2f (compile %s, simulate %s, cache %s, status %s)",
				b.Name, br.sim.Cycles, br.sim.IPC(), fmtDur(resp.Meta.Compile), fmtDur(resp.Meta.Simulate), dispOrNone(resp.Meta.Cache), br.status)
			return nil
		})
		if err != nil {
			if st, soft := softStatus(err); soft {
				br.status, br.err = st, err
				br.sim, br.out = nil, ""
				r.logger.logf("[%s] base: %s (%v)", b.Name, st, err)
				return
			}
			br.err = err
		}
	})
	return br.err
}

// runBase fills a benchmark's base reference fields, including the
// Figure 16 maximum coverage the base simulation measured.
func (r *runner) runBase(b benchprog.Benchmark, eng *machine.Engine, br *baseRun, run *BenchmarkRun) error {
	err := r.base(b, eng, br)
	run.BaseStatus = br.status
	run.BaseErr = br.err
	if !br.healthy() {
		// Soft failure: the base job is marked; the suite continues.
		return nil
	}
	if err != nil {
		return err
	}
	run.Base = br.sim
	run.BaseOutput = br.out
	run.BaseIPC = br.sim.IPC()
	run.BaseMetrics = br.metrics
	run.MaxCoverage = br.maxCov
	return nil
}

// runLevel compiles and simulates one benchmark at one level, recording
// the job's span tree on its dedicated track. Panics and per-job
// timeouts mark the returned LevelRun instead of failing the suite.
func (r *runner) runLevel(b benchprog.Benchmark, level core.Level, eng *machine.Engine, br *baseRun, tk *trace.Track) (*LevelRun, error) {
	if err := r.base(b, eng, br); err != nil && br.status == StatusOK {
		return nil, err
	}
	lr := &LevelRun{Level: level}
	err := runJob(r.opt, &lr.Retried, func(ctx context.Context) error {
		resp, err := r.simulate(ctx, tk, eng, &service.SimulateRequest{
			Name:    b.Name,
			Source:  b.Source,
			Level:   level.String(),
			Options: service.ReqOptions{SearchBudget: max(r.opt.SearchBudget, 0)},
		})
		if err != nil {
			return fmt.Errorf("%s compile+simulate: %w", level, err)
		}
		sim := resp.Sim
		// The transformed program must print exactly what the base
		// printed. Divergence is a correctness failure, never soft. The
		// check is skipped only when the base job itself failed soft.
		if br.healthy() && resp.Output != br.out {
			return fmt.Errorf("%s output diverged from base", level)
		}
		lr.Compile, lr.Sim, lr.Output = resp.Compile, sim, resp.Output
		if br.sim != nil {
			lr.Speedup = ratio(br.sim.Cycles, sim.Cycles)
		}
		var inLoops float64
		for _, ls := range sim.Loops {
			inLoops += ls.Elapsed
		}
		lr.Coverage = ratio(inLoops, sim.Cycles)
		lr.Metrics = metricsFromCounters(resp.Compile.Counters, resp.Meta)
		switch {
		case resp.Compile.Degraded:
			lr.Status = StatusDegraded
		case resp.Meta.Fallback:
			lr.Status = StatusFallback
		}
		return nil
	})
	if err != nil {
		st, soft := softStatus(err)
		if !soft {
			return nil, err
		}
		lr.Status, lr.Err = st, err
		lr.Compile, lr.Sim = nil, nil
		r.logger.logf("[%s] %s: %s (%v)", b.Name, level, st, err)
		return lr, nil
	}
	r.logger.logf("[%s] %s: %.0f cycles, speedup %.3f, %d SPT loops, coverage %.2f, status %s (compile %s, simulate %s, %d search nodes)",
		b.Name, level, lr.Sim.Cycles, lr.Speedup, lr.Compile.SPTCount, lr.Coverage, lr.Status,
		fmtDur(lr.Metrics.Compile), fmtDur(lr.Metrics.Simulate), lr.Metrics.SearchNodes)
	return lr, nil
}

func dispOrNone(disp string) string {
	if disp == "" {
		return "none"
	}
	return disp
}

// ratio guards the evaluation's many cycle and op ratios against
// degenerate zero denominators (a loop that never speculates, an empty
// simulation): the figures treat those as 0, never NaN or Inf.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// safeLogger serializes progress lines from concurrent jobs.
type safeLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *safeLogger) logf(format string, args ...any) {
	if l.w == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, format+"\n", args...)
}

func fmtDur(d time.Duration) string {
	if d < time.Millisecond {
		return d.Round(time.Microsecond).String()
	}
	return d.Round(time.Millisecond).String()
}

// ---- Figure data extraction ----

// Table1Row is one row of Table 1.
type Table1Row struct {
	Program string
	IPC     float64
}

// Table1 returns base IPC per benchmark.
func (s *SuiteResult) Table1() []Table1Row {
	var rows []Table1Row
	for _, r := range s.Runs {
		rows = append(rows, Table1Row{r.Name, r.BaseIPC})
	}
	return rows
}

// Fig14Row is one benchmark's speedups by level.
type Fig14Row struct {
	Program  string
	Speedups map[core.Level]float64
}

// Fig14 returns per-benchmark speedups plus the geometric-mean-free
// arithmetic average row the paper reports.
func (s *SuiteResult) Fig14() ([]Fig14Row, map[core.Level]float64) {
	var rows []Fig14Row
	avg := make(map[core.Level]float64)
	for _, r := range s.Runs {
		row := Fig14Row{Program: r.Name, Speedups: make(map[core.Level]float64)}
		for lvl, lr := range r.Levels {
			row.Speedups[lvl] = lr.Speedup
			avg[lvl] += lr.Speedup
		}
		rows = append(rows, row)
	}
	for lvl := range avg {
		avg[lvl] /= float64(len(s.Runs))
	}
	return rows, avg
}

// Fig15Breakdown aggregates loop dispositions at one level.
type Fig15Breakdown struct {
	Total  int
	Counts map[core.Decision]int
}

// Fig15 returns the loop-disposition breakdown (the paper reports it for
// the best compilation).
func (s *SuiteResult) Fig15(level core.Level) Fig15Breakdown {
	out := Fig15Breakdown{Counts: make(map[core.Decision]int)}
	for _, r := range s.Runs {
		lr := r.Levels[level]
		if lr == nil || lr.Compile == nil {
			continue
		}
		for _, rep := range lr.Compile.Reports {
			out.Total++
			out.Counts[rep.Decision]++
		}
	}
	return out
}

// Fig16Row is one benchmark's coverage numbers.
type Fig16Row struct {
	Program     string
	SPTLoops    int
	Coverage    float64
	MaxCoverage float64
}

// Fig16 returns runtime coverage of SPT loops vs the maximum loop
// coverage under the size limit.
func (s *SuiteResult) Fig16(level core.Level) []Fig16Row {
	var rows []Fig16Row
	for _, r := range s.Runs {
		lr := r.Levels[level]
		if lr == nil || lr.Compile == nil {
			continue
		}
		rows = append(rows, Fig16Row{
			Program:     r.Name,
			SPTLoops:    lr.Compile.SPTCount,
			Coverage:    lr.Coverage,
			MaxCoverage: r.MaxCoverage,
		})
	}
	return rows
}

// sptReports returns the reports of the transformed loops in SPT loop
// ID order, the order the figures sum them in.
func sptReports(c *service.CompileResponse) []*service.LoopReport {
	var reps []*service.LoopReport
	for i := range c.Reports {
		if c.Reports[i].Transformed {
			reps = append(reps, &c.Reports[i])
		}
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].SPTLoopID < reps[j].SPTLoopID })
	return reps
}

// Fig17Row characterizes the selected SPT loops of one benchmark.
type Fig17Row struct {
	Program         string
	AvgBodyOps      float64 // dynamic instructions per iteration
	AvgPreForkShare float64 // pre-fork size / body size (static)
	AvgStaticBody   float64
	SelectedLoops   int
}

// Fig17 returns loop-body and partition shape statistics.
func (s *SuiteResult) Fig17(level core.Level) []Fig17Row {
	var rows []Fig17Row
	for _, r := range s.Runs {
		lr := r.Levels[level]
		if lr == nil || lr.Compile == nil || lr.Sim == nil {
			continue
		}
		row := Fig17Row{Program: r.Name}
		var bodySum, preSum, staticSum float64
		n := 0
		for _, rep := range sptReports(lr.Compile) {
			ls := lr.Sim.Loops[rep.SPTLoopID]
			if ls != nil && ls.SpecIters > 0 {
				bodySum += float64(ls.SpecOps) / float64(ls.SpecIters)
			} else {
				bodySum += float64(rep.BodySize)
			}
			if rep.BodySize > 0 {
				preSum += float64(rep.PreForkSize) / float64(rep.BodySize)
			}
			staticSum += float64(rep.BodySize)
			n++
		}
		if n > 0 {
			row.AvgBodyOps = bodySum / float64(n)
			row.AvgPreForkShare = preSum / float64(n)
			row.AvgStaticBody = staticSum / float64(n)
			row.SelectedLoops = n
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig18Row is one benchmark's SPT loop performance.
type Fig18Row struct {
	Program      string
	MisspecRatio float64 // re-executed ops / speculative ops
	LoopSpeedup  float64 // sequential work cycles / SPT elapsed cycles
}

// Fig18 returns misspeculation ratios and loop-local speedups.
func (s *SuiteResult) Fig18(level core.Level) []Fig18Row {
	var rows []Fig18Row
	for _, r := range s.Runs {
		lr := r.Levels[level]
		if lr == nil || lr.Sim == nil {
			continue
		}
		var specOps, reexecOps int64
		var seq, elapsed float64
		for _, ls := range lr.Sim.Loops {
			specOps += ls.SpecOps
			reexecOps += ls.ReexecOps
			seq += ls.SeqCycles
			elapsed += ls.Elapsed
		}
		row := Fig18Row{Program: r.Name}
		if specOps > 0 {
			row.MisspecRatio = float64(reexecOps) / float64(specOps)
		}
		if elapsed > 0 {
			row.LoopSpeedup = seq / elapsed
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig19Point is one SPT loop: compiler-estimated cost vs measured
// re-execution ratio.
type Fig19Point struct {
	Program   string
	LoopID    int
	EstCost   float64 // misspeculation cost / body size (normalized)
	Measured  float64 // re-execution ratio
	HasCalls  bool    // loops whose bodies call functions (the paper's outliers)
	SpecIters int64
}

// Fig19 returns the scatter of estimated vs actual misspeculation.
func (s *SuiteResult) Fig19(level core.Level) []Fig19Point {
	var pts []Fig19Point
	for _, r := range s.Runs {
		lr := r.Levels[level]
		if lr == nil || lr.Compile == nil || lr.Sim == nil {
			continue
		}
		for _, rep := range sptReports(lr.Compile) {
			ls := lr.Sim.Loops[rep.SPTLoopID]
			if ls == nil || ls.SpecIters == 0 {
				continue
			}
			est := 0.0
			if rep.BodySize > 0 {
				est = rep.EstCost / float64(rep.BodySize)
			}
			pts = append(pts, Fig19Point{
				Program:   r.Name,
				LoopID:    rep.SPTLoopID,
				EstCost:   est,
				Measured:  ls.ReexecRatio(),
				HasCalls:  rep.HasCalls,
				SpecIters: ls.SpecIters,
			})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Program != pts[j].Program {
			return pts[i].Program < pts[j].Program
		}
		return pts[i].LoopID < pts[j].LoopID
	})
	return pts
}
