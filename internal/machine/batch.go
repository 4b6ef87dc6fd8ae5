package machine

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"sptc/internal/interp"
	"sptc/internal/ir"
)

// Engine is a reusable simulation context. It retains the expensive
// per-run machine state — simulated memory, the cache hierarchy and
// branch-predictor tables, frame pools, speculative fork buffers, the
// bytecode operand stack — across Run calls, so batches of independent
// simulations (suite x levels x machine configs) avoid reallocating and
// re-warming the allocator for every job. Results are bit-identical to
// a fresh Run: all retained state is reset (or generation-stamped as
// absent) between jobs.
//
// An Engine is not safe for concurrent use; RunBatch gives each worker
// its own.
type Engine struct {
	s       sim
	lastCfg Config
	has     bool
}

// NewEngine returns an empty engine. The zero value is also ready to use.
func NewEngine() *Engine { return &Engine{} }

// layoutMu serializes the first (writing) Program.Layout call a program
// sees from the simulator, so concurrent batch jobs over one program
// never race on address assignment (Layout skips redundant writes, so
// steady-state calls are read-only).
var layoutMu sync.Mutex

// Run simulates the program to completion on the bytecode engine,
// reusing the engine's pooled state. A program the engine cannot lower
// fails with a *LoweringError, and a LoopBlocks set that holds a
// returning block with a *LoopBlocksError.
func (e *Engine) Run(prog *ir.Program, cfg Config, opt RunOptions) (*Result, error) {
	if opt.Out == nil {
		opt.Out = io.Discard
	}
	sp := opt.Trace.Start("simulate")
	defer sp.End()
	if err := cfg.Validate(); err != nil {
		sp.Str("error", err.Error())
		return nil, err
	}
	if err := checkLoopBlocks(opt.LoopBlocks); err != nil {
		sp.Str("error", err.Error())
		return nil, err
	}
	if err := injectRun.Fire(opt.Context); err != nil {
		sp.Str("error", err.Error())
		return nil, err
	}
	if opt.Context != nil {
		if err := opt.Context.Err(); err != nil {
			sp.Str("error", err.Error())
			return nil, err
		}
	}

	layoutMu.Lock()
	size := prog.Layout()
	layoutMu.Unlock()

	// Lower before reset sizes the memory image: a program lowering
	// rejects would need an image beyond 2^31 words.
	low, err := lowerProgram(prog, cfg)
	if err != nil {
		sp.Str("error", err.Error())
		return nil, err
	}
	s := e.reset(prog, cfg, opt, size)
	for _, g := range prog.Globals {
		if !g.IsArray() {
			if g.Elem == ir.ValFloat {
				s.mem[g.Addr] = interp.FloatVal(g.InitF)
			} else {
				s.mem[g.Addr] = interp.IntVal(g.InitInt)
			}
		}
	}
	if prog.Main == nil {
		err := errors.New("machine: program has no main")
		sp.Str("error", err.Error())
		return nil, err
	}
	s.low = low
	if len(s.spt) > 0 {
		s.sptID = make(map[*ir.Func][]int32, len(low.fns))
		for f, lf := range low.fns {
			ids := make([]int32, len(lf.blocks))
			for i, b := range lf.blocks {
				if id, ok := s.spt[b]; ok {
					ids[i] = int32(id)
				} else {
					ids[i] = -1
				}
			}
			s.sptID[f] = ids
		}
	}
	if _, err := s.call(prog.Main, nil, 0); err != nil {
		sp.Str("error", err.Error())
		return nil, err
	}
	s.flushAttr()
	res := &Result{
		Cycles:        s.cycles,
		Ops:           s.ops,
		Loops:         s.loops,
		CyclesByLoop:  s.attrCyc,
		BranchLookups: s.bpM.lookups + s.bpS.lookups,
		BranchMisses:  s.bpM.misses + s.bpS.misses,
		MemAccesses:   s.hier.memAccess,
	}
	var forks, kills, specIters, misspecIters int64
	for _, ls := range res.Loops {
		forks += ls.Forks
		kills += ls.Kills
		specIters += ls.SpecIters
		misspecIters += ls.MisspecIters
	}
	sp.Int("sim_instructions", res.Ops).
		Float("cycles", res.Cycles).
		Int("forks", forks).
		Int("kills", kills).
		Int("spec_iters", specIters).
		Int("misspec_iters", misspecIters).
		Int("branch_misses", res.BranchMisses).
		Int("mem_accesses", res.MemAccesses)
	return res, nil
}

// reset prepares the pooled sim for one run: per-run fields come from
// the options, result maps are fresh (they escape into the Result), and
// the pooled buffers are reused when their shapes still fit.
func (e *Engine) reset(prog *ir.Program, cfg Config, opt RunOptions, memWords int) *sim {
	s := &e.s
	s.cfg = cfg
	s.prog = prog
	s.ctx = opt.Context
	s.out = opt.Out
	s.spt = opt.SPTHeaders
	s.loopBlocks = opt.LoopBlocks
	s.attr = opt.AttributeLoops
	s.loops = make(map[int]*LoopStats)
	s.attrCyc = make(map[int]float64)
	s.cycles, s.ops, s.steps, s.memCycles = 0, 0, 0, 0
	s.sptActive, s.undoActive = false, false
	s.spec = nil
	s.specBuf = specCtx{}
	s.forkIter, s.forkFrame = nil, nil
	s.forkC0, s.forkM0 = 0, 0
	s.attrStack = s.attrStack[:0]
	s.lastAttr = 0
	s.low = nil
	s.sptID = nil
	s.vstack = s.vstack[:0]
	s.argBuf = s.argBuf[:0]
	s.stopHdr, s.stopIn = nil, nil
	s.inLoopDense = nil

	if cap(s.mem) >= memWords {
		s.mem = s.mem[:memWords]
		clear(s.mem)
	} else {
		s.mem = make([]Value, memWords)
	}
	if e.has && e.lastCfg == cfg {
		s.hier.reset()
		s.bpM.reset()
		s.bpS.reset()
	} else {
		s.hier = newHierarchy(cfg)
		s.bpM = newPredictor(cfg.PredictorEntries)
		s.bpS = newPredictor(cfg.PredictorEntries)
		e.lastCfg = cfg
		e.has = true
	}
	// The frame pool is keyed by *ir.Func, so it carries over between
	// programs; bound it so a long-lived engine over many programs does
	// not grow without limit. Frame generation stamps make stale slots
	// read as absent, so reuse is semantics-free.
	if s.framePool == nil || len(s.framePool) > 1024 {
		s.framePool = make(map[*ir.Func]*framePoolEntry)
	}
	// Speculative memory-side buffers (undo log, write-set, taint) are
	// grown on demand by ensureSpecMem; their generation stamps carry
	// over, so a fresh stamp never collides with retained entries.
	return s
}

// BatchJob is one independent simulation in a RunBatch call.
type BatchJob struct {
	Prog   *ir.Program
	Config Config
	Opt    RunOptions
}

// BatchResult pairs one job's result with its error.
type BatchResult struct {
	Res *Result
	Err error
}

// BatchOptions configures RunBatch.
type BatchOptions struct {
	// Workers bounds the number of concurrent simulations (<= 0:
	// GOMAXPROCS). Results are independent of the worker count.
	Workers int
	// Context aborts the whole batch: jobs not yet started return its
	// error, and jobs without their own RunOptions.Context inherit it
	// for cooperative cancellation.
	Context context.Context
}

// RunBatch runs many independent simulations through a shared bounded
// scheduler. Each worker owns one Engine, so per-run machine state
// (frames, speculative buffers, cache and predictor tables, operand
// stacks) is pooled across the jobs a worker executes. Results are
// returned in job order and are identical to running each job alone.
func RunBatch(jobs []BatchJob, opt BatchOptions) []BatchResult {
	results := make([]BatchResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers == 1 {
		e := NewEngine()
		for i := range jobs {
			results[i] = runBatchJob(e, &jobs[i], opt.Context)
		}
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEngine()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				results[i] = runBatchJob(e, &jobs[i], opt.Context)
			}
		}()
	}
	wg.Wait()
	return results
}

func runBatchJob(e *Engine, j *BatchJob, ctx context.Context) BatchResult {
	ro := j.Opt
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return BatchResult{Err: err}
		}
		if ro.Context == nil {
			ro.Context = ctx
		}
	}
	res, err := e.Run(j.Prog, j.Config, ro)
	return BatchResult{Res: res, Err: err}
}
