package evalharness

import (
	"sync"
	"time"

	"sptc/internal/core"
	"sptc/internal/resilience"
	"sptc/internal/service"
	"sptc/internal/trace"
)

// Timing records the wall-clock cost of one compile+simulate job.
type Timing struct {
	// Compile is the core.CompileSource wall time. When the compilation
	// was shared through a CompileCache, every consumer reports the one
	// real compile duration.
	Compile time.Duration
	// Simulate is the machine.Run wall time.
	Simulate time.Duration
}

// Metrics is the per-job observability layer: what one compile+simulate
// job cost, in wall-clock time and in work done. Future performance PRs
// regress against these numbers. The work counters are read back from
// the job's trace spans (metricsFromTrack), so the metrics CSV and an
// exported Chrome trace of the same run agree by construction.
type Metrics struct {
	Timing
	// SearchNodes totals the branch-and-bound partition-search nodes
	// explored across the compilation's loop candidates (0 at LevelBase,
	// which performs no partition search).
	SearchNodes int64
	// CostEvals totals the §4.2.3 cost propagations the partition
	// searches actually performed; DedupHits counts the cost queries
	// answered from the interned zero-set table without propagating.
	// Their sum is the number of cost queries the searches issued.
	CostEvals int64
	DedupHits int64
	// Recomputes totals the dirty dynamic nodes the incremental cost
	// evaluator recomputed (the §4.2.3 propagation's unit of work).
	Recomputes int64
	// SearchWorkers is the parallel branch-and-bound worker count the
	// compile's partition searches ran with (0: classic serial search).
	SearchWorkers int64
	// BoundUpdates totals the incumbent improvements the searches
	// recorded (the bound heuristic 2 prunes against); MemoShardHits
	// totals the cost queries answered by a memo entry another worker
	// propagated (always 0 for serial searches, scheduling-dependent
	// when SearchWorkers >= 2).
	BoundUpdates  int64
	MemoShardHits int64
	// IncrHits/IncrMisses/IncrInvalidated are the incremental-compilation
	// counters (0 unless Options.Incr provides a loop-result store): loops
	// whose stored partition was spliced in without re-analysis, loops
	// compiled cold, and the subset of misses whose structural slot was
	// seen before with a different fingerprint (the loop changed).
	IncrHits        int64
	IncrMisses      int64
	IncrInvalidated int64
	// SimOps is the number of dynamic instructions simulated.
	SimOps int64
	// Degraded counts the compile's fail-soft events (loops demoted to
	// serial, anytime searches stopped early), read back from the
	// "degraded" counters on the pass1 and transform spans.
	Degraded int64
	// Retries counts the failed remote attempts a retrying daemon client
	// made before this job's response (always 0 in local mode). Summed
	// over a suite it equals the transient daemon faults the retry layer
	// masked.
	Retries int64
}

// metricsFromTrack assembles a job's Metrics from its completed trace
// spans: the per-loop partition-search counters summed over the "loop"
// spans, and the dynamic instruction count of the job's one "simulate"
// span.
func metricsFromTrack(tk *trace.Track, compile, simulate time.Duration) Metrics {
	m := Metrics{
		Timing:        Timing{Compile: compile, Simulate: simulate},
		SearchNodes:   tk.SumInt("loop", "search_nodes"),
		CostEvals:     tk.SumInt("loop", "cost_evals"),
		DedupHits:     tk.SumInt("loop", "dedup_hits"),
		Recomputes:    tk.SumInt("loop", "recomputes"),
		BoundUpdates:  tk.SumInt("loop", "bound_updates"),
		MemoShardHits: tk.SumInt("loop", "memo_shard_hits"),
		Degraded:      tk.SumInt("pass1", "degraded") + tk.SumInt("transform", "degraded"),

		IncrHits:        tk.SumInt("pass1", "incr_hits"),
		IncrMisses:      tk.SumInt("pass1", "incr_misses"),
		IncrInvalidated: tk.SumInt("pass1", "incr_invalidated"),
	}
	// search_workers is a configuration echo, not an additive counter:
	// take it from any loop span that searched.
	for _, s := range tk.Spans() {
		if s.Name != "loop" {
			continue
		}
		if v, ok := s.Int64("search_workers"); ok && v > m.SearchWorkers {
			m.SearchWorkers = v
		}
	}
	if v, ok := tk.Find("simulate").Int64("sim_instructions"); ok {
		m.SimOps = v
	}
	return m
}

// metricsFromCounters assembles a job's Metrics from a service response:
// the daemon read the same trace spans CountersFromTrack-side, so a
// remote run's metrics agree with a local run's by construction.
// Wall-clock durations come from the response meta (zero when the
// response was served from the daemon's cache — no work was done).
func metricsFromCounters(c service.Counters, meta service.RespMeta) Metrics {
	return Metrics{
		Timing:          Timing{Compile: meta.Compile, Simulate: meta.Simulate},
		SearchNodes:     c.SearchNodes,
		CostEvals:       c.CostEvals,
		DedupHits:       c.DedupHits,
		Recomputes:      c.Recomputes,
		SearchWorkers:   c.SearchWorkers,
		BoundUpdates:    c.BoundUpdates,
		MemoShardHits:   c.MemoShardHits,
		IncrHits:        c.IncrHits,
		IncrMisses:      c.IncrMisses,
		IncrInvalidated: c.IncrInvalidated,
		SimOps:          c.SimOps,
		Degraded:        c.Degraded,
		Retries:         int64(meta.Retries),
	}
}

// CompileKey identifies one deterministic compilation.
type CompileKey struct {
	Name  string
	Level core.Level
}

// CompileCache memoizes core.CompileSource results keyed by benchmark
// name and compilation level. Compilation is deterministic, so concurrent
// consumers can share one result: Get is safe for concurrent use and
// compiles each key at most once, with later callers blocking until the
// first finishes. Callers must pass the same source and options for a
// given key.
type CompileCache struct {
	mu sync.Mutex
	m  map[CompileKey]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	res  *core.Result
	dur  time.Duration
	err  error
}

// NewCompileCache returns an empty cache.
func NewCompileCache() *CompileCache {
	return &CompileCache{m: make(map[CompileKey]*cacheEntry)}
}

// Get returns the compilation of src at opt.Level, compiling at most once
// per (name, level) key. The returned duration is the wall time of the
// one real compilation, whether or not this caller performed it.
//
// A compile that panics or is stopped by a deadline is reported as an
// error (never a propagated panic: every waiter on the entry must see a
// well-formed result) and its entry is evicted, so a retried job
// recompiles instead of replaying the failure from the cache.
func (c *CompileCache) Get(name, src string, opt core.Options) (*core.Result, time.Duration, error) {
	key := CompileKey{Name: name, Level: opt.Level}
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &cacheEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		start := time.Now()
		e.err = resilience.Guard(func() error {
			var err error
			e.res, err = core.CompileSource(name, src, opt)
			return err
		})
		e.dur = time.Since(start)
	})
	if e.err != nil {
		switch resilience.ReasonFor(e.err) {
		case resilience.ReasonPanic, resilience.ReasonTimeout, resilience.ReasonCanceled:
			c.mu.Lock()
			if c.m[key] == e {
				delete(c.m, key)
			}
			c.mu.Unlock()
		}
	}
	return e.res, e.dur, e.err
}
