package evalharness

import (
	"time"

	"sptc/internal/service"
)

// Timing records the wall-clock cost of one compile+simulate job.
type Timing struct {
	// Compile is the compile wall time and Simulate the simulation wall
	// time, as the executor measured them (both 0 when a daemon served
	// the response from its cache: no work was done).
	Compile  time.Duration
	Simulate time.Duration
}

// Metrics is the per-job observability layer: what one compile+simulate
// job cost, in wall-clock time and in work done. Future performance PRs
// regress against these numbers. The work counters are read back from
// the job's trace spans by whichever side executed it
// (service.CountersFromTrack), so the metrics CSV and an exported Chrome
// trace of the same run agree by construction.
type Metrics struct {
	Timing
	// SearchNodes totals the branch-and-bound partition-search nodes
	// explored across the compilation's loop candidates (0 at LevelBase,
	// which performs no partition search).
	SearchNodes int64
	// CostEvals totals the §4.2.3 cost propagations the partition
	// searches actually performed; DedupHits counts the lower bounds the
	// searches reused from a parent bound or a record without
	// propagating. Their sum is the number of cost queries the searches
	// issued.
	CostEvals int64
	DedupHits int64
	// Recomputes totals the dirty dynamic nodes the incremental cost
	// evaluator recomputed (the §4.2.3 propagation's unit of work).
	Recomputes int64
	// SearchWorkers is the parallel branch-and-bound worker count the
	// compile's partition searches ran with (0: classic serial search).
	SearchWorkers int64
	// BoundUpdates totals the incumbent improvements the searches
	// recorded (the bound heuristic 2 prunes against).
	BoundUpdates int64
	// IncrHits/IncrMisses/IncrInvalidated are the incremental-compilation
	// counters (0 unless the executing Local's Env.Incr provides a
	// loop-result store): loops
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
	// made before this job's response (0 without a Remote). Summed
	// over a suite it equals the transient daemon faults the retry layer
	// masked.
	Retries int64
}

// metricsFromCounters assembles a job's Metrics from its service
// response: the work counters the executor read from the job's trace
// spans, and the wall-clock durations and retry count of the response
// meta.
func metricsFromCounters(c service.Counters, meta service.RespMeta) Metrics {
	return Metrics{
		Timing:          Timing{Compile: meta.Compile, Simulate: meta.Simulate},
		SearchNodes:     c.SearchNodes,
		CostEvals:       c.CostEvals,
		DedupHits:       c.DedupHits,
		Recomputes:      c.Recomputes,
		SearchWorkers:   c.SearchWorkers,
		BoundUpdates:    c.BoundUpdates,
		IncrHits:        c.IncrHits,
		IncrMisses:      c.IncrMisses,
		IncrInvalidated: c.IncrInvalidated,
		SimOps:          c.SimOps,
		Degraded:        c.Degraded,
		Retries:         int64(meta.Retries),
	}
}
