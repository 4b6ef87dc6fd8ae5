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
	service.Counters
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
		Timing:   Timing{Compile: meta.Compile, Simulate: meta.Simulate},
		Counters: c,
		Retries:  int64(meta.Retries),
	}
}
