package service

import (
	"testing"

	"sptc/internal/core"
	"sptc/internal/trace"
)

const countersTestSrc = `
var total int;
func main() {
	var i int = 0;
	while (i < 64) {
		total = total + (i & 3);
		i = i + 1;
	}
	print(total);
}
`

// TestCountersFromTrack checks that the span-derived counter totals
// equal the per-loop partition results they were recorded from: only
// candidates that reached the search contribute.
func TestCountersFromTrack(t *testing.T) {
	compile := func(level core.Level) (*core.Result, *trace.Track) {
		t.Helper()
		tk := trace.New().StartTrack("counters.spl/" + level.String())
		opt := core.DefaultOptions(level)
		opt.Trace = tk
		res, err := core.CompileSource("counters.spl", countersTestSrc, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res, tk
	}

	res, tk := compile(core.LevelBest)
	c := CountersFromTrack(tk)
	var nodes, evals, hits int64
	for _, rep := range res.Reports {
		if rep.Partition != nil {
			nodes += int64(rep.Partition.SearchNodes)
			evals += int64(rep.Partition.CostEvals)
			hits += int64(rep.Partition.DedupHits)
		}
	}
	if nodes == 0 {
		t.Fatal("best compile searched no partition: the test checks nothing")
	}
	if c.SearchNodes != nodes || c.CostEvals != evals || c.DedupHits != hits {
		t.Errorf("span-derived counters (%d nodes, %d evals, %d hits) != report totals (%d, %d, %d)",
			c.SearchNodes, c.CostEvals, c.DedupHits, nodes, evals, hits)
	}

	if _, base := compile(core.LevelBase); CountersFromTrack(base).SearchNodes != 0 {
		t.Errorf("base compilation recorded %d search nodes, want 0", CountersFromTrack(base).SearchNodes)
	}

	// A nil track (tracing off) yields zero-valued work counters.
	if got := CountersFromTrack(nil); got != (Counters{}) {
		t.Errorf("nil track produced non-zero counters: %+v", got)
	}
}
