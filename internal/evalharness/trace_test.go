package evalharness

import (
	"testing"

	"sptc/internal/trace"
)

// TestTracePerJobIsolation pins the harness's tracing contract under a
// concurrent run: every (program, level) job records exactly one span
// tree on its own pre-created track — the shared base compilation lands
// on the benchmark's base track no matter which job performed it — and
// the counters exported in the trace equal the per-job Metrics the CSV
// reports. This is the regression test for the span-buffer interleaving
// bug class: with -j N, a job's spans must never migrate to another
// job's track.
func TestTracePerJobIsolation(t *testing.T) {
	tr := trace.New()
	opt := DefaultEvalOptions()
	opt.Benchmarks = []string{"bzip2", "gap"}
	opt.Workers = 4
	opt.Trace = tr
	suite, err := RunSuite(opt)
	if err != nil {
		t.Fatal(err)
	}

	tracks := tr.Tracks()
	wantTracks := len(opt.Benchmarks) * (1 + len(suite.Levels))
	if len(tracks) != wantTracks {
		t.Fatalf("got %d tracks, want %d", len(tracks), wantTracks)
	}

	strArg := func(s *trace.Span, key string) string {
		for _, a := range s.Args {
			if a.Key == key && a.Kind == trace.ArgStr {
				return a.S
			}
		}
		return ""
	}

	for _, run := range suite.Runs {
		// Base track: one compile tree for this benchmark and one
		// "simulate" span, which also measured Figure 16's coverage.
		base := tr.Track(run.Name + "/base")
		if base == nil {
			t.Fatalf("%s: no base track", run.Name)
		}
		checkOneTree(t, base, run.Name, "base", strArg)
		if n := countSpans(base, "coverage"); n != 0 {
			t.Errorf("%s/base: %d coverage spans, want none", run.Name, n)
		}
		if run.MaxCoverage <= 0 {
			t.Errorf("%s: MaxCoverage %v, want > 0", run.Name, run.MaxCoverage)
		}
		if v, _ := base.Find("simulate").Int64("sim_instructions"); v != run.BaseMetrics.SimOps {
			t.Errorf("%s/base: simulate span sim_instructions %d != metrics SimOps %d",
				run.Name, v, run.BaseMetrics.SimOps)
		}

		for _, lvl := range suite.Levels {
			lr := run.Levels[lvl]
			tk := tr.Track(run.Name + "/" + lvl.String())
			if tk == nil {
				t.Fatalf("%s/%s: no track", run.Name, lvl)
			}
			checkOneTree(t, tk, run.Name, lvl.String(), strArg)
			if n := countSpans(tk, "coverage"); n != 0 {
				t.Errorf("%s/%s: %d coverage spans, want none", run.Name, lvl, n)
			}
			got := metricsFromTrack(tk, 0, 0)
			if got.SearchNodes != lr.Metrics.SearchNodes ||
				got.CostEvals != lr.Metrics.CostEvals ||
				got.DedupHits != lr.Metrics.DedupHits ||
				got.SimOps != lr.Metrics.SimOps {
				t.Errorf("%s/%s: trace counters %+v != job metrics %+v", run.Name, lvl, got, lr.Metrics)
			}
		}
	}
}

// checkOneTree asserts the track holds exactly one "compile" root and
// one "simulate" span, both belonging to the named benchmark and level.
func checkOneTree(t *testing.T, tk *trace.Track, bench, level string, strArg func(*trace.Span, string) string) {
	t.Helper()
	var compiles, simulates int
	for _, s := range tk.Spans() {
		switch s.Name {
		case "compile":
			compiles++
			if s.Depth != 0 {
				t.Errorf("%s/%s: compile span at depth %d, want 0", bench, level, s.Depth)
			}
			if src := strArg(s, "source"); src != bench {
				t.Errorf("%s/%s: compile span for source %q on this track", bench, level, src)
			}
			if got := strArg(s, "level"); got != level {
				t.Errorf("%s/%s: compile span for level %q on this track", bench, level, got)
			}
		case "simulate":
			simulates++
		}
	}
	if compiles != 1 {
		t.Errorf("%s/%s: %d compile roots, want exactly 1", bench, level, compiles)
	}
	if simulates != 1 {
		t.Errorf("%s/%s: %d simulate spans, want exactly 1", bench, level, simulates)
	}
}

func countSpans(tk *trace.Track, name string) int {
	n := 0
	for _, s := range tk.Spans() {
		if s.Name == name {
			n++
		}
	}
	return n
}
