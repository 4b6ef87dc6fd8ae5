package evalharness

import (
	"math"
	"strings"
	"testing"

	"sptc/internal/core"
)

// TestSuiteShape runs a three-benchmark subset through the full
// evaluation and checks the qualitative results the paper reports: the
// basic compilation gains little, dependence profiling (best) unlocks
// real speedups, and the loop-level metrics are in plausible ranges.
func TestSuiteShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full compile+simulate sweep")
	}
	opt := DefaultEvalOptions()
	opt.Benchmarks = []string{"bzip2", "gap", "parser"}
	suite, err := RunSuite(opt)
	if err != nil {
		t.Fatal(err)
	}

	rows, avg := suite.Fig14()
	if len(rows) != 3 {
		t.Fatalf("expected 3 benchmarks, got %d", len(rows))
	}
	if avg[core.LevelBasic] > avg[core.LevelBest] {
		t.Errorf("basic average %.3f should not beat best %.3f", avg[core.LevelBasic], avg[core.LevelBest])
	}
	if avg[core.LevelBest] < 1.02 {
		t.Errorf("best compilation should average a real speedup, got %.3f", avg[core.LevelBest])
	}
	if avg[core.LevelBasic] > 1.10 {
		t.Errorf("basic compilation should gain little, got %.3f", avg[core.LevelBasic])
	}
	if avg[core.LevelAnticipated] < avg[core.LevelBest]-0.01 {
		t.Errorf("anticipated %.3f should not trail best %.3f", avg[core.LevelAnticipated], avg[core.LevelBest])
	}

	for _, r := range suite.Runs {
		if r.BaseIPC <= 0.05 || r.BaseIPC > 3 {
			t.Errorf("%s: implausible base IPC %.2f", r.Name, r.BaseIPC)
		}
		if r.MaxCoverage <= 0 || r.MaxCoverage > 1.0001 {
			t.Errorf("%s: bad max coverage %.3f", r.Name, r.MaxCoverage)
		}
	}

	br := suite.Fig15(core.LevelBest)
	if br.Total == 0 || br.Counts[core.DecisionSelected] == 0 {
		t.Errorf("figure 15 breakdown empty: %+v", br)
	}

	for _, row := range suite.Fig18(core.LevelBest) {
		if row.LoopSpeedup > 2.05 {
			t.Errorf("%s: loop speedup %.2f exceeds the 2-core bound", row.Program, row.LoopSpeedup)
		}
		if row.MisspecRatio < 0 || row.MisspecRatio > 1 {
			t.Errorf("%s: misspeculation ratio %.3f out of range", row.Program, row.MisspecRatio)
		}
	}

	pts := suite.Fig19(core.LevelBest)
	if len(pts) == 0 {
		t.Error("figure 19 has no points")
	}

	var buf strings.Builder
	suite.WriteAll(&buf, core.LevelBest)
	for _, want := range []string{"Table 1", "Figure 14", "Figure 15", "Figure 16", "Figure 17", "Figure 18", "Figure 19"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestDeterministicParallelSuite asserts that fanning the suite out over
// a worker pool changes nothing about the results: the CSV and figure
// output with Workers: 8 is byte-identical to Workers: 1 (wall-clock
// timings, inherently nondeterministic, are zeroed on both sides).
func TestDeterministicParallelSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full compile+simulate sweep")
	}
	render := func(workers int) (string, string) {
		opt := DefaultEvalOptions()
		opt.Benchmarks = []string{"bzip2", "gap"}
		opt.Workers = workers
		suite, err := RunSuite(opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, r := range suite.Runs {
			if r.BaseMetrics.SimOps == 0 || r.BaseMetrics.Simulate == 0 {
				t.Errorf("workers=%d: %s: empty base metrics %+v", workers, r.Name, r.BaseMetrics)
			}
			r.BaseMetrics.Timing = Timing{}
			for _, lr := range r.Levels {
				if lr.Metrics.SimOps == 0 || lr.Metrics.SearchNodes == 0 {
					t.Errorf("workers=%d: %s/%s: empty level metrics %+v", workers, r.Name, lr.Level, lr.Metrics)
				}
				lr.Metrics.Timing = Timing{}
			}
		}
		var csvBuf, figBuf strings.Builder
		if err := suite.WriteCSV(&csvBuf, core.LevelBest); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		suite.WriteAll(&figBuf, core.LevelBest)
		return csvBuf.String(), figBuf.String()
	}

	serialCSV, serialFig := render(1)
	parCSV, parFig := render(8)
	if serialCSV != parCSV {
		t.Errorf("CSV output differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serialCSV, parCSV)
	}
	if serialFig != parFig {
		t.Errorf("figure output differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serialFig, parFig)
	}
	for _, s := range []string{serialCSV, parCSV} {
		if strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
			t.Errorf("CSV contains NaN/Inf:\n%s", s)
		}
	}
}

// TestValidateLevels covers the Options.Levels validation: LevelBase and
// duplicates would silently collide in the per-run Levels map.
func TestValidateLevels(t *testing.T) {
	cases := []struct {
		name    string
		levels  []core.Level
		wantErr string
	}{
		{"base", []core.Level{core.LevelBase}, "must not include base"},
		{"base among others", []core.Level{core.LevelBest, core.LevelBase}, "must not include base"},
		{"duplicate", []core.Level{core.LevelBest, core.LevelBasic, core.LevelBest}, "duplicate level best"},
		{"ok", []core.Level{core.LevelBasic, core.LevelBest, core.LevelAnticipated}, ""},
	}
	for _, tc := range cases {
		err := validateLevels(tc.levels)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.wantErr)
		}
	}

	// RunSuite must reject a bad level list before doing any work.
	opt := DefaultEvalOptions()
	opt.Levels = []core.Level{core.LevelBase}
	if _, err := RunSuite(opt); err == nil {
		t.Error("RunSuite accepted Levels containing LevelBase")
	}
}

// TestUnknownBenchmarkError checks the error lists the valid names.
func TestUnknownBenchmarkError(t *testing.T) {
	opt := DefaultEvalOptions()
	opt.Benchmarks = []string{" vpr"}
	_, err := RunSuite(opt)
	if err == nil {
		t.Fatal("RunSuite accepted unknown benchmark")
	}
	for _, want := range []string{`" vpr"`, "bzip2", "vpr", "mcf"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestRatioGuards pins the zero-denominator behavior of the harness's
// ratio sites (speedup, coverage, max coverage).
func TestRatioGuards(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(0, 0); got != 0 || math.IsNaN(got) {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
	if got := ratio(6, 3); got != 2 {
		t.Errorf("ratio(6, 3) = %v, want 2", got)
	}

	// An empty suite must render without NaN/Inf (Fig14's average
	// divides by the run count).
	s := &SuiteResult{Levels: []core.Level{core.LevelBest}}
	_, avg := s.Fig14()
	for lvl, v := range avg {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("empty-suite Fig14 average for %s: %v", lvl, v)
		}
	}
	var buf strings.Builder
	if err := s.WriteCSV(&buf, core.LevelBest); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") || strings.Contains(buf.String(), "Inf") {
		t.Errorf("empty-suite CSV contains NaN/Inf:\n%s", buf.String())
	}
}

// TestWriteCSV checks the machine-readable export contains every section.
func TestWriteCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full compile+simulate sweep")
	}
	opt := DefaultEvalOptions()
	opt.Benchmarks = []string{"gap"}
	suite, err := RunSuite(opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := suite.WriteCSV(&buf, core.LevelBest); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# table1", "# fig14", "# fig15", "# fig16", "# fig17", "# fig18", "# fig19", "# metrics", "gap,best,", "gap,base,"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("CSV missing %q", want)
		}
	}
}
