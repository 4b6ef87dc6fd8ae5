package evalharness

import (
	"strings"
	"testing"
	"time"

	"sptc/internal/core"
	"sptc/internal/resilience"
)

// failsoftOptions is a small, fast suite configuration shared by the
// fail-soft tests: two benchmarks, one level, serial by default.
func failsoftOptions() Options {
	opt := DefaultEvalOptions()
	opt.Benchmarks = []string{"bzip2", "gap"}
	opt.Levels = []core.Level{core.LevelBest}
	opt.Workers = 1
	return opt
}

// writeAllOutputs exercises every report writer against a possibly
// degraded suite; any nil-deref there fails the calling test.
func writeAllOutputs(t *testing.T, suite *SuiteResult) {
	t.Helper()
	var sb strings.Builder
	suite.WriteAll(&sb, core.LevelBest)
	suite.WriteMetrics(&sb)
	if err := suite.WriteCSV(&sb, core.LevelBest); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if sb.Len() == 0 {
		t.Fatal("report writers produced no output")
	}
}

// TestSuiteFailSoftPass1Panic arms the pass-1 inject point so every loop
// candidate's analysis panics. The compiles must survive (all loops
// demoted to serial), the level jobs must be marked degraded, and the
// suite must still produce every table.
func TestSuiteFailSoftPass1Panic(t *testing.T) {
	if testing.Short() {
		t.Skip("compile+simulate sweep")
	}
	resilience.Arm("core.pass1.loop", resilience.Fault{Kind: resilience.FaultPanic})
	defer resilience.DisarmAll()

	suite, err := RunSuite(failsoftOptions())
	if err != nil {
		t.Fatalf("suite must survive pass-1 panics, got %v", err)
	}
	for _, r := range suite.Runs {
		if r.BaseStatus != StatusOK {
			t.Errorf("%s: base job does not run pass 1, want ok, got %s", r.Name, r.BaseStatus)
		}
		lr := r.Levels[core.LevelBest]
		if lr == nil {
			t.Fatalf("%s: missing level run", r.Name)
		}
		if lr.Status != StatusDegraded {
			t.Errorf("%s: want degraded, got %s", r.Name, lr.Status)
		}
		if lr.Compile == nil || lr.Sim == nil {
			t.Fatalf("%s: degraded job must still carry results", r.Name)
		}
		if len(lr.Compile.SPT) != 0 {
			t.Errorf("%s: all loops should be demoted, got %d SPT loops", r.Name, len(lr.Compile.SPT))
		}
		if len(lr.Compile.Degradations) == 0 {
			t.Errorf("%s: degraded job carries no degradation events", r.Name)
		}
		for _, ev := range lr.Compile.Degradations {
			if ev.Reason != resilience.ReasonPanic {
				t.Errorf("%s: degradation reason %s, want panic", r.Name, ev.Reason)
			}
		}
		if lr.Output != r.BaseOutput {
			t.Errorf("%s: demoted-to-serial output diverged from base", r.Name)
		}
		if lr.Metrics.Degraded == 0 {
			t.Errorf("%s: metrics should count the degradations", r.Name)
		}
	}
	br := suite.Fig15(core.LevelBest)
	if br.Counts[core.DecisionDegraded] == 0 {
		t.Error("figure 15 should report degraded loops")
	}
	writeAllOutputs(t, suite)
}

// TestSuiteFailSoftSimPanic arms the simulator inject point: every
// simulation panics, so every job (base included) is marked panic, yet
// the suite completes and every writer still works.
func TestSuiteFailSoftSimPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("compile+simulate sweep")
	}
	resilience.Arm("machine.run", resilience.Fault{Kind: resilience.FaultPanic})
	defer resilience.DisarmAll()

	suite, err := RunSuite(failsoftOptions())
	if err != nil {
		t.Fatalf("suite must survive simulator panics, got %v", err)
	}
	for _, r := range suite.Runs {
		if r.BaseStatus != StatusPanic {
			t.Errorf("%s: base want panic, got %s", r.Name, r.BaseStatus)
		}
		if r.BaseErr == nil || !strings.Contains(r.BaseErr.Error(), "panic") {
			t.Errorf("%s: base error should describe the panic, got %v", r.Name, r.BaseErr)
		}
		if r.Base != nil {
			t.Errorf("%s: panicked base job must not carry a simulation", r.Name)
		}
		lr := r.Levels[core.LevelBest]
		if lr == nil {
			t.Fatalf("%s: missing level run", r.Name)
		}
		if lr.Status != StatusPanic {
			t.Errorf("%s: want panic, got %s", r.Name, lr.Status)
		}
		if lr.Compile != nil || lr.Sim != nil {
			t.Errorf("%s: panicked job must not carry results", r.Name)
		}
	}
	writeAllOutputs(t, suite)
}

// TestSuiteFailSoftTimeout uses an already-expired per-job deadline:
// every job times out, is retried exactly once, and is then marked; the
// suite exits cleanly.
func TestSuiteFailSoftTimeout(t *testing.T) {
	opt := failsoftOptions()
	opt.Timeout = time.Nanosecond
	suite, err := RunSuite(opt)
	if err != nil {
		t.Fatalf("suite must survive per-job timeouts, got %v", err)
	}
	for _, r := range suite.Runs {
		if r.BaseStatus != StatusTimeout {
			t.Errorf("%s: base want timeout, got %s", r.Name, r.BaseStatus)
		}
		lr := r.Levels[core.LevelBest]
		if lr == nil {
			t.Fatalf("%s: missing level run", r.Name)
		}
		if lr.Status != StatusTimeout {
			t.Errorf("%s: want timeout, got %s", r.Name, lr.Status)
		}
		if !lr.Retried {
			t.Errorf("%s: timed-out job should have been retried once", r.Name)
		}
		if lr.Err == nil {
			t.Errorf("%s: timed-out job should carry its error", r.Name)
		}
	}
	writeAllOutputs(t, suite)
}

// normalizeSuiteCSV blanks the wall-clock columns (compile_ms,
// simulate_ms) of the metrics section so two runs of the same suite can
// be compared byte-for-byte.
func normalizeSuiteCSV(t *testing.T, csv string) string {
	t.Helper()
	lines := strings.Split(csv, "\n")
	inMetrics := false
	for i, ln := range lines {
		if strings.HasPrefix(ln, "# ") {
			inMetrics = ln == "# metrics"
			continue
		}
		if !inMetrics || ln == "" || strings.HasPrefix(ln, "program,") {
			continue
		}
		f := strings.Split(ln, ",")
		if len(f) < 5 {
			t.Fatalf("metrics row too short: %q", ln)
		}
		f[3], f[4] = "-", "-"
		lines[i] = strings.Join(f, ",")
	}
	return strings.Join(lines, "\n")
}

// TestSuiteDeterministicUnderBudget runs the suite with a 1-node search
// budget serially and with 8 workers: the degraded results — partitions,
// statuses, figures, work counters — must be identical, and every job
// must be marked degraded (the budget stops every search early).
func TestSuiteDeterministicUnderBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("compile+simulate sweep")
	}
	run := func(workers int) (*SuiteResult, string) {
		opt := failsoftOptions()
		opt.Workers = workers
		opt.SearchBudget = 1
		suite, err := RunSuite(opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var sb strings.Builder
		if err := suite.WriteCSV(&sb, core.LevelBest); err != nil {
			t.Fatalf("workers=%d: WriteCSV: %v", workers, err)
		}
		return suite, normalizeSuiteCSV(t, sb.String())
	}
	s1, csv1 := run(1)
	_, csv8 := run(8)
	if csv1 != csv8 {
		t.Errorf("budget-limited suite differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", csv1, csv8)
	}
	for _, r := range s1.Runs {
		lr := r.Levels[core.LevelBest]
		if lr == nil || lr.Compile == nil {
			t.Fatalf("%s: missing budget-limited level run", r.Name)
		}
		if lr.Status != StatusDegraded {
			t.Errorf("%s: 1-node budget should degrade the job, got %s", r.Name, lr.Status)
		}
		if len(lr.Compile.Degradations) == 0 {
			t.Errorf("%s: degraded job carries no degradation events", r.Name)
		}
		for _, ev := range lr.Compile.Degradations {
			if ev.Reason != resilience.ReasonBudget {
				t.Errorf("%s: degradation reason %s, want budget", r.Name, ev.Reason)
			}
		}
		if lr.Output != r.BaseOutput {
			t.Errorf("%s: budget-limited output diverged from base", r.Name)
		}
	}
}

// TestSuiteFailSoftInjectedDelay arms a zero-length delay at every
// registered point: the faults fire but are harmless, so the suite must
// be byte-identical in status to a clean run.
func TestSuiteFailSoftInjectedDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("compile+simulate sweep")
	}
	for _, p := range resilience.Points() {
		resilience.Arm(p, resilience.Fault{Kind: resilience.FaultDelay})
	}
	defer resilience.DisarmAll()

	suite, err := RunSuite(failsoftOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range suite.Runs {
		if r.BaseStatus != StatusOK {
			t.Errorf("%s: base want ok, got %s", r.Name, r.BaseStatus)
		}
		if lr := r.Levels[core.LevelBest]; lr.Status != StatusOK {
			t.Errorf("%s: want ok, got %s", r.Name, lr.Status)
		}
	}
}
