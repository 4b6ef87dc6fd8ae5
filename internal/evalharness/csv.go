package evalharness

import (
	"encoding/csv"
	"fmt"
	"io"
	"time"

	"sptc/internal/core"
)

// WriteCSV emits every table and figure as CSV sections separated by
// blank lines, for plotting. Each section begins with a `# table` or
// `# figNN` comment row followed by a header row.
func (s *SuiteResult) WriteCSV(w io.Writer, level core.Level) error {
	cw := csv.NewWriter(w)
	section := func(name string, header []string) error {
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# %s\n", name); err != nil {
			return err
		}
		return cw.Write(header)
	}
	f := func(v float64) string { return fmt.Sprintf("%.6g", v) }

	if err := section("table1", []string{"program", "ipc"}); err != nil {
		return err
	}
	for _, r := range s.Table1() {
		if err := cw.Write([]string{r.Program, f(r.IPC)}); err != nil {
			return err
		}
	}

	if err := section("fig14", []string{"program", "level", "speedup"}); err != nil {
		return err
	}
	rows, _ := s.Fig14()
	for _, r := range rows {
		for _, lvl := range s.Levels {
			if err := cw.Write([]string{r.Program, lvl.String(), f(r.Speedups[lvl])}); err != nil {
				return err
			}
		}
	}

	if err := section("fig15", []string{"decision", "count"}); err != nil {
		return err
	}
	br := s.Fig15(level)
	for d := core.DecisionSelected; d <= core.DecisionDegraded; d++ {
		if n := br.Counts[d]; n > 0 {
			if err := cw.Write([]string{d.String(), fmt.Sprint(n)}); err != nil {
				return err
			}
		}
	}

	if err := section("fig16", []string{"program", "spt_loops", "coverage", "max_coverage"}); err != nil {
		return err
	}
	for _, r := range s.Fig16(level) {
		if err := cw.Write([]string{r.Program, fmt.Sprint(r.SPTLoops), f(r.Coverage), f(r.MaxCoverage)}); err != nil {
			return err
		}
	}

	if err := section("fig17", []string{"program", "loops", "dyn_ops_per_iter", "static_body", "prefork_share"}); err != nil {
		return err
	}
	for _, r := range s.Fig17(level) {
		if err := cw.Write([]string{r.Program, fmt.Sprint(r.SelectedLoops), f(r.AvgBodyOps), f(r.AvgStaticBody), f(r.AvgPreForkShare)}); err != nil {
			return err
		}
	}

	if err := section("fig18", []string{"program", "misspec_ratio", "loop_speedup"}); err != nil {
		return err
	}
	for _, r := range s.Fig18(level) {
		if err := cw.Write([]string{r.Program, f(r.MisspecRatio), f(r.LoopSpeedup)}); err != nil {
			return err
		}
	}

	if err := section("fig19", []string{"program", "loop", "est_cost", "measured", "spec_iters", "has_calls"}); err != nil {
		return err
	}
	for _, p := range s.Fig19(level) {
		if err := cw.Write([]string{
			p.Program, fmt.Sprint(p.LoopID), f(p.EstCost), f(p.Measured),
			fmt.Sprint(p.SpecIters), fmt.Sprint(p.HasCalls),
		}); err != nil {
			return err
		}
	}

	// Per-job metrics: the wall-clock columns vary run to run; everything
	// else is deterministic.
	if err := section("metrics", []string{"program", "level", "status", "compile_ms", "simulate_ms", "search_nodes", "cost_evals", "dedup_hits", "recomputes", "search_workers", "bound_updates", "incr_hits", "incr_misses", "incr_invalidated", "sim_ops", "degraded", "retries"}); err != nil {
		return err
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond)) }
	metricsRow := func(program string, level core.Level, st Status, m Metrics) error {
		return cw.Write([]string{
			program, level.String(), st.String(), ms(m.Compile), ms(m.Simulate),
			fmt.Sprint(m.SearchNodes), fmt.Sprint(m.CostEvals), fmt.Sprint(m.DedupHits),
			fmt.Sprint(m.Recomputes), fmt.Sprint(m.SearchWorkers), fmt.Sprint(m.BoundUpdates),
			fmt.Sprint(m.IncrHits), fmt.Sprint(m.IncrMisses),
			fmt.Sprint(m.IncrInvalidated), fmt.Sprint(m.SimOps), fmt.Sprint(m.Degraded),
			fmt.Sprint(m.Retries),
		})
	}
	for _, r := range s.Runs {
		if err := metricsRow(r.Name, core.LevelBase, r.BaseStatus, r.BaseMetrics); err != nil {
			return err
		}
		for _, lvl := range s.Levels {
			lr := r.Levels[lvl]
			if lr == nil {
				continue
			}
			if err := metricsRow(r.Name, lvl, lr.Status, lr.Metrics); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
