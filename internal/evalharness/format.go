package evalharness

import (
	"fmt"
	"io"
	"sort"

	"sptc/internal/core"
)

// WriteTable1 prints Table 1 (base IPC per benchmark).
func (s *SuiteResult) WriteTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: IPC (excluding nops) of the non-SPT base reference")
	fmt.Fprintln(w, "Program    IPC")
	for _, row := range s.Table1() {
		fmt.Fprintf(w, "%-10s %.2f\n", row.Program, row.IPC)
	}
}

// WriteFig14 prints Figure 14 (speedups by compilation level).
func (s *SuiteResult) WriteFig14(w io.Writer) {
	rows, avg := s.Fig14()
	fmt.Fprintln(w, "Figure 14: speedup of SPT code over the non-SPT base reference")
	fmt.Fprintf(w, "%-10s", "Program")
	for _, lvl := range s.Levels {
		fmt.Fprintf(w, " %12s", lvl)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.Program)
		for _, lvl := range s.Levels {
			fmt.Fprintf(w, " %11.1f%%", (r.Speedups[lvl]-1)*100)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s", "average")
	for _, lvl := range s.Levels {
		fmt.Fprintf(w, " %11.1f%%", (avg[lvl]-1)*100)
	}
	fmt.Fprintln(w)
}

// WriteFig15 prints Figure 15 (loop disposition breakdown).
func (s *SuiteResult) WriteFig15(w io.Writer, level core.Level) {
	br := s.Fig15(level)
	fmt.Fprintf(w, "Figure 15: loop candidate breakdown at the %s compilation (%d loops)\n", level, br.Total)
	type kv struct {
		d core.Decision
		n int
	}
	var items []kv
	for d, n := range br.Counts {
		items = append(items, kv{d, n})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].n != items[j].n {
			return items[i].n > items[j].n
		}
		return items[i].d < items[j].d
	})
	for _, it := range items {
		pct := 0.0
		if br.Total > 0 {
			pct = 100 * float64(it.n) / float64(br.Total)
		}
		label := it.d.String()
		if it.d == core.DecisionSelected {
			label = "valid partition (selected)"
		}
		fmt.Fprintf(w, "  %-28s %4d  (%.0f%%)\n", label, it.n, pct)
	}
}

// WriteFig16 prints Figure 16 (coverage and SPT loop counts).
func (s *SuiteResult) WriteFig16(w io.Writer, level core.Level) {
	fmt.Fprintf(w, "Figure 16: runtime coverage of SPT loops (%s compilation)\n", level)
	fmt.Fprintln(w, "Program    SPT-loops  coverage  max-coverage")
	rows := s.Fig16(level)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9d  %7.0f%%  %11.0f%%\n", r.Program, r.SPTLoops, r.Coverage*100, r.MaxCoverage*100)
	}
	if loops, cov, maxCov, ok := fig16Averages(rows); ok {
		fmt.Fprintf(w, "%-10s %9.1f  %7.0f%%  %11.0f%%\n", "average", loops, cov*100, maxCov*100)
	}
}

// WriteFig17 prints Figure 17 (loop body size and partition shape).
func (s *SuiteResult) WriteFig17(w io.Writer, level core.Level) {
	fmt.Fprintf(w, "Figure 17: SPT loop body size and pre-fork share (%s compilation)\n", level)
	fmt.Fprintln(w, "Program    loops  dyn-ops/iter  static-body  prefork-share")
	rows := s.Fig17(level)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %5d  %12.0f  %11.0f  %12.1f%%\n",
			r.Program, r.SelectedLoops, r.AvgBodyOps, r.AvgStaticBody, r.AvgPreForkShare*100)
	}
	if body, pre, ok := fig17Averages(rows); ok {
		fmt.Fprintf(w, "%-10s %5s  %12.0f  %11s  %12.1f%%\n", "average", "", body, "", pre*100)
	}
}

// WriteFig18 prints Figure 18 (misspeculation ratio, loop speedup).
func (s *SuiteResult) WriteFig18(w io.Writer, level core.Level) {
	fmt.Fprintf(w, "Figure 18: SPT loop performance (%s compilation)\n", level)
	fmt.Fprintln(w, "Program    misspec-ratio  loop-speedup")
	rows := s.Fig18(level)
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.1f%%  %11.2fx\n", r.Program, r.MisspecRatio*100, r.LoopSpeedup)
	}
	if mr, sp, ok := fig18Averages(rows); ok {
		fmt.Fprintf(w, "%-10s %12.1f%%  %11.2fx\n", "average", mr*100, sp)
	}
}

// WriteFig19 prints Figure 19 (estimated cost vs re-execution ratio).
func (s *SuiteResult) WriteFig19(w io.Writer, level core.Level) {
	fmt.Fprintf(w, "Figure 19: compiler-estimated misspeculation cost vs actual re-execution ratio (%s)\n", level)
	fmt.Fprintln(w, "Program    loop  est-cost  measured  spec-iters  calls")
	for _, p := range s.Fig19(level) {
		call := ""
		if p.HasCalls {
			call = "yes"
		}
		fmt.Fprintf(w, "%-10s %4d  %8.3f  %8.3f  %10d  %s\n",
			p.Program, p.LoopID, p.EstCost, p.Measured, p.SpecIters, call)
	}
}

// WriteMetrics prints the per-job observability table: wall-clock
// compile and simulate time, partition-search node counts, and dynamic
// instructions simulated.
func (s *SuiteResult) WriteMetrics(w io.Writer) {
	fmt.Fprintln(w, "Per-job metrics (wall clock)")
	fmt.Fprintln(w, "Program    level       status       compile   simulate  search-nodes  cost-evals  dedup-hits  recomputes  workers  bound-upd  incr-h  incr-m  incr-i       sim-ops  degraded  retries")
	row := func(name string, level core.Level, st Status, m Metrics) {
		fmt.Fprintf(w, "%-10s %-11s %-8s  %9s  %9s  %12d  %10d  %10d  %10d  %7d  %9d  %6d  %6d  %6d  %12d  %8d  %7d\n",
			name, level, st, fmtDur(m.Compile), fmtDur(m.Simulate), m.SearchNodes, m.CostEvals, m.DedupHits, m.Recomputes,
			m.SearchWorkers, m.BoundUpdates, m.IncrHits, m.IncrMisses, m.IncrInvalidated, m.SimOps, m.Degraded, m.Retries)
	}
	for _, r := range s.Runs {
		row(r.Name, core.LevelBase, r.BaseStatus, r.BaseMetrics)
		for _, lvl := range s.Levels {
			if lr := r.Levels[lvl]; lr != nil {
				row(r.Name, lvl, lr.Status, lr.Metrics)
			}
		}
	}
}

// WriteAll prints every table and figure for the given primary level,
// then the paper's claims checked against them (Claims).
func (s *SuiteResult) WriteAll(w io.Writer, level core.Level) {
	s.WriteTable1(w)
	fmt.Fprintln(w)
	s.WriteFig14(w)
	fmt.Fprintln(w)
	s.WriteFig15(w, level)
	fmt.Fprintln(w)
	s.WriteFig16(w, level)
	fmt.Fprintln(w)
	s.WriteFig17(w, level)
	fmt.Fprintln(w)
	s.WriteFig18(w, level)
	fmt.Fprintln(w)
	s.WriteFig19(w, level)
	fmt.Fprintln(w)
	s.WriteClaims(w)
}
