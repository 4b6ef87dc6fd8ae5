package evalharness

import (
	"fmt"
	"io"
	"math"
	"strings"

	"sptc/internal/core"
)

// Claim is one of the paper's §8 claims checked against a suite run.
type Claim struct {
	Figure    string // "Table 1", "Fig. 14", ...
	Claim     string
	Paper     string // the paper's number, as the paper states it
	Predicate string // the check, built from the paper's number and a tolerance
	Measured  string
	Holds     bool
}

// Tolerances of the claim predicates, each stated once. The suite is ten
// synthetic kernels about 50× smaller than SPEC2000Int, run on a cycle
// model of the paper's machine, so a claim is about shape: it holds when
// the measured value sits within these bounds of the paper's number.
const (
	// tolFactor: a magnitude or ratio matches the paper's within this
	// factor.
	tolFactor = 2.0
	// tolAvg: a suite average matches the paper's "~X" within this
	// fraction of X, in the direction the claim states.
	tolAvg = 0.2
	// tolOrder: "hundreds of instructions" holds within an order of
	// magnitude.
	tolOrder = 10.0
	// tolFew: "only a few" candidates is at most this share of them.
	tolFew = 0.05
	// tolTie: speedups closer than the report's precision (0.1
	// percentage points) are equal.
	tolTie = 0.001
	// tolEstimate: a Figure 19 estimate tracks its measurement when the
	// two are within this factor of each other.
	tolEstimate = 2.5
)

// claimCheck measures one claim on a suite and applies its predicate.
// ok is false when the suite lacks the data (a partial or degraded run).
type claimCheck func(s *SuiteResult) (measured string, holds, ok bool)

// claimSpec is one row of the claims table: what the paper states and how
// the suite is checked against it.
type claimSpec struct {
	figure, claim, paper, predicate string
	check                           claimCheck
}

// Paper numbers the predicates are written from (§8, Table 1 and
// Figs. 14-18).
const (
	paperIPCLow, paperIPCHigh = 0.44, 1.77 // mcf, gzip
	paperBasic                = 0.01       // Fig. 14 averages
	paperBest                 = 0.08
	paperAnticipated          = 0.156
	paperValidShare           = 0.30 // Fig. 15
	paperTripSizeShare        = 0.35
	paperCoverage             = 0.30 // Fig. 16
	paperMaxCoverage          = 0.68
	paperRealizedCoverage     = 0.44
	paperSPTLoops             = 30
	paperThreadSize           = 400 // Fig. 17
	paperPreForkHigh          = 0.10
	paperMisspec              = 0.03 // Fig. 18
	paperLoopSpeedup          = 1.26
)

var claimSpecs = []claimSpec{
	{"Table 1", "IPC spans a wide range", "0.44 (mcf) – 1.77 (gzip)",
		fmt.Sprintf("max/min IPC ≥ %.1f (paper %.1f / %g)", paperIPCHigh/paperIPCLow/tolFactor, paperIPCHigh/paperIPCLow, tolFactor),
		func(s *SuiteResult) (string, bool, bool) {
			lo, hi, ok := ipcExtremes(s)
			if !ok {
				return "", false, false
			}
			r := hi.IPC / lo.IPC
			return fmt.Sprintf("%.2f (%s) – %.2f (%s), %.1f×", lo.IPC, lo.Program, hi.IPC, hi.Program, r),
				r >= paperIPCHigh/paperIPCLow/tolFactor, true
		}},
	{"Table 1", "mcf is the memory-bound outlier", "0.44, lowest", "mcf has the lowest IPC",
		func(s *SuiteResult) (string, bool, bool) {
			lo, _, ok := ipcExtremes(s)
			if !ok {
				return "", false, false
			}
			return fmt.Sprintf("lowest: %s %.2f", lo.Program, lo.IPC), lo.Program == "mcf", true
		}},
	{"Table 1", "compress/integer codes sit at the top", "bzip2 1.69, gzip 1.77", "gzip or bzip2 has the highest IPC",
		func(s *SuiteResult) (string, bool, bool) {
			_, hi, ok := ipcExtremes(s)
			if !ok {
				return "", false, false
			}
			return fmt.Sprintf("highest: %s %.2f", hi.Program, hi.IPC), hi.Program == "gzip" || hi.Program == "bzip2", true
		}},
	{"Fig. 14", "basic compilation gains almost nothing", "~1% average",
		fmt.Sprintf("basic average ≤ %.1f%%", 100*paperBasic*(1+tolAvg)),
		fig14Average(core.LevelBasic, func(v float64) bool { return v <= paperBasic*(1+tolAvg) })},
	{"Fig. 14", "dependence profiling + SVP unlock real gains", "~8% average",
		fmt.Sprintf("best average ≥ %.1f%%", 100*paperBest*(1-tolAvg)),
		fig14Average(core.LevelBest, func(v float64) bool { return v >= paperBest*(1-tolAvg) })},
	{"Fig. 14", "anticipated techniques roughly double basic→best delta", "~15.6% average",
		fmt.Sprintf("anticipated average ≥ %.1f%%", 100*paperAnticipated*(1-tolAvg)),
		fig14Average(core.LevelAnticipated, func(v float64) bool { return v >= paperAnticipated*(1-tolAvg) })},
	{"Fig. 14", "ordering basic < best ≤ anticipated per benchmark", "holds",
		fmt.Sprintf("basic ≤ best ≤ anticipated for every program, within %.1f pp", 100*tolTie),
		func(s *SuiteResult) (string, bool, bool) {
			rows, _ := s.Fig14()
			held := 0
			for _, r := range rows {
				b, ok1 := r.Speedups[core.LevelBasic]
				m, ok2 := r.Speedups[core.LevelBest]
				a, ok3 := r.Speedups[core.LevelAnticipated]
				if !ok1 || !ok2 || !ok3 {
					return "", false, false
				}
				if b <= m+tolTie && m <= a+tolTie {
					held++
				}
			}
			if len(rows) == 0 {
				return "", false, false
			}
			return fmt.Sprintf("holds for %d/%d", held, len(rows)), held == len(rows), true
		}},
	{"Fig. 15", "a minority of loops get valid partitions", "~30%",
		fmt.Sprintf("%.0f%% ≤ selected share < 50%%", 100*paperValidShare/tolFactor),
		fig15Share(func(br Fig15Breakdown) (int, string, bool) {
			n := br.Counts[core.DecisionSelected]
			share := float64(n) / float64(br.Total)
			return n, fmt.Sprintf(" (%d/%d)", n, br.Total), share >= paperValidShare/tolFactor && share < 0.5
		})},
	{"Fig. 15", "small-bodied (while) loops are the largest rejection class", "~34%",
		"body-too-small is the largest rejection class",
		fig15Share(func(br Fig15Breakdown) (int, string, bool) {
			n := br.Counts[core.DecisionTooSmall]
			for d, m := range br.Counts {
				if d != core.DecisionSelected && d != core.DecisionTooSmall && m >= n {
					return n, "", false
				}
			}
			return n, "", n > 0
		})},
	{"Fig. 15", "low-trip and size limits reject a large block", "~35% combined",
		fmt.Sprintf("low-trip + too-large share ≥ %.1f%%", 100*paperTripSizeShare/tolFactor),
		fig15Share(func(br Fig15Breakdown) (int, string, bool) {
			n := br.Counts[core.DecisionLowTrip] + br.Counts[core.DecisionTooLarge]
			return n, "", float64(n)/float64(br.Total) >= paperTripSizeShare/tolFactor
		})},
	{"Fig. 15", "very few loops exceed the 30-VC search limit", `"only a few"`,
		fmt.Sprintf("too-many-vcs share ≤ %.0f%%", 100*tolFew),
		fig15Share(func(br Fig15Breakdown) (int, string, bool) {
			n := br.Counts[core.DecisionTooManyVCs]
			return n, "", float64(n)/float64(br.Total) <= tolFew
		})},
	{"Fig. 16", "SPT loops cover a minority of cycles", "~30% average",
		fmt.Sprintf("%.0f%% ≤ average coverage < 50%%", 100*paperCoverage/tolFactor),
		func(s *SuiteResult) (string, bool, bool) {
			_, cov, _, ok := fig16Averages(s.Fig16(core.LevelBest))
			return pct(cov) + " average", ok && cov >= paperCoverage/tolFactor && cov < 0.5, ok
		}},
	{"Fig. 16", "far below the maximum loop coverage at the 1000-op limit", "68% max, 44% realized",
		fmt.Sprintf("realized/max ≤ %.2f (paper %.2f + %g%%)", paperRealizedCoverage/paperMaxCoverage*(1+tolAvg),
			paperRealizedCoverage/paperMaxCoverage, 100*tolAvg),
		func(s *SuiteResult) (string, bool, bool) {
			_, cov, maxCov, ok := fig16Averages(s.Fig16(core.LevelBest))
			if !ok || maxCov == 0 {
				return "", false, false
			}
			return fmt.Sprintf("%s max, %s realized", pct(maxCov), pct(cov)),
				cov/maxCov <= paperRealizedCoverage/paperMaxCoverage*(1+tolAvg), true
		}},
	{"Fig. 16", "few SPT loops per benchmark (hot-loop concentration)", "~30",
		fmt.Sprintf("SPT loops per program ≤ %d", paperSPTLoops),
		func(s *SuiteResult) (string, bool, bool) {
			loops, _, _, ok := fig16Averages(s.Fig16(core.LevelBest))
			return fmt.Sprintf("%.1f", loops), ok && loops <= paperSPTLoops, ok
		}},
	{"Fig. 17", "speculative threads run hundreds of instructions", "~400 instr/iteration",
		fmt.Sprintf("%.0f ≤ dyn-ops/iteration ≤ %.0f", paperThreadSize/tolOrder, paperThreadSize*tolOrder),
		func(s *SuiteResult) (string, bool, bool) {
			body, _, ok := fig17Averages(s.Fig17(core.LevelBest))
			return fmt.Sprintf("%.0f dyn-ops/iteration average", body),
				ok && body >= paperThreadSize/tolOrder && body <= paperThreadSize*tolOrder, ok
		}},
	{"Fig. 17", "pre-fork region is a small fraction of the body", `"about 5–10%"`,
		fmt.Sprintf("average pre-fork share ≤ %.0f%%", 100*paperPreForkHigh*(1+tolAvg)),
		func(s *SuiteResult) (string, bool, bool) {
			_, pre, ok := fig17Averages(s.Fig17(core.LevelBest))
			return pct1(pre) + " average", ok && pre <= paperPreForkHigh*(1+tolAvg), ok
		}},
	{"Fig. 18", "misspeculation ratio is small", "~3% average",
		fmt.Sprintf("average misspeculation ≤ %.1f%%", 100*paperMisspec*(1+tolAvg)),
		func(s *SuiteResult) (string, bool, bool) {
			mr, _, ok := fig18Averages(s.Fig18(core.LevelBest))
			return pct1(mr) + " average", ok && mr <= paperMisspec*(1+tolAvg), ok
		}},
	{"Fig. 18", "loop-local speedup well below the 2× bound", "~26% (1.26×)",
		fmt.Sprintf("1× < average loop speedup ≤ %.2f×", paperLoopSpeedup*(1+tolAvg)),
		func(s *SuiteResult) (string, bool, bool) {
			_, sp, ok := fig18Averages(s.Fig18(core.LevelBest))
			return fmt.Sprintf("%.2f× average", sp), ok && sp > 1 && sp <= paperLoopSpeedup*(1+tolAvg), ok
		}},
	{"Fig. 19", "estimates and measurements correlate", `"generally well-correlated"`,
		fmt.Sprintf("at least half the nonzero estimates within %g× of measured", tolEstimate),
		func(s *SuiteResult) (string, bool, bool) {
			n, near := 0, 0
			for _, p := range s.Fig19(core.LevelBest) {
				if p.EstCost <= 0 {
					continue
				}
				n++
				if p.Measured > 0 && math.Max(p.EstCost/p.Measured, p.Measured/p.EstCost) <= tolEstimate {
					near++
				}
			}
			if n == 0 {
				return "", false, false
			}
			return fmt.Sprintf("%d/%d within %g×", near, n, tolEstimate), 2*near >= n, true
		}},
	{"Fig. 19", "discrepancy cluster near the x-axis from calls touching globals",
		`"some loops near the x-axis ... function-calls inside these loops"`,
		"the largest underestimate is a loop with calls",
		func(s *SuiteResult) (string, bool, bool) {
			var worst *Fig19Point
			pts := s.Fig19(core.LevelBest)
			for i := range pts {
				if p := &pts[i]; worst == nil || p.Measured-p.EstCost > worst.Measured-worst.EstCost {
					worst = p
				}
			}
			if worst == nil {
				return "", false, false
			}
			calls := "no calls"
			if worst.HasCalls {
				calls = "calls"
			}
			return fmt.Sprintf("%s loop %d: est %.3f → %.3f, %s", worst.Program, worst.LoopID, worst.EstCost, worst.Measured, calls),
				worst.HasCalls, true
		}},
}

// Claims checks every claim of the paper's evaluation that the suite
// reproduces, one row per claim in the order of EXPERIMENTS.md. Figures
// 15-19 are read at the best compilation, the level the paper reports
// them for. A claim whose data the suite lacks (a partial or degraded
// run) does not hold and measures "n/a".
func Claims(s *SuiteResult) []Claim {
	out := make([]Claim, len(claimSpecs))
	for i, c := range claimSpecs {
		measured, holds, ok := c.check(s)
		if !ok {
			measured, holds = "n/a", false
		}
		out[i] = Claim{Figure: c.figure, Claim: c.claim, Paper: c.paper, Predicate: c.predicate, Measured: measured, Holds: holds}
	}
	return out
}

// WriteClaims prints the claims as the Markdown table EXPERIMENTS.md
// pastes.
func (s *SuiteResult) WriteClaims(w io.Writer) {
	fmt.Fprintln(w, "Paper claims")
	fmt.Fprintln(w, "| figure | claim | paper | predicate | measured | holds |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, c := range Claims(s) {
		mark := "✗"
		if c.Holds {
			mark = "✓"
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join([]string{c.Figure, c.Claim, c.Paper, c.Predicate, c.Measured, mark}, " | "))
	}
}

func pct(v float64) string  { return fmt.Sprintf("%.0f%%", 100*v) }
func pct1(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// ipcExtremes returns the programs with the lowest and highest base IPC.
func ipcExtremes(s *SuiteResult) (lo, hi Table1Row, ok bool) {
	for i, r := range s.Table1() {
		if r.IPC <= 0 {
			return lo, hi, false
		}
		if i == 0 || r.IPC < lo.IPC {
			lo = r
		}
		if i == 0 || r.IPC > hi.IPC {
			hi = r
		}
	}
	return lo, hi, len(s.Runs) > 0
}

// fig14Average checks the Figure 14 average speedup gain at level.
func fig14Average(level core.Level, pred func(gain float64) bool) claimCheck {
	return func(s *SuiteResult) (string, bool, bool) {
		_, avg := s.Fig14()
		sp, ok := avg[level]
		if !ok {
			return "", false, false
		}
		return pct1(sp-1) + " average", pred(sp - 1), true
	}
}

// fig15Share checks a Figure 15 disposition share at the best level;
// pred returns the loop count it measured, a note, and whether it holds.
func fig15Share(pred func(Fig15Breakdown) (int, string, bool)) claimCheck {
	return func(s *SuiteResult) (string, bool, bool) {
		br := s.Fig15(core.LevelBest)
		if br.Total == 0 {
			return "", false, false
		}
		n, note, holds := pred(br)
		return pct(float64(n)/float64(br.Total)) + note, holds, true
	}
}

// fig16Averages returns the per-program averages of Figure 16's SPT loop
// count, coverage and maximum coverage.
func fig16Averages(rows []Fig16Row) (loops, cov, maxCov float64, ok bool) {
	for _, r := range rows {
		loops += float64(r.SPTLoops)
		cov += r.Coverage
		maxCov += r.MaxCoverage
	}
	n := float64(len(rows))
	if n == 0 {
		return 0, 0, 0, false
	}
	return loops / n, cov / n, maxCov / n, true
}

// fig17Averages returns Figure 17's averages over programs with selected
// loops: dynamic ops per iteration and pre-fork share.
func fig17Averages(rows []Fig17Row) (body, pre float64, ok bool) {
	n := 0
	for _, r := range rows {
		if r.SelectedLoops > 0 {
			body += r.AvgBodyOps
			pre += r.AvgPreForkShare
			n++
		}
	}
	if n == 0 {
		return 0, 0, false
	}
	return body / float64(n), pre / float64(n), true
}

// fig18Averages returns Figure 18's averages over programs with SPT loop
// activity: misspeculation ratio and loop-local speedup.
func fig18Averages(rows []Fig18Row) (misspec, speedup float64, ok bool) {
	n := 0
	for _, r := range rows {
		if r.LoopSpeedup > 0 {
			misspec += r.MisspecRatio
			speedup += r.LoopSpeedup
			n++
		}
	}
	if n == 0 {
		return 0, 0, false
	}
	return misspec / float64(n), speedup / float64(n), true
}
