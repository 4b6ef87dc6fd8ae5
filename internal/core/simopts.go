package core

import (
	"sptc/internal/depgraph"
	"sptc/internal/ir"
	"sptc/internal/machine"
)

// SimulationOptions assembles machine.RunOptions for a compiled program:
// SPT headers with their loop IDs and the block membership of every SPT
// loop on the final IR. Shared by the root package, the evaluation
// harness, and the compilation service.
func SimulationOptions(res *Result) machine.RunOptions {
	opt := machine.RunOptions{
		SPTHeaders: make(map[*ir.Block]int),
		LoopBlocks: make(map[*ir.Block]map[*ir.Block]bool),
	}
	for _, sl := range res.SPT {
		if sl.Loop == nil {
			continue // transformed away (e.g. fully dead)
		}
		opt.SPTHeaders[sl.Header] = sl.ID
		set := make(map[*ir.Block]bool, len(sl.Loop.Blocks))
		for _, b := range sl.Loop.Blocks {
			set[b] = true
		}
		opt.LoopBlocks[sl.Header] = set
	}
	return opt
}

// CoverageOptions returns RunOptions that attribute cycles to every
// natural loop of the program whose body size is at most maxBody ops
// (used to measure the paper's Figure 16 "maximum coverage"). Keys are
// sequential loop indexes; the returned slice maps key -> body size.
func CoverageOptions(prog *ir.Program, maxBody int) (machine.RunOptions, []int) {
	opt := machine.RunOptions{
		AttributeLoops: make(map[*ir.Block]int),
		LoopBlocks:     make(map[*ir.Block]map[*ir.Block]bool),
	}
	var sizes []int
	for _, f := range prog.Funcs {
		for _, l := range depgraph.Analyze(f).Loops.Loops {
			size := l.BodySize()
			if maxBody > 0 && size > maxBody {
				continue
			}
			key := len(sizes)
			sizes = append(sizes, size)
			opt.AttributeLoops[l.Header] = key
			set := make(map[*ir.Block]bool, len(l.Blocks))
			for _, b := range l.Blocks {
				set[b] = true
			}
			opt.LoopBlocks[l.Header] = set
		}
	}
	return opt, sizes
}

// MaxCoverage returns the share of sim's cycles spent in the loops it
// attributed: the paper's Figure 16 maximum coverage for a run made with
// CoverageOptions.
func MaxCoverage(sim *machine.Result) float64 {
	if sim.Cycles == 0 {
		return 0
	}
	var covered float64
	for _, c := range sim.CyclesByLoop {
		covered += c
	}
	return covered / sim.Cycles
}

// ParseDecision maps a Decision.String() name back to the Decision; ok
// is false for an unknown name. The compilation service uses it to
// reconstruct loop reports from wire responses.
func ParseDecision(name string) (Decision, bool) {
	for d := DecisionSelected; d <= DecisionDegraded; d++ {
		if d.String() == name {
			return d, true
		}
	}
	return 0, false
}

// ParseLevel maps the external level names (CLI flags, service requests)
// to core levels; ok is false for an unknown name. allowBase admits the
// non-SPT reference level.
func ParseLevel(name string, allowBase bool) (Level, bool) {
	switch name {
	case "base":
		if allowBase {
			return LevelBase, true
		}
	case "basic":
		return LevelBasic, true
	case "best":
		return LevelBest, true
	case "anticipated":
		return LevelAnticipated, true
	}
	return 0, false
}
