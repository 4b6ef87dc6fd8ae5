package profile

import (
	"sptc/internal/ir"
	"sptc/internal/ssa"
)

// StmtLoop names DepProfile.WriteExec's key type for the reference
// profiler in profile_test.
type StmtLoop = stmtLoop

// MemoKey exposes the memo's key for the key-sensitivity tests.
var MemoKey = memoKey

// MemoLen returns the number of stored runs.
func MemoLen(m *Memo) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// ObserveMemo makes m call fn with every profile its Run returns.
func ObserveMemo(m *Memo, fn func(prog *ir.Program, nests map[*ir.Func]*ssa.LoopNest, prof *Profiles, hit bool)) {
	m.observe = fn
}

// ValueStmts returns the statements a profiling run of prog keeps value
// histograms for: the integer assignments loopCarried finds, as
// newProfiler selects them.
func ValueStmts(prog *ir.Program, nests map[*ir.Func]*ssa.LoopNest) map[*ir.Stmt]bool {
	set := make(map[*ir.Stmt]bool)
	for _, f := range prog.Funcs {
		nest := nests[f]
		if nest == nil {
			continue
		}
		contains := make([][]bool, len(nest.Loops))
		for i, l := range nest.Loops {
			contains[i] = make([]bool, f.NumBlocks())
			for _, b := range l.Blocks {
				contains[i][b.ID] = true
			}
		}
		carried := loopCarried(f, nest.Loops, contains)
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				if carried[s.ID] && s.Kind == ir.StmtAssign && s.Dst.Kind == ir.ValInt {
					set[s] = true
				}
			}
		}
	}
	return set
}
