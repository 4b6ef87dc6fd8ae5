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
