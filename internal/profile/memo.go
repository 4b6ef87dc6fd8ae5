package profile

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"sync"

	"sptc/internal/ir"
	"sptc/internal/ssa"
)

// Memo shares profiling runs between identical programs: compiles of one
// source at different levels often profile the same IR (basic and best
// do, because SVP rewrites the program only after its first profile).
// It maps a program's
// exact key (ir.AppendExecKey, plus its loop nests and the step bound)
// to the counts of one successful run; a hit materializes those counts
// against the requesting program, the same path a fresh run takes, so
// the profiles equal what a run of that program would produce.
//
// Only successful runs are stored. Concurrent misses on one key both run
// — the price is time, never correctness — so a run stopped by one
// caller's deadline never fails another caller. A Memo is safe for
// concurrent use; the nil *Memo stores nothing.
type Memo struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]*counts

	// observe, when set (by tests), sees every profile Run returns.
	observe func(prog *ir.Program, nests map[*ir.Func]*ssa.LoopNest, prof *Profiles, hit bool)
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{m: make(map[[sha256.Size]byte]*counts)}
}

// Run returns the profiles of prog: Run's result with the program's
// output discarded. hit reports that they came from the memo and no
// program was executed. On a nil Memo, Run always executes.
func (m *Memo) Run(ctx context.Context, prog *ir.Program, nests map[*ir.Func]*ssa.LoopNest, maxSteps int64) (prof *Profiles, hit bool, err error) {
	if m == nil {
		prof, err = Run(ctx, prog, nests, io.Discard, maxSteps)
		return prof, false, err
	}
	key := memoKey(prog, nests, maxSteps)
	m.mu.Lock()
	c, hit := m.m[key]
	m.mu.Unlock()
	if !hit {
		if c, err = count(ctx, prog, nests, io.Discard, maxSteps); err != nil {
			return nil, false, err
		}
		m.mu.Lock()
		m.m[key] = c
		m.mu.Unlock()
	}
	prof = c.materialize(prog)
	if m.observe != nil {
		m.observe(prog, nests, prof, hit)
	}
	return prof, hit, nil
}

// memoKey digests prog's exact key, the loops the profiler tracks (each
// header and its blocks, by ID) and the step bound, which decides whether
// a run completes.
func memoKey(prog *ir.Program, nests map[*ir.Func]*ssa.LoopNest, maxSteps int64) [sha256.Size]byte {
	b := ir.AppendExecKey(nil, prog)
	for _, f := range prog.Funcs {
		nest := nests[f]
		if nest == nil {
			b = binary.AppendVarint(b, -1)
			continue
		}
		b = binary.AppendVarint(b, int64(len(nest.Loops)))
		for _, l := range nest.Loops {
			b = binary.AppendVarint(b, int64(l.Header.ID))
			b = binary.AppendVarint(b, int64(len(l.Blocks)))
			for _, blk := range l.Blocks {
				b = binary.AppendVarint(b, int64(blk.ID))
			}
		}
	}
	b = binary.AppendVarint(b, maxSteps)
	return sha256.Sum256(b)
}
