package machine

import (
	"fmt"

	"sptc/internal/ir"
)

// iterRun describes one executed loop iteration. The fork's context
// snapshot and undo log live in the sim's pooled buffers (one fork is
// live at a time), not here.
type iterRun struct {
	cycles    float64 // work cycles for the iteration (excl. fork overhead)
	preCycles float64 // cycles from iteration start to the fork point
	memCycles float64 // shared-memory cycles in the iteration
	preMem    float64 // shared-memory cycles before the fork point
	ops       int64
	forked    bool
	next      *ir.Block // header (another iteration) or an exit block
	prev      *ir.Block // predecessor block on arrival at next
}

// ensureSpecMem lazily allocates the address-indexed speculative buffers
// (undo log, write-set, write taint) at the first fork. A pooled engine
// may carry buffers from a smaller program; grow them to cover the
// current memory image (stamps restart at zero, reading as absent).
func (s *sim) ensureSpecMem() {
	if len(s.undoVal) < len(s.mem) {
		n := len(s.mem)
		s.undoVal = make([]Value, n)
		s.undoGen = make([]uint32, n)
		s.writtenGen = make([]uint32, n)
		s.taintMemGen = make([]uint32, n)
		s.undoStamp, s.specStamp = 0, 0
	}
}

// bumpStamp advances a generation stamp, clearing the stamped buffers on
// the (practically unreachable) uint32 wrap so stale stamps can never
// read as current.
func bumpStamp(stamp *uint32, bufs ...[]uint32) {
	*stamp++
	if *stamp == 0 {
		for _, b := range bufs {
			clear(b)
		}
		*stamp = 1
	}
}

// snapshotFrame copies the loop frame's base-variable file (values and
// generation stamps) into the pooled fork-time snapshot.
func (s *sim) snapshotFrame(fr *frame) {
	n := len(fr.baseVals)
	if cap(s.snapVals) < n {
		s.snapVals = make([]Value, n)
		s.snapGen = make([]uint32, n)
	}
	s.snapVals = s.snapVals[:n]
	s.snapGen = s.snapGen[:n]
	copy(s.snapVals, fr.baseVals)
	copy(s.snapGen, fr.baseGen)
}

// beginSpecLeg prepares the pooled per-leg buffers: the defined-set for
// the loop frame's variables and a fresh write-set generation.
func (s *sim) beginSpecLeg(fr *frame) {
	n := len(fr.regs)
	if cap(s.defGen) < n {
		s.defGen = make([]uint32, n)
	}
	s.defGen = s.defGen[:n]
	bumpStamp(&s.defStamp, s.defGen)
	bumpStamp(&s.specStamp, s.writtenGen, s.taintMemGen)
}

// runIteration executes one iteration of the active SPT loop starting at
// from (entered from prev), stopping when control is back at the header
// or out of the loop (s.stopHdr, s.stopIn). When mainLeg is set, the
// fork instruction snapshots the context and opens the undo log. The
// result is written into the caller-provided it, so the per-iteration
// bookkeeping does not allocate.
func (s *sim) runIteration(it *iterRun, fr *frame, from, prev *ir.Block, mainLeg bool) error {
	*it = iterRun{}
	c0, o0, m0 := s.cycles, s.ops, s.memCycles

	if mainLeg {
		s.forkIter, s.forkFrame = it, fr
		s.forkC0, s.forkM0 = c0, m0
	}

	out, err := s.execByte(fr, from, prev, true)
	if mainLeg {
		s.forkIter, s.forkFrame = nil, nil
		s.undoActive = false
	}
	if err != nil {
		return err
	}
	it.cycles = s.cycles - c0
	it.memCycles = s.memCycles - m0
	if it.forked {
		it.cycles -= s.cfg.ForkOverhead
	}
	it.ops = s.ops - o0
	it.next = out.stopped
	it.prev = out.prev
	return nil
}

// onFork handles the loop's own fork instruction during a main leg: it
// marks the fork point, snapshots the register context and opens a fresh
// undo-log generation.
func (s *sim) onFork(fr *frame) {
	it := s.forkIter
	if it.forked || fr != s.forkFrame {
		return // only the loop's own fork, once
	}
	it.forked = true
	it.preCycles = s.cycles - s.forkC0
	it.preMem = s.memCycles - s.forkM0
	s.cycles += s.cfg.ForkOverhead
	s.ensureSpecMem()
	s.snapshotFrame(fr)
	bumpStamp(&s.undoStamp, s.undoGen)
	s.undoActive = true
}

// LoopBlocksError reports a RunOptions.LoopBlocks set that holds a
// returning block. The SPT runner executes a loop one iteration at a
// time and has no exit for a return from inside one. A natural loop
// never holds a return block (it cannot reach the loop header), so only
// a hand-built set does; Run rejects it before executing anything.
type LoopBlocksError struct {
	Header int // the loop header's block ID
	Block  int // the returning block's ID
}

func (e *LoopBlocksError) Error() string {
	return fmt.Sprintf("machine: loop b%d: block b%d returns from inside the loop", e.Header, e.Block)
}

// checkLoopBlocks rejects loop block sets that hold a returning block.
func checkLoopBlocks(sets map[*ir.Block]map[*ir.Block]bool) error {
	for hdr, blocks := range sets {
		for b := range blocks {
			if t := b.Terminator(); t != nil && t.Kind == ir.StmtRet {
				return &LoopBlocksError{Header: hdr.ID, Block: b.ID}
			}
		}
	}
	return nil
}

// runSPTLoop executes one dynamic instance of an SPT loop in the paper's
// pairwise execution model. It returns the exit block and the
// predecessor with which normal execution resumes.
func (s *sim) runSPTLoop(fr *frame, header, prev *ir.Block, loopID int) (*ir.Block, *ir.Block, error) {
	st := s.loops[loopID]
	if st == nil {
		st = &LoopStats{}
		s.loops[loopID] = st
	}
	st.Invocations++
	inLoop := s.loopBlocks[header]
	if inLoop == nil {
		return nil, nil, fmt.Errorf("machine: no block set for SPT loop %d", loopID)
	}

	s.sptActive = true
	defer func() { s.sptActive = false }()

	// The iterations stop at the header or on leaving the loop; the
	// dense block set is built once per run per header.
	dense := s.inLoopDense[header]
	if dense == nil {
		lfn := s.low.fns[fr.fn]
		dense = make([]bool, len(lfn.blocks))
		for i, b := range lfn.blocks {
			dense[i] = inLoop[b]
		}
		if s.inLoopDense == nil {
			s.inLoopDense = make(map[*ir.Block][]bool)
		}
		s.inLoopDense[header] = dense
	}
	s.stopHdr, s.stopIn = header, dense
	defer func() { s.stopHdr, s.stopIn = nil, nil }()

	elapsed0 := s.cycles
	cur, curPrev := header, prev
	var j, sp iterRun
	for {
		// Main leg: iteration j.
		if err := s.runIteration(&j, fr, cur, curPrev, true); err != nil {
			return nil, nil, err
		}
		st.Iterations++
		st.SeqCycles += j.cycles

		if j.next != header {
			// Loop exited during the main leg. A pending fork (exit after
			// the fork point) spawned a speculative thread that the
			// SPT_KILL on the exit edge already discarded.
			if j.forked {
				st.Forks++
				st.Kills++
			}
			st.Elapsed += s.cycles - elapsed0
			return j.next, j.prev, nil
		}
		if !j.forked {
			// No fork executed (should not happen for a transformed loop
			// that stays inside); continue sequentially.
			cur, curPrev = j.next, j.prev
			continue
		}
		st.Forks++

		// Speculative leg: iteration j+1, executed functionally while
		// checking what the speculative thread would have observed. The
		// fork-time snapshot and undo log from leg j are still current in
		// the pooled buffers.
		s.beginSpecLeg(fr)
		s.specBuf = specCtx{loopFrame: fr}
		s.spec = &s.specBuf
		err := s.runIteration(&sp, fr, header, j.prev, false)
		spec := s.spec
		s.spec = nil
		if err != nil {
			return nil, nil, err
		}
		st.Iterations++
		st.SpecIters++
		st.SeqCycles += sp.cycles
		st.SpecOps += spec.ops
		st.SpecCycles += sp.cycles
		st.ReexecOps += spec.reexecOps
		st.ReexecCycles += spec.reexecCycles
		if spec.reexecOps > 0 {
			st.MisspecIters++
		}

		// Pair timing: the speculative thread starts ForkOverhead after
		// the main leg's pre-fork region; the main thread commits at the
		// later of both completions, then re-executes misspeculated work.
		// The cores share the L2/L3/memory path, so below-L1 cycles of
		// the two concurrent legs serialize rather than overlap.
		mainWork := j.cycles + s.cfg.ForkOverhead // as accumulated serially
		specWork := sp.cycles
		tFork := j.preCycles + s.cfg.ForkOverhead
		contention := j.memCycles - j.preMem // post-fork shared-memory time
		if sp.memCycles < contention {
			contention = sp.memCycles
		}
		contention *= s.cfg.MemContention
		pairTime := tFork + j.cycles - j.preCycles // main finishes j
		specEnd := tFork + specWork
		if specEnd > pairTime {
			pairTime = specEnd
		}
		pairTime += contention
		pairTime += s.cfg.CommitOverhead + spec.reexecCycles
		serial := mainWork + specWork
		s.cycles += pairTime - serial // adjust for overlap (negative when speculation wins)

		if sp.next != header {
			st.Elapsed += s.cycles - elapsed0
			return sp.next, sp.prev, nil
		}
		cur, curPrev = sp.next, sp.prev
	}
}
