// Package profile implements the three profilers the SPT framework uses
// (§7 of the paper): control-flow edge profiling (reaching probabilities),
// data-dependence profiling (intra- vs cross-iteration true dependences
// with probabilities), and value profiling for software value prediction.
//
// All three run off interpreter hooks in a single profiling execution
// (Run), mirroring the paper's offline profiling runs on trimmed inputs.
package profile

import (
	"cmp"
	"context"
	"io"
	"slices"

	"sptc/internal/interp"
	"sptc/internal/ir"
	"sptc/internal/ssa"
)

// EdgeProfile records block and edge execution counts.
type EdgeProfile struct {
	BlockFreq map[*ir.Block]int64
	// EdgeCount[b][i] counts traversals of b.Succs[i].
	EdgeCount map[*ir.Block][]int64
}

// LoopStats summarizes a loop's dynamic behaviour.
type LoopStats struct {
	Entries    int64 // times the loop was entered from outside
	Iterations int64 // total body iterations (header executions from inside+entry)
	AvgTrip    float64
}

// DepKey identifies a dependence pair relative to one loop, named by its
// header block: the loop's identity in every analysis of the same IR.
type DepKey struct {
	W      *ir.Stmt  // writing statement
	R      *ir.Stmt  // reading statement
	Header *ir.Block // header of the loop
}

// DepCount accumulates observations for one dependence pair.
type DepCount struct {
	ROp      int   // op ID of the reading operation within R
	Intra    int64 // read in the same iteration as the write
	Cross1   int64 // read in the iteration immediately after the write
	CrossAny int64 // read in any strictly later iteration
}

// DepProfile is the result of data-dependence profiling.
type DepProfile struct {
	Pairs map[DepKey]*DepCount
	// WriteExec counts executions of a store statement while a given loop
	// instance was active (the paper's N in "for every N writes at W").
	WriteExec map[stmtLoop]int64
	// StmtExec counts total executions per store statement.
	StmtExec map[*ir.Stmt]int64

	// byLoop lists each loop's Pairs keys in LoopPairs order.
	byLoop map[*ir.Block][]DepKey
}

type stmtLoop struct {
	S      *ir.Stmt
	Header *ir.Block
}

// CrossProb returns the probability that a write at w is read at r in the
// immediately following iteration of the loop headed by header (the
// violation-relevant probability for next-iteration speculation).
func (d *DepProfile) CrossProb(w, r *ir.Stmt, header *ir.Block) float64 {
	c, ok := d.Pairs[DepKey{W: w, R: r, Header: header}]
	if !ok {
		return 0
	}
	n := d.WriteExec[stmtLoop{w, header}]
	if n == 0 {
		return 0
	}
	p := float64(c.Cross1) / float64(n)
	if p > 1 {
		p = 1
	}
	return p
}

// IntraProb returns the probability that a write at w is read at r within
// the same iteration of the loop headed by header.
func (d *DepProfile) IntraProb(w, r *ir.Stmt, header *ir.Block) float64 {
	c, ok := d.Pairs[DepKey{W: w, R: r, Header: header}]
	if !ok {
		return 0
	}
	n := d.WriteExec[stmtLoop{w, header}]
	if n == 0 {
		return 0
	}
	p := float64(c.Intra) / float64(n)
	if p > 1 {
		p = 1
	}
	return p
}

// LoopPairs returns the observed dependence pairs for the loop headed by
// header, ordered by (W.ID, R.ID) with ties between functions broken by
// program order. The slice is shared: callers must not modify it.
func (d *DepProfile) LoopPairs(header *ir.Block) []DepKey {
	return d.byLoop[header]
}

// ValuePattern summarizes the value sequence produced by one statement.
type ValuePattern struct {
	Total int64 // observations with a previous value available
	// BestStride is the most frequent delta between consecutive values;
	// ties go to the smallest |d|, then the smallest d.
	BestStride int64
	BestCount  int64 // occurrences of BestStride
	LastSame   int64 // occurrences of delta 0 (last-value predictable)
}

// Confidence is the fraction of deltas equal to BestStride.
func (v *ValuePattern) Confidence() float64 {
	if v.Total == 0 {
		return 0
	}
	return float64(v.BestCount) / float64(v.Total)
}

// ValueProfile records value patterns for the loop-carried integer
// definitions: the integer assignments a loop-header phi reaches along a
// back edge, directly or through other phis of the same loop. They are
// the only statements software value prediction queries — its violation
// candidates are integer assignments whose value crosses a header phi —
// and Pattern returns nil for every other statement.
type ValueProfile struct {
	patterns map[*ir.Stmt]*ValuePattern
}

// Pattern returns the observed pattern for s, or nil.
func (v *ValueProfile) Pattern(s *ir.Stmt) *ValuePattern {
	p, ok := v.patterns[s]
	if !ok {
		return nil
	}
	cp := *p
	return &cp
}

// Profiles holds what one profiling run collected.
type Profiles struct {
	Edge  *EdgeProfile
	Dep   *DepProfile
	Value *ValueProfile
}

// Run executes prog once under all three profilers and returns their
// profiles. nests maps each function to its loop nest, computed on the
// IR that executes; out receives the program's output. maxSteps > 0
// bounds the run (interp.ErrStepLimit), otherwise the interpreter's
// default applies; ctx cancels it cooperatively.
func Run(ctx context.Context, prog *ir.Program, nests map[*ir.Func]*ssa.LoopNest, out io.Writer, maxSteps int64) (*Profiles, error) {
	c, err := count(ctx, prog, nests, out, maxSteps)
	if err != nil {
		return nil, err
	}
	return c.materialize(prog), nil
}

// count executes prog under the profiler's hooks and returns what they
// counted; Run's arguments have Run's meaning.
func count(ctx context.Context, prog *ir.Program, nests map[*ir.Func]*ssa.LoopNest, out io.Writer, maxSteps int64) (*counts, error) {
	p := newProfiler(prog, nests)
	m := interp.New(prog, out)
	m.Ctx = ctx
	m.Hooks = p.hooks()
	if maxSteps > 0 {
		m.MaxSteps = maxSteps
	}
	if _, err := m.Run(); err != nil {
		return nil, err
	}
	return p.finish(), nil
}

// counts is what one profiling run observed, in dense tables indexed by
// numbers the IR already assigns densely: functions by their position in
// Program.Funcs, blocks by Block.ID, statements by a program-wide index
// (a function's base plus Stmt.ID), and loops by one index each. It
// holds no pointers into the IR, so materialize can turn it into the
// profiles of any program with the same memo key, and nothing modifies
// it once finish returns it.
type counts struct {
	funcs     []*funcInfo   // by function position
	nLoops    int           // loops are indexed in nest order, function by function
	stores    []int32       // by store index: statement index
	stmtExec  []int64       // by store index
	writeExec []int64       // by store index * nLoops + loop index
	pairs     []pairRec     // by loop index, then (W.ID, R.ID), then statement index
	patterns  []stmtPattern // by statement index
}

// funcInfo holds one function's edge counters and loop lookups, all
// indexed by Block.ID.
type funcInfo struct {
	base      int32 // statement index of Stmt.ID 0
	blockFreq []int64
	edgeOff   []int32 // first slot of the block's successors in edges
	edges     []int64
	header    []int32 // index of the loop the block heads, or -1
}

type stmtPattern struct {
	stmt int32 // statement index
	p    ValuePattern
}

// profiler is the state of one run: the counts it fills, plus the
// lookups, loop stacks, shadow memory and value histograms that only the
// run itself needs.
type profiler struct {
	counts
	byFunc map[*ir.Func]*funcInfo
	cur    *funcInfo   // function of the innermost live frame
	stack  []*funcInfo // functions of its callers, innermost last

	stmts    []*ir.Stmt // by statement index
	contains [][]bool   // by loop index: membership by Block.ID within the loop's function

	// Dependence profiling. active is the global stack of live loop
	// instances across the call stack. clock advances on every loop entry
	// and back edge; writes and instances carry clock stamps so reads can
	// classify intra/cross.
	active   []loopInst
	clock    int64
	shadow   []writeRec // by address
	storeIdx []int32    // by statement index: store index, or -1
	pairIdx  map[uint64]int32

	// Value profiling.
	valueIdx []int32 // by statement index: values index, or -1
	values   []valueState
	histBuf  []strideCount // merge scratch shared by every histogram
}

// loopInst is one live loop instance, stamped with the clock at its
// entry, at the start of its current iteration, and at the start of the
// previous iteration (-1 during the first).
type loopInst struct {
	loop                  int32
	frameID               int64
	start, iterAt, prevAt int64
}

// maxSnapDepth is how many of the innermost loop instances live at a
// write a later read can classify the dependence at.
const maxSnapDepth = 6

// writeRec is the shadow of one memory word: the last statement to write
// it, the length of the active stack then, and the clock at the write.
//
// An instance keeps its stack position while it lives and an ended one
// never returns, and every entry advances the clock, so the instance at
// position pos when the word is read is one the write saw iff its start
// is at most t. The write then fell in the current iteration iff that
// began at or before t, and in the previous one iff only the previous
// one did.
type writeRec struct {
	stmt  int32 // statement index + 1; 0 if never written
	depth int32
	t     int64
}

type pairRec struct {
	w, r, loop int32
	c          DepCount
}

// valueState is one statement's value history.
type valueState struct {
	prev    int64
	hasPrev bool
	total   int64
	hist    strideHist
}

func newProfiler(prog *ir.Program, nests map[*ir.Func]*ssa.LoopNest) *profiler {
	p := &profiler{byFunc: make(map[*ir.Func]*funcInfo, len(prog.Funcs)), pairIdx: make(map[uint64]int32)}
	nStmts := 0
	for _, f := range prog.Funcs {
		nStmts += f.NumStmts()
	}
	p.stmts = make([]*ir.Stmt, nStmts)
	p.storeIdx = make([]int32, nStmts)
	p.valueIdx = make([]int32, nStmts)
	for i := range nStmts {
		p.storeIdx[i], p.valueIdx[i] = -1, -1
	}
	base := 0
	for _, f := range prog.Funcs {
		nb := f.NumBlocks()
		fi := &funcInfo{
			base:      int32(base),
			blockFreq: make([]int64, nb),
			edgeOff:   make([]int32, nb),
			header:    make([]int32, nb),
		}
		p.byFunc[f] = fi
		p.funcs = append(p.funcs, fi)
		nEdges := 0
		for _, b := range f.Blocks {
			fi.edgeOff[b.ID] = int32(nEdges)
			nEdges += len(b.Succs)
		}
		fi.edges = make([]int64, nEdges)
		for i := range fi.header {
			fi.header[i] = -1
		}
		var carried []bool
		if nest := nests[f]; nest != nil {
			first := len(p.contains)
			for _, l := range nest.Loops {
				contains := make([]bool, nb)
				for _, b := range l.Blocks {
					contains[b.ID] = true
				}
				fi.header[l.Header.ID] = int32(p.nLoops)
				p.nLoops++
				p.contains = append(p.contains, contains)
			}
			carried = loopCarried(f, nest.Loops, p.contains[first:])
		}
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				i := base + s.ID
				p.stmts[i] = s
				switch {
				case s.Kind == ir.StmtStoreG || s.Kind == ir.StmtStoreA:
					p.storeIdx[i] = int32(len(p.stores))
					p.stores = append(p.stores, int32(i))
				case carried != nil && carried[s.ID] && s.Kind == ir.StmtAssign && s.Dst.Kind == ir.ValInt:
					p.valueIdx[i] = int32(len(p.values))
					p.values = append(p.values, valueState{})
				}
			}
		}
		base += f.NumStmts()
	}
	p.stmtExec = make([]int64, len(p.stores))
	p.writeExec = make([]int64, len(p.stores)*p.nLoops)

	// The shadow memory is allocated per run, not recycled: a run's
	// allocation then depends on the program alone, not on whether an
	// earlier run's shadow survived a garbage collection.
	p.shadow = make([]writeRec, prog.Layout())
	return p
}

// loopCarried returns, by Stmt.ID, f's loop-carried definitions: the
// non-phi statements whose value reaches a header phi of one of loops
// along a back edge, directly or through phis of the same loop. contains
// holds each loop's blocks by Block.ID. These are the only definitions
// a cross-iteration scalar dependence can start from (depgraph's
// resolveUses walks the same phis), so the only ones whose values
// software value prediction can ask for.
func loopCarried(f *ir.Func, loops []*ssa.Loop, contains [][]bool) []bool {
	type site struct {
		s *ir.Stmt
		b *ir.Block
	}
	defs := make([]site, f.NumVars()) // by Var.ID
	for _, b := range f.Blocks {
		for _, s := range b.Stmts {
			if v := s.Defs(); v != nil {
				defs[v.ID] = site{s, b}
			}
		}
	}
	carried := make([]bool, f.NumStmts())
	seen := make([]bool, f.NumStmts()) // phis walked for the current loop
	var in []bool
	var walk func(v *ir.Var)
	walk = func(v *ir.Var) {
		d := defs[v.ID]
		if d.s == nil || !in[d.b.ID] || seen[d.s.ID] {
			return
		}
		if d.s.Kind != ir.StmtPhi {
			carried[d.s.ID] = true
			return
		}
		seen[d.s.ID] = true
		for _, a := range d.s.PhiArgs {
			walk(a)
		}
	}
	for i, l := range loops {
		in = contains[i]
		clear(seen)
		for _, s := range l.Header.Stmts {
			if s.Kind != ir.StmtPhi {
				continue
			}
			for j, a := range s.PhiArgs {
				if j < len(l.Header.Preds) && in[l.Header.Preds[j].ID] {
					walk(a)
				}
			}
		}
	}
	return carried
}

func (p *profiler) hooks() interp.Hooks {
	return interp.Hooks{
		OnEnter: p.onEnter,
		OnExit:  p.onExit,
		OnEdge:  p.onEdge,
		OnLoad:  p.onLoad,
		OnStore: p.onStore,
		OnDef:   p.onDef,
	}
}

func (p *profiler) onEnter(fr *interp.Frame) {
	if p.cur != nil {
		p.stack = append(p.stack, p.cur)
	}
	p.cur = p.byFunc[fr.Func]
	p.cur.blockFreq[fr.Func.Entry.ID]++
	// The entry block may itself be a loop header after transformations;
	// loops are only entered via edges, so nothing else to do.
}

func (p *profiler) onExit(fr *interp.Frame) {
	for len(p.active) > 0 && p.active[len(p.active)-1].frameID == fr.ID {
		p.active = p.active[:len(p.active)-1]
	}
	p.cur = nil
	if n := len(p.stack); n > 0 {
		p.cur = p.stack[n-1]
		p.stack = p.stack[:n-1]
	}
}

func (p *profiler) onEdge(fr *interp.Frame, from, to *ir.Block) {
	fi := p.cur
	fi.blockFreq[to.ID]++
	for i, s := range from.Succs {
		if s == to {
			fi.edges[int(fi.edgeOff[from.ID])+i]++
			break
		}
	}

	// Maintain the active loop stack for this frame.
	for n := len(p.active); n > 0; n-- {
		top := &p.active[n-1]
		if top.frameID != fr.ID || p.contains[top.loop][to.ID] {
			break
		}
		p.active = p.active[:n-1]
	}
	if l := fi.header[to.ID]; l >= 0 {
		p.clock++
		if n := len(p.active); n > 0 && p.active[n-1].loop == l && p.active[n-1].frameID == fr.ID {
			top := &p.active[n-1] // back edge
			top.prevAt, top.iterAt = top.iterAt, p.clock
		} else {
			p.active = append(p.active, loopInst{loop: l, frameID: fr.ID, start: p.clock, iterAt: p.clock, prevAt: -1})
		}
	}
}

func (p *profiler) onStore(fr *interp.Frame, s *ir.Stmt, addr int) {
	w := p.cur.base + int32(s.ID)
	st := int(p.storeIdx[w])
	p.stmtExec[st]++
	p.shadow[addr] = writeRec{stmt: w + 1, depth: int32(len(p.active)), t: p.clock}
	row := p.writeExec[st*p.nLoops:]
	for i := range p.active {
		row[p.active[i].loop]++
	}
}

func (p *profiler) onLoad(fr *interp.Frame, s *ir.Stmt, op *ir.Op, addr int) {
	rec := p.shadow[addr]
	if rec.stmt == 0 {
		return
	}
	// Classify the dependence at every loop instance live at both the
	// write and now, among the write's maxSnapDepth innermost, outermost
	// first (writeRec says why the stamps decide it). Once one has ended,
	// every instance the write saw inside it has ended too.
	w, r, depth := rec.stmt-1, p.cur.base+int32(s.ID), int(rec.depth)
	for pos := max(depth-maxSnapDepth, 0); pos < depth; pos++ {
		if pos >= len(p.active) || p.active[pos].start > rec.t {
			break
		}
		a := &p.active[pos]
		c := p.pair(w, r, a.loop, op)
		switch {
		case a.iterAt <= rec.t:
			c.Intra++
		case a.prevAt <= rec.t:
			c.Cross1++
			c.CrossAny++
		default:
			c.CrossAny++
		}
	}
}

// pair returns the counters of dependence pair (w, r) at loop l, creating
// them (with r's reading op) on first sight.
func (p *profiler) pair(w, r, l int32, op *ir.Op) *DepCount {
	key := (uint64(w)*uint64(len(p.stmts))+uint64(r))*uint64(p.nLoops) + uint64(l)
	i, ok := p.pairIdx[key]
	if !ok {
		i = int32(len(p.pairs))
		p.pairIdx[key] = i
		p.pairs = append(p.pairs, pairRec{w: w, r: r, loop: l, c: DepCount{ROp: op.ID}})
	}
	return &p.pairs[i].c
}

func (p *profiler) onDef(fr *interp.Frame, s *ir.Stmt, v interp.Value) {
	i := p.valueIdx[p.cur.base+int32(s.ID)]
	if i < 0 {
		return
	}
	st := &p.values[i]
	if st.hasPrev {
		st.hist.add(v.Int()-st.prev, &p.histBuf)
		st.total++
	}
	st.prev = v.Int()
	st.hasPrev = true
}

// finish puts the run's tables in their final form — dependence pairs
// in LoopPairs order, value histograms reduced to patterns — and returns
// them without the run's lookups, shadow memory and histograms.
func (p *profiler) finish() *counts {
	slices.SortFunc(p.pairs, func(a, b pairRec) int {
		sa, sb := p.stmts[a.w], p.stmts[b.w]
		ra, rb := p.stmts[a.r], p.stmts[b.r]
		return cmp.Or(cmp.Compare(a.loop, b.loop), cmp.Compare(sa.ID, sb.ID), cmp.Compare(ra.ID, rb.ID),
			cmp.Compare(a.w, b.w), cmp.Compare(a.r, b.r))
	})
	for i, vi := range p.valueIdx {
		if vi < 0 || p.values[vi].total == 0 {
			continue
		}
		st := &p.values[vi]
		p.patterns = append(p.patterns, stmtPattern{stmt: int32(i), p: *bestPattern(st.hist.counts(&p.histBuf), st.total)})
	}
	c := p.counts
	return &c
}

// materialize builds the exported, pointer-keyed profiles of prog, a
// program with the memo key of the one counted.
func (c *counts) materialize(prog *ir.Program) *Profiles {
	edge := &EdgeProfile{BlockFreq: make(map[*ir.Block]int64), EdgeCount: make(map[*ir.Block][]int64)}
	nStmts := 0
	for _, f := range prog.Funcs {
		nStmts += f.NumStmts()
	}
	stmts := make([]*ir.Stmt, nStmts)      // by statement index
	headers := make([]*ir.Block, c.nLoops) // by loop index
	for fn, f := range prog.Funcs {
		fi := c.funcs[fn]
		for _, b := range f.Blocks {
			if l := fi.header[b.ID]; l >= 0 {
				headers[l] = b
			}
			if n := fi.blockFreq[b.ID]; n > 0 {
				edge.BlockFreq[b] = n
			}
			off := int(fi.edgeOff[b.ID])
			counts := fi.edges[off : off+len(b.Succs)]
			if slices.ContainsFunc(counts, func(c int64) bool { return c > 0 }) {
				edge.EdgeCount[b] = slices.Clone(counts)
			}
			for _, s := range b.Stmts {
				stmts[int(fi.base)+s.ID] = s
			}
		}
	}
	dep := &DepProfile{
		Pairs:     make(map[DepKey]*DepCount, len(c.pairs)),
		WriteExec: make(map[stmtLoop]int64),
		StmtExec:  make(map[*ir.Stmt]int64),
		byLoop:    make(map[*ir.Block][]DepKey),
	}
	for st, w := range c.stores {
		s := stmts[w]
		if n := c.stmtExec[st]; n > 0 {
			dep.StmtExec[s] = n
		}
		for l, n := range c.writeExec[st*c.nLoops : (st+1)*c.nLoops] {
			if n > 0 {
				dep.WriteExec[stmtLoop{s, headers[l]}] = n
			}
		}
	}
	for i := range c.pairs {
		pr := &c.pairs[i]
		h := headers[pr.loop]
		k := DepKey{W: stmts[pr.w], R: stmts[pr.r], Header: h}
		dc := pr.c
		dep.Pairs[k] = &dc
		dep.byLoop[h] = append(dep.byLoop[h], k)
	}

	val := &ValueProfile{patterns: make(map[*ir.Stmt]*ValuePattern, len(c.patterns))}
	for i := range c.patterns {
		sp := &c.patterns[i]
		val.patterns[stmts[sp.stmt]] = &sp.p
	}
	return &Profiles{Edge: edge, Dep: dep, Value: val}
}

// Apply writes the edge profile into Block.Freq and Block.SuccProb for
// every block observed. Unobserved two-way branches get a 50/50 split.
func (e *EdgeProfile) Apply(prog *ir.Program) {
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			b.Freq = float64(e.BlockFreq[b])
			if len(b.Succs) == 0 {
				b.SuccProb = nil
				continue
			}
			b.SuccProb = make([]float64, len(b.Succs))
			counts := e.EdgeCount[b]
			var total int64
			for _, c := range counts {
				total += c
			}
			if total == 0 {
				for i := range b.SuccProb {
					b.SuccProb[i] = 1 / float64(len(b.Succs))
				}
				continue
			}
			for i := range b.SuccProb {
				b.SuccProb[i] = float64(counts[i]) / float64(total)
			}
		}
	}
}

// Stats computes dynamic statistics for one loop from the edge profile.
func (e *EdgeProfile) Stats(l *ssa.Loop) LoopStats {
	var entries, backs int64
	for _, pred := range l.Header.Preds {
		counts := e.EdgeCount[pred]
		if counts == nil {
			continue
		}
		for i, s := range pred.Succs {
			if s != l.Header {
				continue
			}
			if l.Contains(pred) {
				backs += counts[i]
			} else {
				entries += counts[i]
			}
		}
	}
	st := LoopStats{Entries: entries, Iterations: backs + entries}
	// For a canonical while/for loop the header executes once more than
	// the body per entry; iterations of the *body* are backs + entries
	// minus early exits. Using backs+entries approximates body runs for
	// loops that execute at least one iteration per entry.
	if entries > 0 {
		st.AvgTrip = float64(st.Iterations) / float64(entries)
	}
	return st
}

// StaticEstimate fills Freq/SuccProb with static heuristics when no
// profile is available: branch edges split 50/50 except loop back edges,
// which get probability 0.9 (the classic static loop heuristic).
func StaticEstimate(f *ir.Func, nest *ssa.LoopNest) {
	inLoopDepth := func(b *ir.Block) int {
		d := 0
		for _, l := range nest.Loops {
			if l.Contains(b) {
				d++
			}
		}
		return d
	}
	for _, b := range f.Blocks {
		b.Freq = 1
		for d := inLoopDepth(b); d > 0; d-- {
			b.Freq *= 10
		}
		if len(b.Succs) == 0 {
			continue
		}
		b.SuccProb = make([]float64, len(b.Succs))
		if len(b.Succs) == 1 {
			b.SuccProb[0] = 1
			continue
		}
		// Favor staying in the loop.
		for i, s := range b.Succs {
			var stays bool
			for _, l := range nest.Loops {
				if l.Contains(b) && l.Contains(s) {
					stays = true
					break
				}
			}
			if stays {
				b.SuccProb[i] = 0.9
			} else {
				b.SuccProb[i] = 0.1
			}
		}
		// Normalize.
		sum := 0.0
		for _, p := range b.SuccProb {
			sum += p
		}
		if sum == 0 {
			for i := range b.SuccProb {
				b.SuccProb[i] = 1 / float64(len(b.Succs))
			}
		} else {
			for i := range b.SuccProb {
				b.SuccProb[i] /= sum
			}
		}
	}
}
