package machine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"sptc/internal/interp"
	"sptc/internal/ir"
	"sptc/internal/resilience"
	"sptc/internal/trace"
)

// injectRun lets tests and CLIs force a fault at simulator entry
// (see internal/resilience).
var injectRun = resilience.Register("machine.run")

// Value aliases the interpreter's runtime value.
type Value = interp.Value

// LoopStats accumulates per-SPT-loop metrics. It is also the wire form
// the compilation service serves (the loop ID is the Result.Loops key).
type LoopStats struct {
	Invocations  int64   `json:"invocations"`
	Iterations   int64   `json:"iterations"`    // total iterations executed (main + spec)
	SpecIters    int64   `json:"spec_iters"`    // iterations executed speculatively
	MisspecIters int64   `json:"misspec_iters"` // speculative iterations with any re-execution
	SpecOps      int64   `json:"spec_ops"`      // instructions executed speculatively
	ReexecOps    int64   `json:"reexec_ops"`    // instructions re-executed due to misspeculation
	SpecCycles   float64 `json:"spec_cycles"`
	ReexecCycles float64 `json:"reexec_cycles"`
	SeqCycles    float64 `json:"seq_cycles"` // work cycles (what sequential execution would cost)
	Elapsed      float64 `json:"elapsed"`    // actual cycles attributed to the loop under SPT
	Forks        int64   `json:"forks"`
	Kills        int64   `json:"kills"`
}

// ReexecRatio is the fraction of speculative computation re-executed
// (Figure 19's y-axis).
func (l *LoopStats) ReexecRatio() float64 {
	if l.SpecOps == 0 {
		return 0
	}
	return float64(l.ReexecOps) / float64(l.SpecOps)
}

// LoopSpeedup is the loop-local speedup over sequential execution
// (Figure 18).
func (l *LoopStats) LoopSpeedup() float64 {
	if l.Elapsed == 0 {
		return 1
	}
	return l.SeqCycles / l.Elapsed
}

// Result is the outcome of one simulation. It is also the wire form the
// compilation service serves; CyclesByLoop stays on the executing side.
type Result struct {
	Cycles        float64 `json:"cycles"`
	Ops           int64   `json:"ops"` // dynamic instructions, excluding nops/phis/operand refs
	BranchLookups int64   `json:"branch_lookups"`
	BranchMisses  int64   `json:"branch_misses"`
	MemAccesses   int64   `json:"mem_accesses"`

	Loops map[int]*LoopStats `json:"loops,omitempty"`

	// CyclesByLoop attributes cycles to statically identified loops when
	// loop attribution was requested (coverage measurements).
	CyclesByLoop map[int]float64 `json:"-"`
}

// IPC returns instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Ops) / r.Cycles
}

// RunOptions configure a simulation run.
type RunOptions struct {
	// SPTHeaders maps SPT loop headers to loop IDs; those loops execute
	// in the speculative pairwise model.
	SPTHeaders map[*ir.Block]int
	// AttributeLoops maps arbitrary loop headers to keys; cycles executed
	// while inside such a loop are attributed to its key (innermost
	// wins). Used for coverage measurements.
	AttributeLoops map[*ir.Block]int
	// LoopBlocks gives the block membership for every header in
	// SPTHeaders and AttributeLoops. A set may not hold a block that
	// returns (see LoopBlocksError).
	LoopBlocks map[*ir.Block]map[*ir.Block]bool
	Out        io.Writer
	// Trace receives one span covering the whole run, carrying the
	// simulation counters (sim_instructions, cycles, forks, misspec
	// iterations, ...). Nil disables tracing at no cost.
	Trace *trace.Track
	// Context, when set, cancels the simulation cooperatively: it is
	// polled every ctxPollSteps simulated statements.
	Context context.Context
}

// ctxPollSteps is how often (in simulated statements) the simulator
// polls Context for cancellation.
const ctxPollSteps = 4096

// ErrStepLimit mirrors the interpreter's limit error.
var ErrStepLimit = errors.New("machine: step limit exceeded")

// frame is one function activation. Registers, base-variable values and
// taint are dense arrays indexed by the function's per-program variable
// numbering (ir.Var.ID / Var.Base.ID), stamped with the frame's
// generation: a slot whose stamp differs from gen is absent and reads as
// the zero Value, exactly like a missing map key. Frames are pooled per
// function; reuse bumps gen instead of clearing the arrays.
type frame struct {
	fn   *ir.Func
	pool *framePoolEntry
	regs []Value
	// baseVals tracks the latest value per base variable — the physical
	// register file the fork instruction copies into the speculative
	// thread's context (SSA versions are a compiler artifact).
	baseVals []Value
	regGen   []uint32
	baseGen  []uint32
	taint    []uint32 // taint[id] == gen: tainted during the speculative leg
	gen      uint32
	depth    int
}

func (fr *frame) reg(v *ir.Var) Value {
	if fr.regGen[v.ID] == fr.gen {
		return fr.regs[v.ID]
	}
	return Value{}
}

func (fr *frame) baseVal(v *ir.Var) Value {
	if fr.baseGen[v.ID] == fr.gen {
		return fr.baseVals[v.ID]
	}
	return Value{}
}

func (fr *frame) setReg(v *ir.Var, val Value) {
	fr.regs[v.ID] = val
	fr.regGen[v.ID] = fr.gen
	fr.baseVals[v.Base.ID] = val
	fr.baseGen[v.Base.ID] = fr.gen
}

func (fr *frame) setTaint(v *ir.Var, tnt bool) {
	if tnt {
		fr.taint[v.ID] = fr.gen
	} else {
		fr.taint[v.ID] = 0
	}
}

// specCtx tracks the merged functional/speculative evaluation of one
// speculatively executed iteration. The per-fork buffers (context
// snapshot, undo log, write-set) live on the sim and are pooled across
// forks: SPT regions never nest, so exactly one speculative leg is live
// at a time and a generation stamp per fork replaces reallocation.
type specCtx struct {
	loopFrame *frame

	ops          int64
	reexecOps    int64
	reexecCycles float64
}

type sim struct {
	cfg  Config
	prog *ir.Program
	mem  []Value
	ctx  context.Context
	hier *hierarchy
	bpM  *branchPredictor // main core
	bpS  *branchPredictor // speculative core
	out  io.Writer

	cycles    float64
	ops       int64
	steps     int64
	memCycles float64 // cycles spent below L1 (shared L2/L3/memory)

	spt        map[*ir.Block]int
	loopBlocks map[*ir.Block]map[*ir.Block]bool
	loops      map[int]*LoopStats
	sptActive  bool
	undoActive bool     // post-fork undo log open (main leg)
	spec       *specCtx // active speculative leg
	specBuf    specCtx  // storage for spec (reused per leg)

	// Fork-hook state, armed during main SPT legs (see onFork).
	forkIter       *iterRun
	forkFrame      *frame
	forkC0, forkM0 float64

	framePool map[*ir.Func]*framePoolEntry

	// Pooled per-fork speculative buffers (see specCtx). The memory-side
	// buffers are indexed by address and allocated lazily at the first
	// fork; the register-side buffers are indexed by the loop frame's
	// variable numbering and grown to the widest function seen.
	undoVal     []Value  // fork-time values of post-fork-written addrs
	undoGen     []uint32 // == undoStamp: address present in the undo log
	writtenGen  []uint32 // == specStamp: written by the speculative leg
	taintMemGen []uint32 // == specStamp: that write was tainted
	undoStamp   uint32
	specStamp   uint32

	snapVals []Value  // loop frame base values at fork time
	snapGen  []uint32 // copy of the frame's baseGen at fork time
	defGen   []uint32 // == defStamp: defined in the speculative iteration
	defStamp uint32

	phiVals   []Value // scratch for parallel phi evaluation
	phiTaints []bool
	argBuf    []Value // stack-discipline scratch for call arguments

	// Bytecode engine state (see bytecode.go / bcexec.go).
	low    *loweredProg // the program's lowered functions
	vstack []tval       // operand stack, stack-disciplined across nested calls
	// sptID is the dense form of RunOptions.SPTHeaders, indexed by the
	// lowered function's block numbering (instr.b), so block entry tests
	// a slice instead of a map. -1 marks a non-header block.
	sptID map[*ir.Func][]int32
	// The active SPT loop: an iteration's activation stops when control
	// reaches stopHdr or leaves the loop's blocks. stopIn is the block
	// set in dense form, so the hot jump path tests a slice, not a map.
	stopHdr     *ir.Block
	stopIn      []bool               // by the loop function's dense block index
	inLoopDense map[*ir.Block][]bool // per-run cache, keyed by loop header

	// walk, when set, runs every activation in place of execByte. Only
	// tests set it, to the reference tree walker the bytecode engine is
	// checked against (walker_test.go); production leaves it nil.
	walk func(s *sim, fr *frame, blk, prev *ir.Block, leg bool) (execOutcome, error)

	// loop attribution
	attr      map[*ir.Block]int
	attrStack []attrEntry
	attrCyc   map[int]float64
	lastAttr  float64 // cycle checkpoint for attribution
}

type framePoolEntry struct{ frames []*frame }

// acquireFrame takes a frame for f from the pool, or allocates one sized
// to the function's variable numbering.
func (s *sim) acquireFrame(f *ir.Func, depth int) *frame {
	e := s.framePool[f]
	if e == nil {
		e = &framePoolEntry{}
		s.framePool[f] = e
	}
	if n := len(e.frames); n > 0 {
		fr := e.frames[n-1]
		e.frames = e.frames[:n-1]
		fr.gen++
		if fr.gen == 0 { // stamp wrap: reset to a pristine frame
			clear(fr.regGen)
			clear(fr.baseGen)
			clear(fr.taint)
			fr.gen = 1
		}
		fr.depth = depth
		return fr
	}
	n := f.NumVars()
	return &frame{
		fn:       f,
		pool:     e,
		regs:     make([]Value, n),
		baseVals: make([]Value, n),
		regGen:   make([]uint32, n),
		baseGen:  make([]uint32, n),
		taint:    make([]uint32, n),
		gen:      1,
		depth:    depth,
	}
}

func (s *sim) releaseFrame(fr *frame) {
	fr.pool.frames = append(fr.pool.frames, fr)
}

type attrEntry struct {
	key    int
	header *ir.Block
	fr     *frame
}

// bp returns the active core's branch predictor.
func (s *sim) bp() *branchPredictor {
	if s.spec != nil {
		return s.bpS
	}
	return s.bpM
}

// enginePool recycles engines for the one-shot Run API, so even callers
// that never hold an Engine amortize the per-run machine state (memory
// image, cache and predictor tables, frame pools, operand stacks).
// Engine.reset re-establishes run-fresh semantics, so pooled and fresh
// engines produce bit-identical results (TestEngineFidelity covers the
// reuse path explicitly).
var enginePool = sync.Pool{New: func() any { return NewEngine() }}

// Run simulates the program to completion on a pooled engine. Callers
// with many independent simulations should use an Engine (or RunBatch),
// which pins the pooled per-run machine state to a worker; the results
// are identical either way.
func Run(prog *ir.Program, cfg Config, opt RunOptions) (*Result, error) {
	e := enginePool.Get().(*Engine)
	res, err := e.Run(prog, cfg, opt)
	enginePool.Put(e)
	return res, err
}

func (s *sim) call(f *ir.Func, args []Value, depth int) (Value, error) {
	v, _, err := s.callTainted(f, args, depth, false)
	return v, err
}

// popAttrFrame drops attribution entries belonging to a returning frame.
func (s *sim) popAttrFrame(fr *frame) {
	if s.attr == nil {
		return
	}
	s.flushAttr()
	for len(s.attrStack) > 0 && s.attrStack[len(s.attrStack)-1].fr == fr {
		s.attrStack = s.attrStack[:len(s.attrStack)-1]
	}
}

type execOutcome struct {
	ret      bool
	retVal   Value
	retTaint bool      // the returned value depends on violated speculative state
	stopped  *ir.Block // set when an SPT iteration stopped here (block not executed)
	prev     *ir.Block // predecessor on arrival at stopped
}

// readVar reads a scalar, performing the speculative context check: a
// variable not yet defined in the speculative iteration was provided by
// the fork-time context copy (one value per base variable — a physical
// register); if the main thread has since produced a different value for
// that register, the read is violated.
func (s *sim) readVar(fr *frame, v *ir.Var) (Value, bool) {
	val := fr.reg(v)
	if s.spec == nil {
		return val, false
	}
	return val, s.readVarSpec(fr, v, val)
}

// readVarSpec is readVar's speculative tail, split out so the common
// non-speculative read inlines at its call sites.
func (s *sim) readVarSpec(fr *frame, v *ir.Var, val Value) bool {
	if fr == s.spec.loopFrame && s.defGen[v.ID] != s.defStamp {
		var snap Value
		if s.snapGen[v.Base.ID] == fr.gen {
			snap = s.snapVals[v.Base.ID]
		}
		if snap != val {
			return true // violated: stale context value
		}
		return false
	}
	return fr.taint[v.ID] == fr.gen
}

func (s *sim) defineVar(fr *frame, v *ir.Var, val Value, tnt bool) {
	fr.setReg(v, val)
	if s.spec != nil {
		if fr == s.spec.loopFrame {
			s.defGen[v.ID] = s.defStamp
		}
		fr.setTaint(v, tnt)
	}
}

// writeMem stores to memory, maintaining the undo log and speculative
// write-set.
func (s *sim) writeMem(addr int, v Value, tnt bool) {
	if s.undoActive && s.undoGen[addr] != s.undoStamp {
		s.undoGen[addr] = s.undoStamp
		s.undoVal[addr] = s.mem[addr]
	}
	if s.spec != nil {
		s.writtenGen[addr] = s.specStamp
		if tnt {
			s.taintMemGen[addr] = s.specStamp
		} else {
			s.taintMemGen[addr] = 0
		}
	}
	s.mem[addr] = v
	s.hier.store(addr)
}

// readMem performs the speculative memory check: an address written by
// the main thread after the fork is stale in the speculative thread; the
// read is violated when the values differ. The speculative thread's own
// buffered writes are read through with their taint.
func (s *sim) readMem(addr int) (Value, bool) {
	v := s.mem[addr]
	if s.spec == nil {
		return v, false
	}
	if s.writtenGen[addr] == s.specStamp {
		return v, s.taintMemGen[addr] == s.specStamp
	}
	if s.undoGen[addr] == s.undoStamp && s.undoVal[addr] != v {
		return v, true
	}
	return v, false
}

// callTainted invokes a function during either normal or speculative
// execution. Argument taint seeds the callee's parameter taint; the
// second result is the taint of the returned value, so misspeculation
// observed inside the callee (e.g. a read of a post-fork-modified
// global) propagates back to the caller's expression.
func (s *sim) callTainted(f *ir.Func, args []Value, depth int, argTaint bool) (Value, bool, error) {
	if depth > 10000 {
		return Value{}, false, fmt.Errorf("machine: call stack overflow in %s", f.Name)
	}
	fr := s.acquireFrame(f, depth)
	for i, p := range f.Params {
		if i < len(args) {
			fr.setReg(p, args[i])
			if s.spec != nil && argTaint {
				fr.setTaint(p, true)
			}
		}
	}
	s.cycles += s.cfg.CallOverhead
	out, err := s.execByte(fr, f.Entry, nil, false)
	if err != nil {
		return Value{}, false, err
	}
	s.popAttrFrame(fr)
	s.releaseFrame(fr)
	if !out.ret {
		return Value{}, false, fmt.Errorf("machine: %s finished without return", f.Name)
	}
	return out.retVal, out.retTaint, nil
}

// evalBinMachine mirrors the interpreter's binary semantics.
func evalBinMachine(fr *frame, st *ir.Stmt, o *ir.Op, x, y Value) (Value, error) {
	lf := o.Args[0].Type == ir.ValFloat || o.Args[1].Type == ir.ValFloat
	b2i := func(b bool) Value {
		if b {
			return Value{I: 1}
		}
		return Value{I: 0}
	}
	if lf {
		switch o.Bin {
		case ir.BinAdd:
			return Value{F: x.F + y.F}, nil
		case ir.BinSub:
			return Value{F: x.F - y.F}, nil
		case ir.BinMul:
			return Value{F: x.F * y.F}, nil
		case ir.BinDiv:
			if y.F == 0 {
				return Value{}, fmt.Errorf("machine: %s: float division by zero (stmt s%d)", fr.fn.Name, st.ID)
			}
			return Value{F: x.F / y.F}, nil
		case ir.BinEq:
			return b2i(x.F == y.F), nil
		case ir.BinNeq:
			return b2i(x.F != y.F), nil
		case ir.BinLt:
			return b2i(x.F < y.F), nil
		case ir.BinLeq:
			return b2i(x.F <= y.F), nil
		case ir.BinGt:
			return b2i(x.F > y.F), nil
		case ir.BinGeq:
			return b2i(x.F >= y.F), nil
		}
		return Value{}, fmt.Errorf("machine: op %s on floats", o.Bin)
	}
	switch o.Bin {
	case ir.BinAdd:
		return Value{I: x.I + y.I}, nil
	case ir.BinSub:
		return Value{I: x.I - y.I}, nil
	case ir.BinMul:
		return Value{I: x.I * y.I}, nil
	case ir.BinDiv:
		if y.I == 0 {
			return Value{}, fmt.Errorf("machine: %s: integer division by zero (stmt s%d)", fr.fn.Name, st.ID)
		}
		return Value{I: x.I / y.I}, nil
	case ir.BinRem:
		if y.I == 0 {
			return Value{}, fmt.Errorf("machine: %s: integer remainder by zero (stmt s%d)", fr.fn.Name, st.ID)
		}
		return Value{I: x.I % y.I}, nil
	case ir.BinAnd:
		return Value{I: x.I & y.I}, nil
	case ir.BinOr:
		return Value{I: x.I | y.I}, nil
	case ir.BinXor:
		return Value{I: x.I ^ y.I}, nil
	case ir.BinShl:
		return Value{I: x.I << uint(y.I&63)}, nil
	case ir.BinShr:
		return Value{I: x.I >> uint(y.I&63)}, nil
	case ir.BinEq:
		return b2i(x.I == y.I), nil
	case ir.BinNeq:
		return b2i(x.I != y.I), nil
	case ir.BinLt:
		return b2i(x.I < y.I), nil
	case ir.BinLeq:
		return b2i(x.I <= y.I), nil
	case ir.BinGt:
		return b2i(x.I > y.I), nil
	case ir.BinGeq:
		return b2i(x.I >= y.I), nil
	case ir.BinLAnd:
		return b2i(x.I != 0 && y.I != 0), nil
	case ir.BinLOr:
		return b2i(x.I != 0 || y.I != 0), nil
	}
	return Value{}, fmt.Errorf("machine: invalid binary operator")
}

// noteBlock maintains loop-cycle attribution.
func (s *sim) noteBlock(fr *frame, blk *ir.Block) {
	if s.attr == nil {
		return
	}
	// Charge elapsed cycles to the current top before updating the stack.
	s.flushAttr()
	// Pop loops of this frame that do not contain blk.
	for len(s.attrStack) > 0 {
		top := s.attrStack[len(s.attrStack)-1]
		if top.fr != fr {
			break
		}
		set := s.loopBlocks[top.header]
		if set != nil && set[blk] {
			break
		}
		s.attrStack = s.attrStack[:len(s.attrStack)-1]
	}
	if key, ok := s.attr[blk]; ok {
		if n := len(s.attrStack); n > 0 && s.attrStack[n-1].header == blk && s.attrStack[n-1].fr == fr {
			return // back edge of the same instance
		}
		s.attrStack = append(s.attrStack, attrEntry{key: key, header: blk, fr: fr})
	}
}

func (s *sim) flushAttr() {
	if s.attr == nil {
		return
	}
	delta := s.cycles - s.lastAttr
	if delta > 0 && len(s.attrStack) > 0 {
		s.attrCyc[s.attrStack[len(s.attrStack)-1].key] += delta
	}
	s.lastAttr = s.cycles
}
