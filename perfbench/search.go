package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"sptc/internal/core"
	"sptc/internal/incr"
	"sptc/internal/machine"
	"sptc/internal/service"
	"sptc/internal/trace"
)

// searchSize shapes the search workload.
type searchSize struct {
	programs int // generated programs, each compiled cold once per round
	loops    int // wide loops per program, all of fan width fan
	fan      int
	edits    int // one-loop edits per round, each recompiled warm
}

// searchFull is the size the benchmark runs: a cold compile costs about
// four fan-18 searches, an edit recompile about one.
var searchFull = searchSize{programs: 4, loops: 4, fan: 18, edits: 12}

// searchEdit changes one loop's constant.
type searchEdit struct{ prog, loop, salt int }

// searchWork is the search workload: a seeded edit-compile session. Each
// round compiles the generated programs cold at basic against a fresh
// incr.Store, then recompiles them after seeded one-loop edits against
// the same store, so the cold compiles write the store and the edit
// recompiles read it. There is no simulation in the timed phase.
//
// Every program has size.loops wide loops of one fan width, so that the
// cold samples and the edit samples each cost the same, plus one short
// loop whose fan width the seed draws from 3..10; the seed also draws
// the loops' trip counts, offsets, strides and constants, and the edits.
type searchWork struct {
	progs [][]wideLoop
	edits []searchEdit
	spd   float64
}

// searchOp is one compile of a round, kept for check.
type searchOp struct {
	name, src string
	res       *core.Result
}

func newSearch(seed int64, _ string) (workload, error) {
	return newSearchSized(seed, searchFull)
}

// newSearchSized draws the session's programs and edits, then compiles
// the first program once, cold and without a store, so code paths and
// the heap are warm before the first timed round.
func newSearchSized(seed int64, size searchSize) (*searchWork, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &searchWork{}
	for p := 0; p < size.programs; p++ {
		var loops []wideLoop
		for l := 0; l < size.loops; l++ {
			loops = append(loops, newWideLoop(rng, size.fan))
		}
		loops = append(loops, newWideLoop(rng, 3+rng.Intn(8)))
		w.progs = append(w.progs, loops)
	}
	for e := 0; e < size.edits; e++ {
		w.edits = append(w.edits, searchEdit{prog: rng.Intn(size.programs), loop: rng.Intn(size.loops), salt: 1 + rng.Intn(1000)})
	}
	if _, err := core.CompileSource("warmup.spl", wideProgram(w.progs[0]), core.DefaultOptions(core.LevelBasic)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

func (w *searchWork) round(tr *trace.Tracer) (*roundResult, error) {
	store := incr.New()
	progs := make([][]wideLoop, len(w.progs))
	for i, loops := range w.progs {
		progs[i] = append([]wideLoop(nil), loops...)
	}
	rr := &roundResult{}
	var ops []searchOp
	compile := func(p int) (time.Duration, error) {
		name := fmt.Sprintf("search%d.spl", p)
		src := wideProgram(progs[p])
		tk := tr.StartTrack(fmt.Sprintf("%s#%d", name, len(ops)))
		opt := core.DefaultOptions(core.LevelBasic)
		opt.Incr = store
		opt.Trace = tk
		sp := tk.Start("CompileSource")
		start := time.Now()
		res, err := core.CompileSource(name, src, opt)
		d := time.Since(start)
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ops = append(ops, searchOp{name, src, res})
		return d, nil
	}
	for p := range progs {
		d, err := compile(p)
		if err != nil {
			return nil, err
		}
		rr.cold = append(rr.cold, d)
	}
	for _, e := range w.edits {
		progs[e.prog][e.loop].salt = e.salt
		d, err := compile(e.prog)
		if err != nil {
			return nil, err
		}
		rr.warm = append(rr.warm, d)
	}
	rr.ops = len(ops)
	rr.payload = ops
	return rr, nil
}

// check recompiles every distinct source cold, without a store, and
// requires each round's compile to report the same partitions and
// decisions byte for byte. It also simulates each program's cold
// compile and its base program, requiring both outputs to equal
// interp's, and records the simulated speedup.
func (w *searchWork) check(rounds []*roundResult) (int, []string) {
	failed := 0
	var probs []string
	refs := map[string][]byte{}
	for ri, rr := range rounds {
		for i, op := range rr.payload.([]searchOp) {
			ref, ok := refs[op.src]
			if !ok {
				res, err := core.CompileSource(op.name, op.src, core.DefaultOptions(core.LevelBasic))
				if err != nil {
					return rr.ops, []string{err.Error()}
				}
				ref = compileJSON(res)
				refs[op.src] = ref
			}
			if !bytes.Equal(compileJSON(op.res), ref) {
				failed++
				probs = append(probs, fmt.Sprintf("round %d op %d (%s): compile differs from a cold compile", ri, i, op.name))
			}
		}
	}
	logSum := 0.0
	first := rounds[0].payload.([]searchOp)
	for _, op := range first[:len(w.progs)] {
		spd, err := simulateChecked(op.name, op.src, op.res)
		if err != nil {
			failed++
			probs = append(probs, err.Error())
			continue
		}
		logSum += math.Log(spd)
	}
	w.spd = math.Exp(logSum / float64(len(w.progs)))
	return failed, probs
}

func (w *searchWork) speedup() float64 { return w.spd }

func (w *searchWork) close() {}

// compileJSON is a compile's wire form: its loop reports (partitions,
// decisions, estimated costs) and SPT loop count, without work counters.
func compileJSON(res *core.Result) []byte {
	b, err := json.Marshal(service.CompileData(res, false))
	if err != nil {
		return []byte(err.Error())
	}
	return b
}

// simulateChecked simulates a compiled program and its base program,
// checks both outputs against interp's, and returns the speedup.
func simulateChecked(name, src string, res *core.Result) (float64, error) {
	want, err := interpOutput(name, src)
	if err != nil {
		return 0, err
	}
	base, err := core.CompileSource(name, src, core.DefaultOptions(core.LevelBase))
	if err != nil {
		return 0, err
	}
	eng := machine.NewEngine()
	var out strings.Builder
	bsim, err := eng.Run(base.Prog, machine.DefaultConfig(), machine.RunOptions{Out: &out})
	if err != nil {
		return 0, err
	}
	if out.String() != want {
		return 0, fmt.Errorf("%s: base simulation output differs from interp", name)
	}
	out.Reset()
	opt := core.SimulationOptions(res)
	opt.Out = &out
	sim, err := eng.Run(res.Prog, machine.DefaultConfig(), opt)
	if err != nil {
		return 0, err
	}
	if out.String() != want {
		return 0, fmt.Errorf("%s: %s simulation output differs from interp", name, res.Level)
	}
	return bsim.Cycles / sim.Cycles, nil
}
