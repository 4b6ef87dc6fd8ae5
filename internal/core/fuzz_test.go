package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sptc/internal/core"
	"sptc/internal/interp"
	"sptc/internal/ir"
	"sptc/internal/machine"
	"sptc/internal/splgen"
	"sptc/internal/ssa"
)

// simRunOptions builds RunOptions activating speculation for every loop
// the compiler transformed.
func simRunOptions(res *core.Result) machine.RunOptions {
	ro := machine.RunOptions{
		SPTHeaders: map[*ir.Block]int{},
		LoopBlocks: map[*ir.Block]map[*ir.Block]bool{},
	}
	for _, sl := range res.SPT {
		dom := ssa.BuildDomTree(sl.Func)
		nest := ssa.FindLoops(sl.Func, dom)
		nl := nest.ByHeader[sl.Header]
		if nl == nil {
			continue
		}
		ro.SPTHeaders[sl.Header] = sl.ID
		set := map[*ir.Block]bool{}
		for _, blk := range nl.Blocks {
			set[blk] = true
		}
		ro.LoopBlocks[sl.Header] = set
	}
	return ro
}

// runSimulator compiles nothing; it executes an already-compiled program
// on the machine simulator with speculation enabled for every loop the
// compiler transformed, and returns the printed output plus stats.
func runSimulator(tb testing.TB, res *core.Result, src string, level core.Level) (string, *machine.Result) {
	tb.Helper()
	ro := simRunOptions(res)
	var simOut strings.Builder
	ro.Out = &simOut
	stats, err := machine.Run(res.Prog, machine.DefaultConfig(), ro)
	if err != nil {
		tb.Fatalf("%s simulate: %v\n%s", level, err, src)
	}
	return simOut.String(), stats
}

// checkDifferential is the shared differential oracle: the program must
// print identical output under (a) the base interpreter, (b) every
// compilation level with selection forced on, interpreted, and (c) the
// SPT machine simulator with speculation active. Callable from both the
// fixed-seed test and the native fuzz target.
func checkDifferential(tb testing.TB, src string) {
	tb.Helper()

	baseRes, err := core.CompileSource("fuzz.spl", src, core.DefaultOptions(core.LevelBase))
	if err != nil {
		tb.Fatalf("base compile: %v\n%s", err, src)
	}
	var want strings.Builder
	if _, err := interp.New(baseRes.Prog, &want).Run(); err != nil {
		tb.Fatalf("base run: %v\n%s", err, src)
	}

	for _, level := range []core.Level{core.LevelBasic, core.LevelBest, core.LevelAnticipated} {
		opt := core.DefaultOptions(level)
		opt.DisableSelection = true
		res, err := core.CompileSource("fuzz.spl", src, opt)
		if err != nil {
			tb.Fatalf("%s compile: %v\n%s", level, err, src)
		}
		for _, fn := range res.Prog.Funcs {
			if err := ssa.VerifySSA(fn, ssa.BuildDomTree(fn)); err != nil {
				tb.Fatalf("%s SSA invariants: %v\n%s", level, err, src)
			}
		}
		var got strings.Builder
		if _, err := interp.New(res.Prog, &got).Run(); err != nil {
			tb.Fatalf("%s interp: %v\n%s", level, err, src)
		}
		if got.String() != want.String() {
			tb.Fatalf("%s interp diverged:\nwant %q\ngot  %q\n%s", level, want.String(), got.String(), src)
		}

		simOut, _ := runSimulator(tb, res, src, level)
		if simOut != want.String() {
			tb.Fatalf("%s simulator diverged:\nwant %q\ngot  %q\n%s", level, want.String(), simOut, src)
		}
	}
}

// TestFuzzPipelineSemantics runs the differential oracle over a fixed
// block of generator seeds, so a plain `go test` still gets meaningful
// randomized coverage without the fuzz engine.
func TestFuzzPipelineSemantics(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkDifferential(t, splgen.Generate(seed))
		})
	}
}

// TestDifferentialEdgeCases routes the hand-written programs of
// testdata/edge through the same oracle, targeting corners the random
// generator rarely reaches: the integer/float builtins (builtins.spl),
// int<->float casts (casts.spl), shift counts at and past the 63-bit
// mask (shift-masking.spl; the interpreter and the simulator compute
// x << uint(y&63), so a count of 64 must behave as 0 and -1 as 63
// everywhere), truncating division and remainder with negative operands
// and constant divisors (div-rem.spl; the bytecode engine fuses those),
// and an early return from a loop of a called function, taken at a
// different iteration on every call (return-through-loop.spl; the
// return block lies outside the natural loop, so it leaves through an
// ordinary loop exit), and a float global the SPT loop flips between
// +0.0 and -0.0 after the fork (signed-zero.spl; the simulator counts
// each sign change as a violation, and the output must not change).
func TestDifferentialEdgeCases(t *testing.T) {
	for _, c := range edgeCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			checkDifferential(t, c.src)
		})
	}
}

// edgeCases loads the hand-written programs of testdata/edge, one per
// .spl file, named by the file's base name. internal/machine runs the
// same files through its tree-vs-bytecode fidelity oracle.
func edgeCases(t *testing.T) []struct{ name, src string } {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "edge", "*.spl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no edge-case programs under testdata/edge (%v)", err)
	}
	var cases []struct{ name, src string }
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct{ name, src string }{strings.TrimSuffix(filepath.Base(p), ".spl"), string(b)})
	}
	return cases
}

// TestFsqrtNegativeErrorParity pins runtime-error behavior: when the
// program eventually takes fsqrt of a negative value, the interpreter
// and the simulator must both fail (neither may silently keep running).
// The SPT levels cannot compile an erroring program at all — the
// profiling interpretation runs it to completion and surfaces the same
// failure at compile time — so the simulator executes the base
// compilation here; the builtin error path is level-independent. That
// the reference tree walker reports the simulator's exact error text is
// checked in internal/machine (TestFsqrtNegativeErrorText).
func TestFsqrtNegativeErrorParity(t *testing.T) {
	src := `
func main() {
	var i int = 0;
	var f float = 100.0;
	while (i < 500) {
		f = f - float(i);
		f = f + fsqrt(f) * 0.25;
		i = i + 1;
	}
	print(f);
}
`
	baseRes, err := core.CompileSource("edge.spl", src, core.DefaultOptions(core.LevelBase))
	if err != nil {
		t.Fatalf("base compile: %v", err)
	}
	var sink strings.Builder
	if _, err := interp.New(baseRes.Prog, &sink).Run(); err == nil || !strings.Contains(err.Error(), "fsqrt of negative value") {
		t.Fatalf("interp error = %v, want fsqrt-of-negative failure", err)
	}

	ro := simRunOptions(baseRes)
	ro.Out = &sink
	if _, err := machine.Run(baseRes.Prog, machine.DefaultConfig(), ro); err == nil || !strings.Contains(err.Error(), "fsqrt of negative value") {
		t.Fatalf("simulate error = %v, want fsqrt-of-negative failure", err)
	}
}

// FuzzDifferentialLevels is the native fuzz entry point: the engine
// mutates the generator seed, splgen expands it into a well-formed SPL
// program, and the differential oracle cross-checks every compilation
// level against the base interpreter.
func FuzzDifferentialLevels(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkDifferential(t, splgen.Generate(seed))
	})
}
