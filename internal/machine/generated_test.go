package machine_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sptc/internal/core"
	"sptc/internal/machine"
	"sptc/internal/splgen"
)

// checkSourceFidelity is the source-level arm of the engine-fidelity
// oracle: it compiles src at every speculating level with selection
// forced on, so every transformed loop runs speculatively, and requires
// the tree walker and the bytecode engine to agree bit for bit (output,
// exact cycles, instruction, branch and memory counters, per-loop
// statistics). Shared by the generated-program tests, the native fuzz
// target and the hand-written edge cases.
func checkSourceFidelity(t *testing.T, src string) {
	t.Helper()
	for _, level := range []core.Level{core.LevelBasic, core.LevelBest, core.LevelAnticipated} {
		opt := core.DefaultOptions(level)
		opt.DisableSelection = true
		res, err := core.CompileSource("prog.spl", src, opt)
		if err != nil {
			t.Fatalf("%s compile: %v\n%s", level, err, src)
		}
		var results [2]*machine.Result
		var outs [2]string
		for i, eng := range bothEngines {
			ro := core.SimulationOptions(res)
			var out strings.Builder
			ro.Out = &out
			if results[i], err = eng.new().Run(res.Prog, machine.DefaultConfig(), ro); err != nil {
				t.Fatalf("%s %s simulate: %v\n%s", level, eng.name, err, src)
			}
			outs[i] = out.String()
		}
		requireIdentical(t, level.String(), results[0], results[1], outs[0], outs[1])
		if t.Failed() {
			t.Fatalf("program:\n%s", src)
		}
	}
}

// TestEngineFidelityGenerated runs the fuzzed oracle arm over a fixed
// block of generator seeds, so a plain `go test` compares the engines on
// randomized programs without the fuzz engine. Each seed runs both
// generators: splgen.Generate's integer, single-function programs and
// splgen.Mixed's programs of floats, casts, float builtins and calls.
func TestEngineFidelityGenerated(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkSourceFidelity(t, splgen.Generate(seed))
		})
		t.Run(fmt.Sprintf("mixed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkSourceFidelity(t, splgen.Mixed(seed))
		})
	}
}

// FuzzEngineFidelity is the native fuzz entry point: the fuzzer mutates
// the generator seed and splgen expands it into a well-formed program,
// once with each generator.
func FuzzEngineFidelity(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSourceFidelity(t, splgen.Generate(seed))
		checkSourceFidelity(t, splgen.Mixed(seed))
	})
}

// TestEngineFidelityEdgeCases runs the oracle over the hand-written
// programs that internal/core's differential tests also run: the
// testdata/edge corner cases (builtins, int<->float casts, shift
// masking, fused division and remainder, an early return from a loop of
// a called function, a float global flipped between +0.0 and -0.0
// under speculation) and testdata/misspec.spl, whose loop misspeculates
// part of the time. splgen.Mixed covers floats, casts, the float
// builtins and user calls at random; these pin the corners it rarely
// reaches: the integer builtins, negative operands of casts, division
// and remainder, shift counts past the mask, returns out of a loop and
// signed zeros.
func TestEngineFidelityEdgeCases(t *testing.T) {
	dir := filepath.Join("..", "core", "testdata")
	paths, err := filepath.Glob(filepath.Join(dir, "edge", "*.spl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no edge-case programs under %s/edge (%v)", dir, err)
	}
	for _, p := range append(paths, filepath.Join(dir, "misspec.spl")) {
		p := p
		t.Run(strings.TrimSuffix(filepath.Base(p), ".spl"), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			checkSourceFidelity(t, string(src))
		})
	}
}

// TestFsqrtNegativeErrorText pins runtime-error parity: a program that
// eventually takes fsqrt of a negative value must fail on both engines
// (neither may silently keep running) with the identical error text.
// The SPT levels cannot compile an erroring program — profiling runs it
// and surfaces the failure at compile time — so this runs the base
// compilation; the builtin error path is level-independent.
func TestFsqrtNegativeErrorText(t *testing.T) {
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
	res, err := core.CompileSource("edge.spl", src, core.DefaultOptions(core.LevelBase))
	if err != nil {
		t.Fatalf("base compile: %v", err)
	}
	var errText [2]string
	for i, eng := range bothEngines {
		ro := core.SimulationOptions(res)
		ro.Out = &strings.Builder{}
		_, err := eng.new().Run(res.Prog, machine.DefaultConfig(), ro)
		if err == nil || !strings.Contains(err.Error(), "fsqrt of negative value") {
			t.Fatalf("%s simulate error = %v, want fsqrt-of-negative failure", eng.name, err)
		}
		errText[i] = err.Error()
	}
	if errText[0] != errText[1] {
		t.Fatalf("engines report different errors:\n%s %q\n%s %q",
			bothEngines[0].name, errText[0], bothEngines[1].name, errText[1])
	}
}
