package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sptc/internal/core"
	"sptc/internal/interp"
)

// TestDifferentialMisspeculation checks the machine's recovery path: the
// program must produce architecturally identical output at every level
// even though the simulator demonstrably misspeculates and re-executes.
// testdata/misspec.spl is built to defeat speculation part of the time:
// each iteration stores to exactly the address the next iteration loads
// (a cross-iteration flow dependence through memory), the stored value
// changes every iteration, and the computing chain is long enough that
// the pre-fork size limit keeps it out of the pre-fork region.
// internal/machine runs the same file through its tree-vs-bytecode
// fidelity oracle.
func TestDifferentialMisspeculation(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "misspec.spl"))
	if err != nil {
		t.Fatal(err)
	}
	misspecSrc := string(b)

	// Output equality across all four levels, interpreter and simulator.
	checkDifferential(t, misspecSrc)

	// The run must actually have exercised misspeculation recovery —
	// otherwise this test silently stops covering the re-execution path.
	opt := core.DefaultOptions(core.LevelBest)
	opt.DisableSelection = true
	res, err := core.CompileSource("misspec.spl", misspecSrc, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var want strings.Builder
	baseRes, err := core.CompileSource("misspec.spl", misspecSrc, core.DefaultOptions(core.LevelBase))
	if err != nil {
		t.Fatalf("base compile: %v", err)
	}
	if _, err := interp.New(baseRes.Prog, &want).Run(); err != nil {
		t.Fatalf("base run: %v", err)
	}

	out, stats := runSimulator(t, res, misspecSrc, core.LevelBest)
	if out != want.String() {
		t.Fatalf("simulator diverged:\nwant %q\ngot  %q", want.String(), out)
	}
	var spec, misspec int64
	for _, ls := range stats.Loops {
		spec += ls.SpecIters
		misspec += ls.MisspecIters
	}
	if spec == 0 {
		t.Fatal("no speculative iterations ran; the loop was not executed under SPT")
	}
	if misspec == 0 {
		t.Fatal("no misspeculated iterations; the recovery path went untested")
	}
	t.Logf("spec iters %d, misspeculated %d", spec, misspec)
}
