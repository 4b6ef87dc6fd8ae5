package machine_test

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sptc/internal/core"
	"sptc/internal/ir"
	"sptc/internal/machine"
	"sptc/internal/ssa"
)

// compileSPT compiles at the best level with selection disabled and
// returns the result plus assembled run options.
func compileSPT(t *testing.T, src string) (*core.Result, machine.RunOptions) {
	t.Helper()
	opt := core.DefaultOptions(core.LevelBest)
	opt.DisableSelection = true
	res, err := core.CompileSource("spt.spl", src, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ro := machine.RunOptions{
		SPTHeaders: map[*ir.Block]int{},
		LoopBlocks: map[*ir.Block]map[*ir.Block]bool{},
		Out:        io.Discard,
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
		for _, b := range nl.Blocks {
			set[b] = true
		}
		ro.LoopBlocks[sl.Header] = set
	}
	return res, ro
}

func TestSpeculationAccountsForksAndIterations(t *testing.T) {
	// 100 iterations, clean speculation: the pair model runs ~50 spec
	// iterations and forks once per main leg.
	res, ro := compileSPT(t, `
var out int[128];
func main() {
	var i int;
	for (i = 0; i < 100; i++) {
		var v int = i * 3 + (i >> 1) % 7 + i % 11 + (i & 15);
		v = v + v % 13 + (v >> 2) % 5 + (i % 17) + (v & 31);
		out[i & 127] = v;
	}
	print(out[5]);
}
`)
	if len(res.SPT) == 0 {
		t.Skip("loop not transformed")
	}
	sim, err := machine.Run(res.Prog, machine.DefaultConfig(), ro)
	if err != nil {
		t.Fatal(err)
	}
	var total *machine.LoopStats
	for _, ls := range sim.Loops {
		if total == nil || ls.Iterations > total.Iterations {
			total = ls
		}
	}
	if total == nil {
		t.Fatal("no loop stats")
	}
	if total.Invocations != 1 {
		t.Errorf("invocations = %d", total.Invocations)
	}
	// The unrolled main loop plus remainder split 100 iterations; the
	// dominant loop must have speculated roughly half its iterations.
	if total.SpecIters*2 < total.Iterations-2 {
		t.Errorf("spec=%d of %d iterations", total.SpecIters, total.Iterations)
	}
	if total.Forks < total.SpecIters {
		t.Errorf("forks=%d < spec iterations=%d", total.Forks, total.SpecIters)
	}
	// Clean loop: re-execution stays minimal.
	if total.ReexecRatio() > 0.1 {
		t.Errorf("re-execution ratio %.3f on a clean loop", total.ReexecRatio())
	}
}

func TestSerialRecurrenceMisspeculates(t *testing.T) {
	// The carried value feeds everything and stays post-fork: the
	// speculative iterations read stale state and re-execute heavily.
	res, ro := compileSPT(t, `
var sink int;
func main() {
	var x int = 7;
	var i int;
	for (i = 0; i < 200; i++) {
		var v int = x * 3 + (x >> 2) % 7 + x % 11 + (x & 31);
		v = v + v % 13 + (v >> 1) % 5;
		sink = (sink + v) & 1048575;
		x = (x * 1103515245 + 12345 + v) & 1073741823;
	}
	print(sink, x);
}
`)
	if len(res.SPT) == 0 {
		t.Skip("loop not transformed (needs DisableSelection)")
	}
	sim, err := machine.Run(res.Prog, machine.DefaultConfig(), ro)
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range sim.Loops {
		if ls.SpecIters < 20 {
			continue
		}
		if ls.ReexecRatio() < 0.5 {
			t.Errorf("serial loop re-execution ratio %.3f, expected heavy misspeculation", ls.ReexecRatio())
		}
		if ls.LoopSpeedup() > 1.0 {
			t.Errorf("serial loop speedup %.3f should not beat sequential", ls.LoopSpeedup())
		}
	}
}

func TestSPTLoopOutputsMatchPlainRun(t *testing.T) {
	src := `
var h int;
var a int[512];
func main() {
	var i int;
	for (i = 0; i < 512; i++) {
		a[i] = (i * 2654435761) & 1023;
	}
	for (i = 0; i < 512; i++) {
		var v int = a[i] % 97 + (a[i] >> 3) % 31 + (i & 7);
		v = v + v % 19 + (v >> 1) % 23;
		h = (h + v * ((i & 3) + 1)) & 268435455;
	}
	print(h);
}
`
	res, ro := compileSPT(t, src)
	var sptOut, plainOut strings.Builder
	ro.Out = &sptOut
	if _, err := machine.Run(res.Prog, machine.DefaultConfig(), ro); err != nil {
		t.Fatal(err)
	}
	// Same program, no SPT headers: plain sequential simulation.
	if _, err := machine.Run(res.Prog, machine.DefaultConfig(), machine.RunOptions{Out: &plainOut}); err != nil {
		t.Fatal(err)
	}
	if sptOut.String() != plainOut.String() {
		t.Fatalf("SPT execution changed output: %q vs %q", sptOut.String(), plainOut.String())
	}
}

func TestNestedSPTViaCallIsGuarded(t *testing.T) {
	// A selected loop calls a function that itself contains a selected
	// loop; the simulator must not nest speculation.
	res, ro := compileSPT(t, `
var t int[256];
func inner(k int) int {
	var j int;
	var s int = 0;
	for (j = 0; j < 32; j++) {
		var v int = (k + j) % 13 + ((k ^ j) & 31) + (j >> 1) % 7;
		v = v + v % 11 + (v >> 2) % 5 + (j & 15);
		s = (s + v) & 65535;
	}
	return s;
}
func main() {
	var i int;
	for (i = 0; i < 64; i++) {
		t[i & 255] = inner(i);
	}
	var h int;
	for (i = 0; i < 64; i++) {
		h = (h + t[i]) & 1048575;
	}
	print(h);
}
`)
	var out strings.Builder
	ro.Out = &out
	sim, err := machine.Run(res.Prog, machine.DefaultConfig(), ro)
	if err != nil {
		t.Fatal(err)
	}
	var plain strings.Builder
	if _, err := machine.Run(res.Prog, machine.DefaultConfig(), machine.RunOptions{Out: &plain}); err != nil {
		t.Fatal(err)
	}
	if out.String() != plain.String() {
		t.Fatalf("output diverged: %q vs %q", out.String(), plain.String())
	}
	_ = sim
}

func TestReenteredLoopCountsInvocations(t *testing.T) {
	res, ro := compileSPT(t, `
var acc int;
func work(base int) {
	var i int;
	for (i = 0; i < 50; i++) {
		var v int = (base + i) % 17 + ((base ^ i) & 31) + (i >> 1) % 7;
		v = v + v % 11 + (v >> 2) % 5 + (i & 15) + v % 19;
		acc = (acc + v) & 1048575;
	}
}
func main() {
	// do-while outer loop: shape-rejected for SPT, so each work() call
	// enters the inner SPT loop as a fresh invocation.
	var k int = 0;
	do {
		work(k * 100);
		k++;
	} while (k < 5);
	print(acc);
}
`)
	sim, err := machine.Run(res.Prog, machine.DefaultConfig(), ro)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ls := range sim.Loops {
		if ls.Invocations == 5 {
			found = true
		}
	}
	if !found && len(sim.Loops) > 0 {
		for id, ls := range sim.Loops {
			t.Logf("loop %d: invocations=%d iters=%d", id, ls.Invocations, ls.Iterations)
		}
		t.Error("expected a loop invoked 5 times")
	}
}

// TestViolationEqualityIsBitwise pins how a speculative read is checked
// against the main thread's post-fork write: by the value's bits, as a
// value-checking SPT core compares registers. In both loops the main
// thread rewrites the float global z after the fork and the next
// iteration, run speculatively, reads it before.
//   - signed-zero.spl alternates z between +0.0 and -0.0 with the parity
//     of a computed value: every sign change is a violation, though
//     +0.0 == -0.0 as floats (a float comparison would count none).
//   - The NaN loop stores the same NaN bits every iteration: only the
//     first store, over the initial +0.0, is a violation, though no NaN
//     equals itself as a float (a float comparison would count every
//     speculative iteration).
func TestViolationEqualityIsBitwise(t *testing.T) {
	signedZero, err := os.ReadFile(filepath.Join("..", "core", "testdata", "edge", "signed-zero.spl"))
	if err != nil {
		t.Fatal(err)
	}
	nan := strings.NewReplacer("var z float;", "var z float;\nvar big float = 1e308;",
		"z = 0.0;", "z = big * 10.0 - big * 10.0;",
		"z = 0.0 * -1.0;", "z = big * 10.0 - big * 10.0;").Replace(string(signedZero))
	for _, c := range []struct {
		name    string
		src     string
		misspec int64
	}{
		{"signed-zero", string(signedZero), 56},
		{"nan", nan, 1},
	} {
		res, ro := compileSPT(t, c.src)
		if len(res.SPT) != 1 {
			t.Fatalf("%s: %d SPT loops, want 1", c.name, len(res.SPT))
		}
		sim, err := machine.Run(res.Prog, machine.DefaultConfig(), ro)
		if err != nil {
			t.Fatal(err)
		}
		ls := sim.Loops[res.SPT[0].ID]
		if ls == nil || ls.SpecIters != 128 || ls.MisspecIters != c.misspec {
			t.Errorf("%s: loop stats %+v, want 128 speculative iterations, %d misspeculated", c.name, ls, c.misspec)
		}
	}
}
