package core_test

import (
	"strings"
	"testing"

	"sptc/internal/core"
	"sptc/internal/interp"
	"sptc/internal/ir"
	"sptc/internal/ssa"
)

// runProgram compiles src at the given level and returns the program's
// printed output, plus the compilation result.
func runLevel(t *testing.T, src string, opt core.Options) (string, *core.Result) {
	t.Helper()
	res, err := core.CompileSource("test.spl", src, opt)
	if err != nil {
		t.Fatalf("compile(%s): %v", opt.Level, err)
	}
	for _, f := range res.Prog.Funcs {
		if err := ssa.VerifySSA(f, ssa.BuildDomTree(f)); err != nil {
			t.Fatalf("SSA invariants after %s compile: %v", opt.Level, err)
		}
	}
	var out strings.Builder
	m := interp.New(res.Prog, &out)
	if _, err := m.Run(); err != nil {
		t.Fatalf("run(%s): %v\n%s", opt.Level, err, ir.FormatProgram(res.Prog))
	}
	return out.String(), res
}

// checkAllLevels compiles src at every level (with selection disabled so
// every legal loop is transformed) and requires identical output.
func checkAllLevels(t *testing.T, name, src string) {
	t.Helper()
	base, _ := runLevel(t, src, core.DefaultOptions(core.LevelBase))
	for _, level := range []core.Level{core.LevelBasic, core.LevelBest, core.LevelAnticipated} {
		opt := core.DefaultOptions(level)
		opt.DisableSelection = true
		got, res := runLevel(t, src, opt)
		if got != base {
			t.Errorf("%s at %s: output diverged\nbase: %q\n got: %q", name, level, base, got)
		}
		_ = res
	}
}

func TestSemanticsFig2Loop(t *testing.T) {
	// The motivating example of Figure 2: induction update moved to the
	// pre-fork region, body reads the old value via a temporary.
	checkAllLevels(t, "fig2", `
var error_m float[40][40];
var p float[40];
var cost float;

func main() {
	var i int = 0;
	var n int = 40;
	var k int;
	for (k = 0; k < 40; k++) {
		p[k] = float(k) * 0.25;
		var j int;
		for (j = 0; j < 40; j++) {
			error_m[k][j] = float(k - j) * 0.5;
		}
	}
	while (i < n) {
		var cost0 float = 0.0;
		var j int;
		for (j = 0; j < i; j++) {
			cost0 = cost0 + fabs(error_m[i][j] - p[j]);
		}
		cost = cost + cost0;
		i = i + 1;
	}
	print(cost);
}
`)
}

func TestSemanticsConditionalUpdate(t *testing.T) {
	// Rarely-taken cross-iteration dependence under a branch: exercises
	// partial conditional statement motion (Figure 12).
	checkAllLevels(t, "conditional", `
var data int[512];
var best int;

func main() {
	var i int;
	for (i = 0; i < 512; i++) {
		data[i] = (i * 2654435761) % 1000;
	}
	best = -1;
	var bi int = 0;
	for (i = 0; i < 512; i++) {
		var v int = data[i] * 3 - (data[i] >> 2) + (data[i] & 15);
		v = v + data[i] % 7;
		if (v > best) {
			best = v;
			bi = i;
		}
	}
	print(best, bi);
}
`)
}

func TestSemanticsRecurrenceSVP(t *testing.T) {
	// A stride recurrence through a function call (Figure 13's shape):
	// only SVP can make this loop speculative.
	checkAllLevels(t, "svp", `
var sum int;

func bar(x int) int {
	if (x % 97 == 0) {
		return x + 3;
	}
	return x + 2;
}

func foo(x int) {
	sum = sum + x % 13 + (x >> 3) % 5 + x % 7 + (x * 3) % 11 + x % 17 + (x >> 1) % 19;
}

func main() {
	var x int = 1;
	while (x < 4000) {
		foo(x);
		x = bar(x);
	}
	print(sum, x);
}
`)
}

func TestSemanticsArrayPipeline(t *testing.T) {
	// Cross-iteration array dependence with distance 1: a[i] depends on
	// a[i-1]; static analysis sees it, the loop has real serialization.
	checkAllLevels(t, "pipeline", `
var a int[300];
var out int[300];

func main() {
	var i int;
	a[0] = 7;
	for (i = 1; i < 300; i++) {
		a[i] = (a[i-1] * 1103515245 + 12345) % 2147483647;
		out[i] = a[i] % 100 + (a[i] >> 5) % 50 + a[i] % 31;
	}
	var s int = 0;
	for (i = 0; i < 300; i++) {
		s += out[i];
	}
	print(s);
}
`)
}

func TestSemanticsNestedLoops(t *testing.T) {
	checkAllLevels(t, "nested", `
var m int[60][60];
var rowsum int[60];

func main() {
	var r int;
	var c int;
	for (r = 0; r < 60; r++) {
		for (c = 0; c < 60; c++) {
			m[r][c] = (r * 31 + c * 17) % 101;
		}
	}
	var total int = 0;
	for (r = 0; r < 60; r++) {
		var s int = 0;
		for (c = 0; c < 60; c++) {
			s += m[r][c] * m[r][(c + 1) % 60] % 13;
		}
		rowsum[r] = s;
		total += s;
	}
	print(total, rowsum[0], rowsum[59]);
}
`)
}

func TestSemanticsBreakAndEarlyExit(t *testing.T) {
	checkAllLevels(t, "break", `
var v int[256];

func main() {
	var i int;
	for (i = 0; i < 256; i++) {
		v[i] = (i * 37) % 211;
	}
	var found int = -1;
	var probes int = 0;
	for (i = 0; i < 256; i++) {
		probes++;
		var h int = v[i] * 3 % 97 + v[i] % 11 + (v[i] >> 2) % 7;
		if (h == 13) {
			found = i;
			break;
		}
	}
	print(found, probes);
}
`)
}

func TestSemanticsGlobalScratch(t *testing.T) {
	// A per-iteration scratch global: static analysis sees a carried
	// dependence, profiling (and privatization) do not.
	checkAllLevels(t, "scratch", `
var tmp int;
var acc int;
var src int[400];

func main() {
	var i int;
	for (i = 0; i < 400; i++) {
		src[i] = (i * 73) % 509;
	}
	for (i = 0; i < 400; i++) {
		tmp = src[i] * 5 + (src[i] >> 1) % 23;
		tmp = tmp + tmp % 19 + (tmp >> 3) % 29;
		acc += tmp % 41;
	}
	print(acc, tmp);
}
`)
}

func TestSemanticsWhileLoopSmallBody(t *testing.T) {
	// Small-bodied while loop: basic/best cannot unroll it (ORC unrolled
	// only DO loops); anticipated unrolls while loops too.
	checkAllLevels(t, "while", `
var bits int;

func main() {
	var x int = 123456789;
	while (x != 0) {
		bits += x & 1;
		x = x >> 1;
	}
	print(bits);
}
`)
}

func TestSemanticsCallsWithSideEffects(t *testing.T) {
	checkAllLevels(t, "calls", `
var log_total int;
var table int[128];

func update(k int) {
	table[k % 128] = table[k % 128] + 1;
	log_total = log_total + 1;
}

func main() {
	var i int;
	for (i = 0; i < 500; i++) {
		var k int = (i * 2654435761) % 1024;
		update(k);
		if (i % 2 == 0) {
			update(k + 1);
		}
	}
	var s int = 0;
	for (i = 0; i < 128; i++) {
		s += table[i] * (i + 1);
	}
	print(s, log_total);
}
`)
}

func TestSemanticsDoWhile(t *testing.T) {
	checkAllLevels(t, "dowhile", `
func main() {
	var n int = 0;
	var x int = 1000;
	do {
		x = x - 7;
		n++;
	} while (x > 3);
	print(n, x);
}
`)
}

func TestSelectionProducesSPTLoops(t *testing.T) {
	// With real selection (not disabled), the speculation-friendly loop
	// should be selected and transformed at the best level.
	src := `
var data float[600];
var total float;

func main() {
	var i int;
	for (i = 0; i < 600; i++) {
		data[i] = float(i % 83) * 0.5 + 1.0;
	}
	for (i = 0; i < 600; i++) {
		var x float = data[i];
		var acc float = 0.0;
		acc = acc + x * 1.5 + x * x * 0.25;
		acc = acc + fabs(x - 20.0) * 0.125 + fsqrt(x) * 0.5;
		acc = acc + x * 0.0625 + (x + 1.0) * 0.03125;
		acc = acc + fabs(acc - x) + fsqrt(acc + 1.0);
		total = total + acc;
	}
	print(total);
}
`
	base, _ := runLevel(t, src, core.DefaultOptions(core.LevelBase))
	opt := core.DefaultOptions(core.LevelBest)
	got, res := runLevel(t, src, opt)
	if got != base {
		t.Fatalf("output diverged: %q vs %q", base, got)
	}
	if len(res.SPT) == 0 {
		for _, r := range res.Reports {
			t.Logf("loop %s/%d: %s body=%d trips=%.1f cost=%.2f vcs=%d",
				r.Func, r.LoopID, r.Decision, r.BodySize, r.AvgTrip, r.EstCost, r.VCCount)
		}
		t.Fatal("expected at least one SPT loop to be selected")
	}
}

func TestParseLevel(t *testing.T) {
	cases := []struct {
		name      string
		allowBase bool
		want      core.Level
		ok        bool
	}{
		{"base", true, core.LevelBase, true},
		{"base", false, 0, false},
		{"basic", false, core.LevelBasic, true},
		{"best", false, core.LevelBest, true},
		{"anticipated", true, core.LevelAnticipated, true},
		{"turbo", true, 0, false},
		{"", true, 0, false},
	}
	for _, tc := range cases {
		got, ok := core.ParseLevel(tc.name, tc.allowBase)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("ParseLevel(%q, %v) = (%v, %v), want (%v, %v)",
				tc.name, tc.allowBase, got, ok, tc.want, tc.ok)
		}
	}
}
