package machine_test

import (
	"strings"
	"testing"

	"sptc"
	"sptc/internal/interp"
	"sptc/internal/machine"
)

// specFriendly is a loop with a rare cross-iteration dependence and a
// heavy body: an ideal SPT candidate.
const specFriendly = `
var data float[2000];
var total float;
var peaks int;

func main() {
	var i int;
	for (i = 0; i < 2000; i++) {
		data[i] = float((i * 37) % 97) * 0.5 + 1.0;
	}
	for (i = 0; i < 2000; i++) {
		var x float = data[i];
		var acc float = 0.0;
		acc = acc + x * 1.5 + x * x * 0.25;
		acc = acc + fabs(x - 20.0) * 0.125 + fsqrt(x) * 0.5;
		acc = acc + x * 0.0625 + (x + 1.0) * 0.03125;
		acc = acc + fabs(acc - x) + fsqrt(acc + 1.0) * 0.5;
		acc = acc + x * 0.011 + acc * 0.003;
		if (acc > 90.0) {
			peaks = peaks + 1;
		}
		total = total + acc;
	}
	print(total, peaks);
}
`

// serialLoop carries a tight recurrence through every iteration: SPT
// cannot help and cost-driven selection should reject it.
const serialLoop = `
var out int;

func main() {
	var x int = 7;
	var i int;
	for (i = 0; i < 5000; i++) {
		x = (x * 1103515245 + 12345) % 2147483647;
	}
	out = x;
	print(out);
}
`

func compileRun(t *testing.T, src string, level sptc.Level) (*sptc.Result, *machine.Result, string) {
	t.Helper()
	res, err := sptc.Compile("bench.spl", src, level)
	if err != nil {
		t.Fatalf("compile %s: %v", level, err)
	}
	var out strings.Builder
	sim, err := sptc.Simulate(res, &out)
	if err != nil {
		t.Fatalf("simulate %s: %v", level, err)
	}
	return res, sim, out.String()
}

func interpOutput(t *testing.T, res *sptc.Result) string {
	t.Helper()
	var out strings.Builder
	m := interp.New(res.Prog, &out)
	if _, err := m.Run(); err != nil {
		t.Fatalf("interp: %v", err)
	}
	return out.String()
}

func TestSimulatorMatchesInterpreter(t *testing.T) {
	for _, src := range []string{specFriendly, serialLoop} {
		for _, level := range []sptc.Level{sptc.LevelBase, sptc.LevelBest} {
			res, _, simOut := compileRun(t, src, level)
			if want := interpOutput(t, res); simOut != want {
				t.Errorf("level %s: simulator output %q, interpreter %q", level, simOut, want)
			}
		}
	}
}

func TestSPTSpeedsUpFriendlyLoop(t *testing.T) {
	_, base, baseOut := compileRun(t, specFriendly, sptc.LevelBase)
	res, spt, sptOut := compileRun(t, specFriendly, sptc.LevelBest)
	if baseOut != sptOut {
		t.Fatalf("outputs differ: %q vs %q", baseOut, sptOut)
	}
	if len(res.SPT) == 0 {
		for _, r := range res.Reports {
			t.Logf("loop %s/%d: %s body=%d cost=%.2f", r.Func, r.LoopID, r.Decision, r.BodySize, r.EstCost)
		}
		t.Fatal("no SPT loops selected")
	}
	speedup := base.Cycles / spt.Cycles
	t.Logf("base=%.0f spt=%.0f speedup=%.3f ipc=%.2f", base.Cycles, spt.Cycles, speedup, base.IPC())
	if speedup < 1.05 {
		t.Errorf("expected at least 5%% speedup on the speculation-friendly loop, got %.3f", speedup)
	}
	for id, ls := range spt.Loops {
		t.Logf("loop %d: iters=%d spec=%d misspec=%d reexec=%.4f speedup=%.3f",
			id, ls.Iterations, ls.SpecIters, ls.MisspecIters, ls.ReexecRatio(), ls.LoopSpeedup())
	}
}

func TestSerialLoopNotSelected(t *testing.T) {
	res, _, _ := compileRun(t, serialLoop, sptc.LevelBest)
	if len(res.SPT) != 0 {
		t.Errorf("serial recurrence loop was selected for speculation")
	}
}

func TestSerialLoopForcedSpeculationMisspeculates(t *testing.T) {
	// Force the serial loop to be transformed; the simulator must still
	// produce correct output, and the re-execution ratio must be high.
	opt := sptc.DefaultOptions(sptc.LevelBasic)
	opt.DisableSelection = true
	res, err := sptc.CompileWith("bench.spl", serialLoop, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(res.SPT) == 0 {
		t.Skip("loop not transformable")
	}
	var out strings.Builder
	sim, err := sptc.Simulate(res, &out)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if want := interpOutput(t, res); out.String() != want {
		t.Fatalf("output %q, want %q", out.String(), want)
	}
	for _, ls := range sim.Loops {
		if ls.SpecIters > 100 && ls.ReexecRatio() < 0.3 {
			t.Errorf("expected heavy re-execution on a serial loop, got %.3f", ls.ReexecRatio())
		}
	}
}

func TestIPCInPlausibleRange(t *testing.T) {
	_, sim, _ := compileRun(t, specFriendly, sptc.LevelBase)
	ipc := sim.IPC()
	if ipc < 0.2 || ipc > 2.5 {
		t.Errorf("base IPC %.2f outside plausible Itanium2 range", ipc)
	}
}

func TestCoverageAttribution(t *testing.T) {
	res, err := sptc.Compile("bench.spl", specFriendly, sptc.LevelBase)
	if err != nil {
		t.Fatal(err)
	}
	opt, sizes := sptc.CoverageOptions(res.Prog, 1000)
	if len(sizes) == 0 {
		t.Fatal("no loops found for coverage attribution")
	}
	sim, err := machine.Run(res.Prog, machine.DefaultConfig(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var covered float64
	for _, c := range sim.CyclesByLoop {
		covered += c
	}
	frac := covered / sim.Cycles
	t.Logf("loop coverage: %.2f of %.0f cycles", frac, sim.Cycles)
	if frac <= 0.5 || frac > 1.0001 {
		t.Errorf("coverage fraction %.3f implausible for a loop-dominated program", frac)
	}
}
