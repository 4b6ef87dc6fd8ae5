package interp_test

import (
	"strings"
	"testing"

	"sptc/internal/interp"
)

// stackSrc recurses 3000 activations deep through two functions, with
// locals that are live across every call, so the value stack grows
// while callers still hold registers in the old one.
const stackSrc = `
var g int[16];
func even(n int, acc int) int {
	var a int = n * 3;
	var b int = acc + 7;
	if (n == 0) { return acc; }
	var r int = odd(n - 1, acc + a % 5);
	g[n % 16] = r;
	return r + a - b + 7;
}
func odd(n int, acc int) int {
	var c int = n + acc;
	if (n == 0) { return acc + 1; }
	var r int = even(n - 1, acc + 2);
	return r - c + n;
}
func main() {
	var i int;
	var s int = 0;
	for (i = 0; i < 40; i++) {
		s = s + even(i, i);
	}
	print(s, even(3000, 1), g[3]);
}
`

// stackWant is stackSrc's output and stackSteps its statement count,
// both recorded from the map-register interpreter this one replaced.
const (
	stackWant  = "-21330 -2239499 -1765\n"
	stackSteps = 19353
)

// refEven and refOdd compute even/odd of stackSrc in Go.
func refEven(n, acc int64) int64 {
	a, b := n*3, acc+7
	if n == 0 {
		return acc
	}
	return refOdd(n-1, acc+a%5) + a - b + 7
}

func refOdd(n, acc int64) int64 {
	c := n + acc
	if n == 0 {
		return acc + 1
	}
	return refEven(n-1, acc+2) - c + n
}

func TestDeepMutualRecursionGrowsStack(t *testing.T) {
	var s int64
	for i := int64(0); i < 40; i++ {
		s += refEven(i, i)
	}
	if got, want := s, int64(-21330); got != want {
		t.Fatalf("reference sum %d, want %d", got, want)
	}
	if got := refEven(3000, 1); got != -2239499 {
		t.Fatalf("reference even(3000) = %d", got)
	}

	p := compile(t, stackSrc, true)
	var out strings.Builder
	m := interp.New(p, &out)
	var maxDepth int
	m.Hooks.OnEnter = func(fr *interp.Frame) {
		maxDepth = max(maxDepth, fr.Depth)
		if len(fr.Regs) != fr.Func.NumVars() {
			t.Fatalf("%s: %d registers, want %d", fr.Func.Name, len(fr.Regs), fr.Func.NumVars())
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if maxDepth < 3000 {
		t.Fatalf("max depth %d: recursion too shallow to grow the stack", maxDepth)
	}
	if out.String() != stackWant {
		t.Errorf("output %q, want %q", out.String(), stackWant)
	}
	if m.Steps != stackSteps {
		t.Errorf("steps %d, want %d", m.Steps, stackSteps)
	}
}

// TestStepLimitCount pins where ErrStepLimit fires: the first non-phi
// statement whose step number exceeds MaxSteps. Phi steps count but do
// not check, so a limit that falls inside a block's phis fires at the
// first statement after them.
func TestStepLimitCount(t *testing.T) {
	p := compile(t, stackSrc, true)
	for _, c := range []struct{ limit, steps int64 }{
		{1, 2}, {4, 7}, {5, 7}, {16, 18}, {100, 101}, {12345, 12346}, {stackSteps - 1, stackSteps},
	} {
		m := interp.New(p, &strings.Builder{})
		m.MaxSteps = c.limit
		if _, err := m.Run(); err != interp.ErrStepLimit {
			t.Fatalf("limit %d: got %v, want ErrStepLimit", c.limit, err)
		}
		if m.Steps != c.steps {
			t.Errorf("limit %d: stopped at step %d, want %d", c.limit, m.Steps, c.steps)
		}
	}
	m := interp.New(p, &strings.Builder{})
	m.MaxSteps = stackSteps
	if _, err := m.Run(); err != nil {
		t.Fatalf("limit equal to the step count: %v", err)
	}
}
