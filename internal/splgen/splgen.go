// Package splgen generates random but well-formed SPL programs for
// differential and property-based testing. Generated programs exercise
// the transformation space — affine and indirect array accesses, scalar
// accumulators, conditional updates, nested and while loops (Generate),
// floats, casts, float builtins and calls (Mixed) — while staying
// trap-free by construction: all indices are masked into bounds and all
// divisors are nonzero constants, so every generated program runs to
// completion under every compilation level.
//
// Generation is deterministic in the seed, which makes the package
// directly usable from native fuzz targets: the fuzzer mutates the seed,
// splgen turns it into a valid program, and the harness compares
// pipeline outputs.
package splgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// gen carries the generator state for one program.
type gen struct {
	r   *rand.Rand
	buf strings.Builder
	// loop variables currently in scope, innermost last
	ivs []string
	tmp int
}

func (g *gen) pick(xs []string) string { return xs[g.r.Intn(len(xs))] }

func (g *gen) expr(depth int) string {
	atoms := []string{"7", "13", "g1", "g2"}
	for _, iv := range g.ivs {
		atoms = append(atoms, iv, iv)
	}
	if depth > 0 {
		atoms = append(atoms,
			"a["+g.index()+"]",
			"b["+g.index()+"]",
		)
	}
	if depth <= 0 {
		return g.pick(atoms)
	}
	switch g.r.Intn(7) {
	case 0:
		return "(" + g.expr(depth-1) + " + " + g.expr(depth-1) + ")"
	case 1:
		return "(" + g.expr(depth-1) + " - " + g.expr(depth-1) + ")"
	case 2:
		return "(" + g.expr(depth-1) + " * " + fmt.Sprint(g.r.Intn(5)+1) + ")"
	case 3:
		return "(" + g.expr(depth-1) + " % " + fmt.Sprint(g.r.Intn(29)+2) + ")"
	case 4:
		return "(" + g.expr(depth-1) + " & " + fmt.Sprint(g.r.Intn(63)+1) + ")"
	case 5:
		return "(" + g.expr(depth-1) + " >> " + fmt.Sprint(g.r.Intn(4)+1) + ")"
	default:
		return g.pick(atoms)
	}
}

// index produces a masked, always-in-bounds array index built only from
// scalars and constants (never array loads, to bound expression depth).
func (g *gen) index() string {
	return "(" + g.expr(0) + " + " + fmt.Sprint(g.r.Intn(64)) + ") & 63"
}

func (g *gen) stmt(depth, indent int) {
	pad := strings.Repeat("\t", indent)
	switch g.r.Intn(8) {
	case 0:
		fmt.Fprintf(&g.buf, "%sa[%s] = %s;\n", pad, g.index(), g.expr(2))
	case 1:
		fmt.Fprintf(&g.buf, "%sb[%s] = b[%s] + %s;\n", pad, g.index(), g.index(), g.expr(1))
	case 2:
		fmt.Fprintf(&g.buf, "%sg1 = (g1 + %s) & 1048575;\n", pad, g.expr(2))
	case 3:
		fmt.Fprintf(&g.buf, "%sg2 = (g2 ^ %s) & 1048575;\n", pad, g.expr(1))
	case 4:
		g.tmp++
		name := fmt.Sprintf("t%d", g.tmp)
		fmt.Fprintf(&g.buf, "%svar %s int = %s;\n", pad, name, g.expr(2))
		fmt.Fprintf(&g.buf, "%sa[(%s) & 63] = %s + 1;\n", pad, name, name)
	case 5:
		fmt.Fprintf(&g.buf, "%sif (%s %% %d == 0) {\n", pad, g.expr(1), g.r.Intn(5)+2)
		g.stmt(depth-1, indent+1)
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&g.buf, "%s} else {\n", pad)
			g.stmt(depth-1, indent+1)
		}
		fmt.Fprintf(&g.buf, "%s}\n", pad)
	case 6:
		if depth > 0 && len(g.ivs) < 3 {
			g.loop(depth-1, indent)
		} else {
			fmt.Fprintf(&g.buf, "%sg1 = (g1 + %s) & 1048575;\n", pad, g.expr(1))
		}
	default:
		fmt.Fprintf(&g.buf, "%sg2 = (g2 + a[%s] %% 97) & 1048575;\n", pad, g.index())
	}
}

func (g *gen) loop(depth, indent int) {
	pad := strings.Repeat("\t", indent)
	g.tmp++
	iv := fmt.Sprintf("i%d", g.tmp)
	trips := g.r.Intn(30) + 4
	step := g.r.Intn(2) + 1
	if g.r.Intn(3) == 0 {
		// while-style loop with explicit update
		fmt.Fprintf(&g.buf, "%svar %s int = 0;\n", pad, iv)
		fmt.Fprintf(&g.buf, "%swhile (%s < %d) {\n", pad, iv, trips)
		g.ivs = append(g.ivs, iv)
		n := g.r.Intn(3) + 1
		for k := 0; k < n; k++ {
			g.stmt(depth, indent+1)
		}
		fmt.Fprintf(&g.buf, "%s\t%s = %s + %d;\n", pad, iv, iv, step)
		g.ivs = g.ivs[:len(g.ivs)-1]
		fmt.Fprintf(&g.buf, "%s}\n", pad)
		return
	}
	fmt.Fprintf(&g.buf, "%svar %s int;\n", pad, iv)
	fmt.Fprintf(&g.buf, "%sfor (%s = 0; %s < %d; %s += %d) {\n", pad, iv, iv, trips, iv, step)
	g.ivs = append(g.ivs, iv)
	n := g.r.Intn(4) + 1
	for k := 0; k < n; k++ {
		g.stmt(depth, indent+1)
	}
	g.ivs = g.ivs[:len(g.ivs)-1]
	fmt.Fprintf(&g.buf, "%s}\n", pad)
}

// Adversarial returns the SPL source of a program engineered to stress
// the partition search rather than sample the transformation space:
//
//   - a deep chain of accumulators where each value-communicating
//     statement depends on the previous one, so every VC's closure drags
//     the whole prefix into the pre-fork and legality forces the DFS
//     through one long spine;
//   - a wide fan of independent recurrences, a 2^n subset space with no
//     dependence structure for pruning to grab onto;
//   - a mixed loop interleaving both with cross-iteration array
//     recurrences feeding the scalars.
//
// Like Generate, the output is deterministic in the seed, trap-free by
// construction, and ends by printing a hash of all observable state.
func Adversarial(seed int64) string {
	g := &gen{r: rand.New(rand.NewSource(seed))}
	// Enough chain/fan scalars for a painful search, few enough that the
	// exhaustive fuzz oracle still covers some of the generated loops.
	n := g.r.Intn(9) + 4 // 4..12 scalar recurrences per loop
	g.buf.WriteString("var a int[64];\nvar b int[64];\nvar g1 int;\nvar g2 int;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&g.buf, "var s%d int;\n", i)
	}
	g.buf.WriteString("\nfunc main() {\n")

	trips := g.r.Intn(25) + 8
	chain := func() {
		fmt.Fprintf(&g.buf, "\tvar i%d int;\n\tfor (i%d = 0; i%d < %d; i%d++) {\n", g.tmp, g.tmp, g.tmp, trips, g.tmp)
		iv := fmt.Sprintf("i%d", g.tmp)
		fmt.Fprintf(&g.buf, "\t\ts0 = (s0 + a[(%s + %d) & 63] + %d) & 1048575;\n", iv, g.r.Intn(64), g.r.Intn(97)+1)
		for i := 1; i < n; i++ {
			fmt.Fprintf(&g.buf, "\t\ts%d = (s%d + s%d + %d) & 1048575;\n", i, i, i-1, g.r.Intn(97)+1)
		}
		fmt.Fprintf(&g.buf, "\t\tb[(%s + %d) & 63] = s%d;\n\t}\n", iv, g.r.Intn(64), n-1)
	}
	fan := func() {
		fmt.Fprintf(&g.buf, "\tvar i%d int;\n\tfor (i%d = 0; i%d < %d; i%d++) {\n", g.tmp, g.tmp, g.tmp, trips, g.tmp)
		iv := fmt.Sprintf("i%d", g.tmp)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&g.buf, "\t\ts%d = (s%d + a[(%s + %d) & 63] + %d) & 1048575;\n", i, i, iv, g.r.Intn(64), g.r.Intn(97)+1)
		}
		fmt.Fprintf(&g.buf, "\t\tg1 = (g1 + %s) & 1048575;\n\t}\n", iv)
	}
	mixed := func() {
		fmt.Fprintf(&g.buf, "\tvar i%d int;\n\tfor (i%d = 0; i%d < %d; i%d++) {\n", g.tmp, g.tmp, g.tmp, trips, g.tmp)
		iv := fmt.Sprintf("i%d", g.tmp)
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				fmt.Fprintf(&g.buf, "\t\ts%d = (s%d + a[(%s + %d) & 63]) & 1048575;\n", i, i, iv, g.r.Intn(64))
			case 1:
				fmt.Fprintf(&g.buf, "\t\ts%d = (s%d + s%d + %d) & 1048575;\n", i, i, i-1, g.r.Intn(97)+1)
			default:
				fmt.Fprintf(&g.buf, "\t\ta[(%s + %d) & 63] = (a[(%s + %d) & 63] + s%d) & 1048575;\n",
					iv, g.r.Intn(64), iv, g.r.Intn(64), i-1)
			}
		}
		fmt.Fprintf(&g.buf, "\t\tg2 = (g2 ^ s%d) & 1048575;\n\t}\n", n-1)
	}
	shapes := []func(){chain, fan, mixed}
	nLoops := g.r.Intn(2) + 1
	for i := 0; i < nLoops; i++ {
		shapes[g.r.Intn(len(shapes))]()
		g.tmp++
	}

	g.buf.WriteString("\tvar k int;\n\tvar h int = 0;\n")
	g.buf.WriteString("\tfor (k = 0; k < 64; k++) { h = (h * 31 + a[k] + b[k]) & 268435455; }\n")
	fmt.Fprintf(&g.buf, "\tfor (k = 0; k < %d; k++) { h = (h * 37 + s%d) & 268435455; }\n", n, n-1)
	g.buf.WriteString("\tprint(g1, g2, h);\n}\n")
	return g.buf.String()
}

// Generate returns the SPL source of a random program. The same seed
// always yields the same program. Every program declares arrays a and b,
// accumulators g1 and g2, runs a few generated loop nests, and prints a
// final hash of all observable state, so any semantic divergence between
// two executions shows up in the output.
func Generate(seed int64) string {
	g := &gen{r: rand.New(rand.NewSource(seed))}
	g.buf.WriteString("var a int[64];\nvar b int[64];\nvar g1 int;\nvar g2 int;\n\nfunc main() {\n")
	nLoops := g.r.Intn(3) + 2
	for i := 0; i < nLoops; i++ {
		g.loop(2, 1)
	}
	g.buf.WriteString("\tvar k int;\n\tvar h int = 0;\n")
	g.buf.WriteString("\tfor (k = 0; k < 64; k++) { h = (h * 31 + a[k] + b[k]) & 268435455; }\n")
	g.buf.WriteString("\tprint(g1, g2, h);\n}\n")
	return g.buf.String()
}

// mixed carries the generator state for one Mixed program.
type mixed struct {
	r   *rand.Rand
	buf strings.Builder
	// ints and floats are the scalars in scope besides the globals:
	// the loop variable and locals in a loop of main, the parameters in
	// mix.
	ints, floats []string
	tmp          int
}

func (g *mixed) pick(xs []string) string { return xs[g.r.Intn(len(xs))] }

// clamp bounds a float expression, so no value grows without limit.
func clamp(e string) string { return "fmin(fmax(" + e + ", -1000.0), 1000.0)" }

// fexpr produces a float expression. Every builtin argument is
// non-negative where it must be (fsqrt takes fabs) and every divisor is
// a nonzero constant. Calls to mix appear only when call is set.
func (g *mixed) fexpr(depth int, call bool) string {
	atoms := append([]string{"f1", "f2", "0.5", "1.25"}, g.floats...)
	if depth <= 0 {
		if g.r.Intn(3) == 0 {
			return "float(" + g.pick(append([]string{"g1", "3"}, g.ints...)) + ")"
		}
		return g.pick(atoms)
	}
	switch g.r.Intn(11) {
	case 0:
		return "(" + g.fexpr(depth-1, call) + " + " + g.fexpr(depth-1, call) + ")"
	case 1:
		return "(" + g.fexpr(depth-1, call) + " - " + g.fexpr(depth-1, call) + ")"
	case 2:
		return "(" + g.fexpr(depth-1, call) + " * " + g.pick([]string{"0.5", "0.75", "1.5"}) + ")"
	case 3:
		return "(" + g.fexpr(depth-1, call) + " / " + g.pick([]string{"2.0", "4.0", "0.5"}) + ")"
	case 4:
		return "fabs(" + g.fexpr(depth-1, call) + ")"
	case 5:
		return "fmin(" + g.fexpr(depth-1, call) + ", " + g.fexpr(depth-1, call) + ")"
	case 6:
		return "fmax(" + g.fexpr(depth-1, call) + ", " + g.fexpr(depth-1, call) + ")"
	case 7:
		return "fsqrt(fabs(" + g.fexpr(depth-1, call) + "))"
	case 8:
		return "float(" + g.iexpr(depth-1, call) + ")"
	case 9:
		return "fa[" + g.index() + "]"
	default:
		if call {
			return "mix(" + g.iexpr(depth-1, false) + ", " + g.fexpr(depth-1, false) + ")"
		}
		return g.pick(atoms)
	}
}

// iexpr produces an int expression; float operands enter through int().
func (g *mixed) iexpr(depth int, call bool) string {
	atoms := append([]string{"7", "g1"}, g.ints...)
	if depth <= 0 {
		return g.pick(atoms)
	}
	switch g.r.Intn(7) {
	case 0:
		return "(" + g.iexpr(depth-1, call) + " + " + g.iexpr(depth-1, call) + ")"
	case 1:
		return "(" + g.iexpr(depth-1, call) + " - " + g.iexpr(depth-1, call) + ")"
	case 2:
		return "(" + g.iexpr(depth-1, call) + " % " + fmt.Sprint(g.r.Intn(29)+2) + ")"
	case 3:
		return "(" + g.iexpr(depth-1, call) + " / " + fmt.Sprint(g.r.Intn(5)+2) + ")"
	case 4, 5:
		return "int(" + g.fexpr(depth-1, call) + ")"
	default:
		return g.pick(atoms)
	}
}

// index produces an always-in-bounds index into a or fa.
func (g *mixed) index() string {
	return "(" + g.pick(append([]string{"g1"}, g.ints...)) + " + " + fmt.Sprint(g.r.Intn(64)) + ") & 63"
}

func (g *mixed) stmt(pad string) {
	switch g.r.Intn(8) {
	case 0:
		fmt.Fprintf(&g.buf, "%sf1 = %s;\n", pad, clamp("f1 + "+g.fexpr(2, true)))
	case 1:
		fmt.Fprintf(&g.buf, "%sfa[%s] = %s;\n", pad, g.index(), clamp(g.fexpr(2, true)))
	case 2:
		fmt.Fprintf(&g.buf, "%sg1 = (g1 + int(%s)) & 1048575;\n", pad, g.fexpr(2, true))
	case 3:
		fmt.Fprintf(&g.buf, "%sa[%s] = (a[%s] + %s) & 1048575;\n", pad, g.index(), g.index(), g.iexpr(2, true))
	case 4:
		g.tmp++
		name := fmt.Sprintf("t%d", g.tmp)
		fmt.Fprintf(&g.buf, "%svar %s float = %s;\n", pad, name, g.fexpr(2, true))
		fmt.Fprintf(&g.buf, "%sf2 = %s;\n", pad, clamp("f2 * 0.5 + "+name))
		g.floats = append(g.floats, name)
	case 5:
		// A local declared in a branch goes out of scope with it.
		floats := len(g.floats)
		fmt.Fprintf(&g.buf, "%sif (%s < %s) {\n", pad, g.fexpr(1, false), g.fexpr(1, false))
		g.stmt(pad + "\t")
		g.floats = g.floats[:floats]
		fmt.Fprintf(&g.buf, "%s} else {\n", pad)
		g.stmt(pad + "\t")
		g.floats = g.floats[:floats]
		fmt.Fprintf(&g.buf, "%s}\n", pad)
	case 6:
		fmt.Fprintf(&g.buf, "%sg1 = (g1 + a[%s] %% 97 + int(fa[%s])) & 1048575;\n", pad, g.index(), g.index())
	default:
		fmt.Fprintf(&g.buf, "%sf2 = mix(%s, %s);\n", pad, g.iexpr(1, false), g.fexpr(1, false))
	}
}

// Mixed returns the SPL source of a random program that exercises what
// Generate leaves out: float globals, locals and an array, int<->float
// casts, the float builtins, and a user function of an int and a float
// parameter called from inside every loop. Like Generate, the output is
// deterministic in the seed and ends by printing all observable state.
// It cannot fault: fsqrt only takes fabs of its argument, every divisor
// is a nonzero constant, and every float global, array element and mix
// result is clamped to [-1000, 1000], so no value reaches infinity or
// leaves int's range.
func Mixed(seed int64) string {
	g := &mixed{r: rand.New(rand.NewSource(seed))}
	g.buf.WriteString("var a int[64];\nvar fa float[64];\nvar g1 int;\nvar f1 float = 0.5;\nvar f2 float;\n\n")

	g.ints, g.floats = []string{"x"}, []string{"y"}
	g.buf.WriteString("func mix(x int, y float) float {\n")
	fmt.Fprintf(&g.buf, "\tvar r float = %s;\n", g.fexpr(2, false))
	fmt.Fprintf(&g.buf, "\tif (r > %s) {\n\t\tr = %s;\n\t}\n", g.fexpr(1, false), g.fexpr(2, false))
	fmt.Fprintf(&g.buf, "\treturn %s;\n}\n\nfunc main() {\n", clamp("r"))

	nLoops := g.r.Intn(2) + 2
	for i := 0; i < nLoops; i++ {
		g.tmp++
		iv := fmt.Sprintf("i%d", g.tmp)
		fmt.Fprintf(&g.buf, "\tvar %s int;\n\tfor (%s = 0; %s < %d; %s++) {\n", iv, iv, iv, g.r.Intn(40)+16, iv)
		g.ints, g.floats = []string{iv}, nil
		fmt.Fprintf(&g.buf, "\t\tf2 = mix(%s, f1);\n", iv)
		for k := g.r.Intn(4) + 2; k > 0; k-- {
			g.stmt("\t\t")
		}
		g.buf.WriteString("\t}\n")
	}
	g.buf.WriteString("\tvar k int;\n\tvar h int = 0;\n\tvar hf float = 0.0;\n")
	g.buf.WriteString("\tfor (k = 0; k < 64; k++) { h = (h * 31 + a[k]) & 268435455; hf = hf + fa[k]; }\n")
	g.buf.WriteString("\tprint(g1, h, int(f1 * 1000.0), int(hf * 1000.0));\n\tprint(f1, f2, hf);\n}\n")
	return g.buf.String()
}
