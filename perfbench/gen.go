package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"sptc/internal/interp"
	"sptc/internal/ir"
	"sptc/internal/parser"
	"sptc/internal/sem"
)

// wideLoop is one loop of a generated search program: a fan of
// accumulator recurrences over a shared array. Every subset of the fan's
// violation candidates is a legal partition, so pass 1's search grows
// exponentially with the fan width.
type wideLoop struct {
	fan    int   // accumulators (violation candidates)
	trip   int   // iteration count
	stride int   // odd multiplier of the array store index
	offs   []int // per-accumulator read offsets
	salt   int   // constant folded into every accumulator; edits change it
}

// newWideLoop draws one loop's seeded shape.
func newWideLoop(rng *rand.Rand, fan int) wideLoop {
	lp := wideLoop{
		fan:    fan,
		trip:   120 + rng.Intn(61),
		stride: 2*rng.Intn(8) + 1,
		salt:   1 + rng.Intn(1000),
	}
	for k := 0; k < fan; k++ {
		lp.offs = append(lp.offs, rng.Intn(64))
	}
	return lp
}

// wideProgram renders loops as an SPL program, in the shape of the
// repository's incremental-compile benchmark source.
func wideProgram(loops []wideLoop) string {
	var sb strings.Builder
	sb.WriteString("var a int[64];\n")
	for l, lp := range loops {
		for k := 0; k < lp.fan; k++ {
			fmt.Fprintf(&sb, "var s%dx%d int;\n", l, k)
		}
	}
	sb.WriteString("func main() {\n")
	for l, lp := range loops {
		fmt.Fprintf(&sb, "\tvar i%d int;\n\tfor (i%d = 0; i%d < %d; i%d++) {\n", l, l, l, lp.trip, l)
		for k := 0; k < lp.fan; k++ {
			fmt.Fprintf(&sb, "\t\ts%dx%d = (s%dx%d + a[(i%d + %d) & 63] + %d) & 1048575;\n", l, k, l, k, l, lp.offs[k], lp.salt+k)
		}
		fmt.Fprintf(&sb, "\t\ta[(i%d * %d) & 63] = i%d;\n\t}\n", l, lp.stride, l)
	}
	sb.WriteString("\tprint(")
	first := true
	for l, lp := range loops {
		for k := 0; k < lp.fan; k++ {
			if !first {
				sb.WriteString(" + ")
			}
			first = false
			fmt.Fprintf(&sb, "s%dx%d", l, k)
		}
	}
	sb.WriteString(");\n}\n")
	return sb.String()
}

// interpOutput runs the unoptimised program (straight from the IR
// builder, before SSA) on interp, the reference executor independent of
// the machine simulator, and returns what it prints.
func interpOutput(name, src string) (string, error) {
	prog, err := parser.Parse(name, src)
	if err != nil {
		return "", err
	}
	info, err := sem.Check(prog)
	if err != nil {
		return "", err
	}
	p, err := ir.Build(info)
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	if _, err := interp.New(p, &out).Run(); err != nil {
		return "", fmt.Errorf("interp %s: %w", name, err)
	}
	return out.String(), nil
}
