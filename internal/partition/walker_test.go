package partition_test

import (
	"fmt"
	"strings"
	"testing"

	"sptc/internal/ir"
	"sptc/internal/partition"
	"sptc/internal/splgen"
)

// overlapFanSource builds a loop with n conditional accumulators that
// all read one shared temporary: every closure moves the temporary's
// producers (closures overlap) and copies its store's branch condition.
func overlapFanSource(n int) string {
	var b strings.Builder
	b.WriteString("var a int[64];\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "var s%d int;\n", k)
	}
	b.WriteString("func main() {\n\tvar i int;\n\tfor (i = 0; i < 200; i++) {\n")
	b.WriteString("\t\tvar t int = a[i & 63] * 3 + (i >> 1);\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "\t\tif ((t & %d) != 0) {\n\t\t\ts%d = (s%d + t + %d) & 1048575;\n\t\t}\n", 1<<k, k, k, k)
	}
	b.WriteString("\t\ta[(i * 7) & 63] = i;\n\t}\n\tprint(")
	for k := 0; k < n; k++ {
		if k > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "s%d", k)
	}
	b.WriteString(");\n}\n")
	return b.String()
}

// TestWalkerUndoMatchesUnion checks the walker's push/pop state over
// whole unpruned subset trees of the overlap fan and the splgen and
// adversarial programs: after a push the current sets and size are the
// union of the pushed closures, after a pop they are exactly what they
// were before the push.
func TestWalkerUndoMatchesUnion(t *testing.T) {
	fan := overlapFanSource(8)
	gs, _ := mainLoopGraphs(t, fan)
	if len(gs) == 0 {
		t.Fatal("overlap fan produced no loop graph")
	}
	// The fan must exercise what the size arithmetic has to get right:
	// a statement shared by two closures, and copied conditions.
	shared, conds := false, false
	seen := map[*ir.Stmt]bool{}
	for _, vc := range gs[0].VCs {
		cl := partition.ComputeClosure(gs[0], vc)
		for st := range cl.Move {
			shared = shared || seen[st]
			seen[st] = true
		}
		conds = conds || len(cl.CopyConds) > 0
	}
	if !shared || !conds {
		t.Fatalf("overlap fan: shared closure statement %v, copied conditions %v; want both", shared, conds)
	}

	srcs := []string{fan}
	for seed := int64(0); seed < 6; seed++ {
		srcs = append(srcs, splgen.Generate(seed), splgen.Adversarial(seed))
	}
	for k, src := range srcs {
		gs, ms := mainLoopGraphs(t, src)
		for i := range gs {
			if bad := partition.WalkerUndoMismatch(gs[i], ms[i]); bad != "" {
				t.Errorf("program %d, loop %d: %s", k, i, bad)
			}
		}
	}
}
