package machine

import (
	"errors"
	"math"
	"testing"
	"unsafe"

	"sptc/internal/ir"
)

// TestLoweringRejectsOutOfRangeGlobal pins the lowering layer's typed
// error: a global reaching past the int32 word range that lowered
// instructions address yields a *LoweringError naming it, and is not
// cached. A global ending exactly at the range's end still lowers. Only
// lowering runs here: Run would also size a memory image for these
// programs.
func TestLoweringRejectsOutOfRangeGlobal(t *testing.T) {
	layout := func(dim int) *ir.Program {
		prog := ir.NewProgram()
		prog.AddGlobal(&ir.Global{Name: "x", Elem: ir.ValInt})
		prog.AddGlobal(&ir.Global{Name: "big", Elem: ir.ValInt, Dims: []int{dim}})
		prog.NewFunc("main", ir.ValInt)
		prog.Layout()
		return prog
	}
	cfg := DefaultConfig()

	prog := layout(math.MaxInt32) // words 1..2^31-1: one past the range
	_, err := lowerProgram(prog, cfg)
	var le *LoweringError
	if !errors.As(err, &le) {
		t.Fatalf("lowering error %T (%v), want *LoweringError", err, err)
	}
	if le.Global != "big" || le.Addr != 1 || le.Size != math.MaxInt32 {
		t.Errorf("LoweringError = %+v, want global big at word 1 of size %d", *le, math.MaxInt32)
	}
	lowCacheMu.Lock()
	cached := lowCache[prog] != nil
	lowCacheMu.Unlock()
	if cached {
		t.Error("a rejected program was cached")
	}

	if _, err := lowerProgram(layout(math.MaxInt32-1), cfg); err != nil {
		t.Errorf("global ending at word 2^31-2 rejected: %v", err)
	}
}

// TestHotRecordSizes pins the layouts the engine's speed rests on: a
// value is one 8-byte word, an operand-stack slot is a value plus its
// taint in 16 bytes, and an executed instruction fills exactly one
// 64-byte cache line.
func TestHotRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Value", unsafe.Sizeof(Value(0)), 8},
		{"tval", unsafe.Sizeof(tval{}), 16},
		{"instr", unsafe.Sizeof(instr{}), 64},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}
