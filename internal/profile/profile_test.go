package profile_test

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"sptc"
	"sptc/internal/benchprog"
	"sptc/internal/interp"
	"sptc/internal/ir"
	"sptc/internal/parser"
	"sptc/internal/profile"
	"sptc/internal/sem"
	"sptc/internal/splgen"
	"sptc/internal/ssa"
)

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func profileRun(t *testing.T, src string) (*ir.Program, map[*ir.Func]*ssa.LoopNest, *profile.Profiles) {
	t.Helper()
	prog, nests := buildProgram(t, src)
	prof, err := profile.Run(context.Background(), prog, nests, discard{}, 0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return prog, nests, prof
}

// buildProgram builds src in SSA form and finds its loop nests, the
// state the pipeline profiles.
func buildProgram(t testing.TB, src string) (*ir.Program, map[*ir.Func]*ssa.LoopNest) {
	t.Helper()
	p, err := parser.Parse("t.spl", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(p)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	prog, err := ir.Build(info)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	nests := make(map[*ir.Func]*ssa.LoopNest)
	for _, f := range prog.Funcs {
		dom := ssa.BuildDomTree(f)
		ssa.Build(f, dom)
		nests[f] = ssa.FindLoops(f, ssa.BuildDomTree(f))
	}
	return prog, nests
}

func TestEdgeProfileCountsAndProbabilities(t *testing.T) {
	prog, nests, prof := profileRun(t, `
var s int;
func main() {
	var i int;
	for (i = 0; i < 100; i++) {
		if (i % 4 == 0) { s += i; }
	}
	print(s);
}
`)
	prof.Edge.Apply(prog)
	f := prog.Main
	nest := nests[f]
	if len(nest.Loops) != 1 {
		t.Fatalf("%d loops", len(nest.Loops))
	}
	l := nest.Loops[0]
	st := prof.Edge.Stats(l)
	if st.Entries != 1 || st.Iterations != 101 {
		t.Errorf("entries=%d iterations=%d", st.Entries, st.Iterations)
	}
	if st.AvgTrip < 100 || st.AvgTrip > 102 {
		t.Errorf("avg trip %.1f", st.AvgTrip)
	}

	// The if-branch inside the loop is taken 25% of the time.
	var branch *ir.Block
	for _, b := range l.Blocks {
		if b == l.Header {
			continue
		}
		if term := b.Terminator(); term != nil && term.Kind == ir.StmtIf {
			branch = b
		}
	}
	if branch == nil {
		t.Fatal("no branch in loop")
	}
	if p := branch.SuccProb[0]; math.Abs(p-0.25) > 0.02 {
		t.Errorf("then-probability %.3f, want ~0.25", p)
	}
}

func TestDependenceProfileDistances(t *testing.T) {
	prog, nests, prof := profileRun(t, `
var a int[64];
func main() {
	var i int;
	a[0] = 1;
	for (i = 1; i < 64; i++) {
		a[i] = a[i-1] + 1;
	}
	print(a[63]);
}
`)
	_ = prog
	f := prog.Main
	l := nests[f].Loops[0]

	// Find the store and the load statement inside the loop.
	var store *ir.Stmt
	for _, b := range l.Blocks {
		for _, s := range b.Stmts {
			if s.Kind == ir.StmtStoreA {
				store = s
			}
		}
	}
	if store == nil {
		t.Fatal("no store")
	}
	// The a[i-1] load reads the previous iteration's store: cross
	// distance one with probability ~1.
	p := prof.Dep.CrossProb(store, store, l.Header)
	if p < 0.9 {
		t.Errorf("distance-1 cross probability %.3f, want ~1", p)
	}
	if ip := prof.Dep.IntraProb(store, store, l.Header); ip > 0.1 {
		t.Errorf("intra probability %.3f, want ~0", ip)
	}
}

func TestDependenceProfileRareCollisions(t *testing.T) {
	prog, nests, prof := profileRun(t, `
var tab int[512];
var idx int[512];
func main() {
	var i int;
	for (i = 0; i < 512; i++) {
		idx[i] = (i * 2654435761) & 511;
	}
	for (i = 0; i < 512; i++) {
		tab[idx[i]] = tab[idx[i]] + 1;
	}
	print(tab[0]);
}
`)
	f := prog.Main
	var second *ssa.Loop
	for _, l := range nests[f].Loops {
		if l.Header.ID > nests[f].Loops[0].Header.ID {
			second = l
		}
	}
	if second == nil {
		second = nests[f].Loops[len(nests[f].Loops)-1]
	}
	var store *ir.Stmt
	for _, b := range second.Blocks {
		for _, s := range b.Stmts {
			if s.Kind == ir.StmtStoreA && s.G.Name == "tab" {
				store = s
			}
		}
	}
	if store == nil {
		t.Skip("store not in this loop ordering")
	}
	if p := prof.Dep.CrossProb(store, store, second.Header); p > 0.2 {
		t.Errorf("hashed updates should rarely collide at distance 1: %.3f", p)
	}
}

func TestValueProfileStride(t *testing.T) {
	prog, nests, prof := profileRun(t, `
func main() {
	var x int = 0;
	var s int = 0;
	while (x < 1000) {
		s = s + (x & 7);
		x = x + 4;
	}
	print(s);
}
`)
	f := prog.Main
	l := nests[f].Loops[0]
	var upd *ir.Stmt
	for _, b := range l.Blocks {
		for _, s := range b.Stmts {
			if s.Kind == ir.StmtAssign && s.Dst != nil && s.Dst.Base.Name == "x" {
				upd = s
			}
		}
	}
	if upd == nil {
		t.Fatal("no x update")
	}
	pat := prof.Value.Pattern(upd)
	if pat == nil {
		t.Fatal("no value pattern recorded")
	}
	if pat.BestStride != 4 {
		t.Errorf("stride %d, want 4", pat.BestStride)
	}
	if pat.Confidence() < 0.95 {
		t.Errorf("confidence %.3f", pat.Confidence())
	}
}

func TestValueProfileUnpredictable(t *testing.T) {
	prog, nests, prof := profileRun(t, `
func main() {
	var x int = 12345;
	var i int;
	var s int;
	for (i = 0; i < 500; i++) {
		x = (x * 1103515245 + 12345) & 1073741823;
		s = s ^ x;
	}
	print(s);
}
`)
	f := prog.Main
	l := nests[f].Loops[0]
	var upd *ir.Stmt
	for _, b := range l.Blocks {
		for _, s := range b.Stmts {
			if s.Kind == ir.StmtAssign && s.Dst != nil && s.Dst.Base.Name == "x" {
				upd = s
			}
		}
	}
	pat := prof.Value.Pattern(upd)
	if pat != nil && pat.Confidence() > 0.5 {
		t.Errorf("LCG should not look stride-predictable: %.3f", pat.Confidence())
	}
}

func TestStaticEstimateNormalizes(t *testing.T) {
	p, _ := parser.Parse("t.spl", `
func main() {
	var i int;
	var s int;
	for (i = 0; i < 10; i++) {
		if (i & 1) { s++; }
	}
	print(s);
}
`)
	info, _ := sem.Check(p)
	prog, _ := ir.Build(info)
	f := prog.Main
	dom := ssa.BuildDomTree(f)
	nest := ssa.FindLoops(f, dom)
	profile.StaticEstimate(f, nest)
	for _, b := range f.Blocks {
		if len(b.Succs) == 0 {
			continue
		}
		sum := 0.0
		for _, pr := range b.SuccProb {
			if pr < 0 || pr > 1 {
				t.Errorf("b%d: probability %.3f out of range", b.ID, pr)
			}
			sum += pr
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("b%d: probabilities sum to %.3f", b.ID, sum)
		}
		if b.Freq <= 0 {
			t.Errorf("b%d: nonpositive frequency", b.ID)
		}
	}
}

func TestValueProfileStrideTieBreak(t *testing.T) {
	prog, nests, prof := profileRun(t, `
func main() {
	var i int;
	var y int;
	var z int;
	var s int;
	for (i = 0; i < 101; i++) {
		y = (i % 2) * 5;
		z = (i % 4 == 1) * 2 - (i % 4 == 2) * 3 + (i % 4 == 3) * 4;
		s = s + y + z;
	}
	print(s);
}
`)
	l := nests[prog.Main].Loops[0]
	want := map[string]int64{
		"y": -5, // +5 and -5 fifty times each: equal magnitude, smaller value
		"z": 2,  // +2, -5, +7, -4 in turn: smallest magnitude
	}
	for _, b := range l.Blocks {
		for _, s := range b.Stmts {
			if s.Kind != ir.StmtAssign || s.Dst == nil {
				continue
			}
			stride, ok := want[s.Dst.Base.Name]
			if !ok {
				continue
			}
			delete(want, s.Dst.Base.Name)
			pat := prof.Value.Pattern(s)
			if pat == nil {
				t.Fatalf("%s: no value pattern", s.Dst)
			}
			if pat.BestStride != stride {
				t.Errorf("%s: best stride %d (count %d of %d), want %d", s.Dst, pat.BestStride, pat.BestCount, pat.Total, stride)
			}
		}
	}
	if len(want) > 0 {
		t.Fatalf("assignments not found in the loop: %v", want)
	}
}

// refProfiler is the map-keyed profiler the dense tables replaced, kept
// as an executable specification: every table is keyed by IR pointers
// and every event updates it in the obvious way.
type refProfiler struct {
	blockFreq map[*ir.Block]int64
	edgeCount map[*ir.Block][]int64
	pairs     map[profile.DepKey]*profile.DepCount
	writeExec map[profile.StmtLoop]int64
	stmtExec  map[*ir.Stmt]int64
	strides   map[*ir.Stmt]*refValueState

	nests        map[*ir.Func]*ssa.LoopNest
	active       []refLoopInst
	nextInstance int64
	shadow       []refWriteRec
}

type refLoopInst struct {
	loop     *ssa.Loop
	frameID  int64
	instance int64
	iter     int64
}

type refWriteRec struct {
	stmt  *ir.Stmt
	valid bool
	depth int
	snap  [6]refLoopInst
}

type refValueState struct {
	prev    int64
	hasPrev bool
	strides map[int64]int64
	total   int64
}

func newRefProfiler(prog *ir.Program, nests map[*ir.Func]*ssa.LoopNest) *refProfiler {
	return &refProfiler{
		blockFreq: make(map[*ir.Block]int64),
		edgeCount: make(map[*ir.Block][]int64),
		pairs:     make(map[profile.DepKey]*profile.DepCount),
		writeExec: make(map[profile.StmtLoop]int64),
		stmtExec:  make(map[*ir.Stmt]int64),
		strides:   make(map[*ir.Stmt]*refValueState),
		nests:     nests,
		shadow:    make([]refWriteRec, prog.Layout()),
	}
}

func (p *refProfiler) hooks() interp.Hooks {
	return interp.Hooks{
		OnEnter: func(fr *interp.Frame) { p.blockFreq[fr.Func.Entry]++ },
		OnExit: func(fr *interp.Frame) {
			for len(p.active) > 0 && p.active[len(p.active)-1].frameID == fr.ID {
				p.active = p.active[:len(p.active)-1]
			}
		},
		OnEdge:  p.onEdge,
		OnLoad:  p.onLoad,
		OnStore: p.onStore,
		OnDef:   p.onDef,
	}
}

func (p *refProfiler) onEdge(fr *interp.Frame, from, to *ir.Block) {
	p.blockFreq[to]++
	counts := p.edgeCount[from]
	if counts == nil {
		counts = make([]int64, len(from.Succs))
		p.edgeCount[from] = counts
	}
	for i, s := range from.Succs {
		if s == to {
			counts[i]++
			break
		}
	}
	for len(p.active) > 0 {
		top := p.active[len(p.active)-1]
		if top.frameID != fr.ID || top.loop.Contains(to) {
			break
		}
		p.active = p.active[:len(p.active)-1]
	}
	nest := p.nests[fr.Func]
	if nest == nil {
		return
	}
	if l := nest.ByHeader[to]; l != nil {
		if n := len(p.active); n > 0 && p.active[n-1].loop == l && p.active[n-1].frameID == fr.ID {
			p.active[n-1].iter++
		} else {
			p.nextInstance++
			p.active = append(p.active, refLoopInst{loop: l, frameID: fr.ID, instance: p.nextInstance})
		}
	}
}

func (p *refProfiler) onStore(fr *interp.Frame, s *ir.Stmt, addr int) {
	p.stmtExec[s]++
	rec := &p.shadow[addr]
	rec.stmt, rec.valid, rec.depth = s, true, 0
	for i := len(p.active) - 1; i >= 0 && rec.depth < len(rec.snap); i-- {
		rec.snap[rec.depth] = p.active[i]
		rec.depth++
	}
	for _, a := range p.active {
		p.writeExec[profile.StmtLoop{S: s, Header: a.loop.Header}]++
	}
}

func (p *refProfiler) onLoad(fr *interp.Frame, s *ir.Stmt, op *ir.Op, addr int) {
	rec := &p.shadow[addr]
	if !rec.valid {
		return
	}
	for _, a := range p.active {
		for _, w := range rec.snap[:rec.depth] {
			if w.instance != a.instance {
				continue
			}
			key := profile.DepKey{W: rec.stmt, R: s, Header: a.loop.Header}
			c := p.pairs[key]
			if c == nil {
				c = &profile.DepCount{ROp: op.ID}
				p.pairs[key] = c
			}
			switch {
			case a.iter == w.iter:
				c.Intra++
			case a.iter == w.iter+1:
				c.Cross1++
				c.CrossAny++
			case a.iter > w.iter:
				c.CrossAny++
			}
		}
	}
}

func (p *refProfiler) onDef(fr *interp.Frame, s *ir.Stmt, v interp.Value) {
	if s.Dst == nil || s.Dst.Kind != ir.ValInt || s.Kind == ir.StmtPhi {
		return
	}
	st := p.strides[s]
	if st == nil {
		st = &refValueState{strides: make(map[int64]int64)}
		p.strides[s] = st
	}
	if st.hasPrev {
		st.strides[v.Int()-st.prev]++
		st.total++
	}
	st.prev, st.hasPrev = v.Int(), true
}

// pattern is ValueProfile.Pattern over the full histogram, with its
// tie-break spelled out as a sort: count descending, then |d|, then d.
func (p *refProfiler) pattern(s *ir.Stmt) *profile.ValuePattern {
	st := p.strides[s]
	if st == nil || st.total == 0 {
		return nil
	}
	var ds []int64
	for d := range st.strides {
		ds = append(ds, d)
	}
	abs := func(d int64) uint64 {
		if d < 0 {
			return -uint64(d)
		}
		return uint64(d)
	}
	slices.SortFunc(ds, func(a, b int64) int {
		return cmp.Or(-cmp.Compare(st.strides[a], st.strides[b]), cmp.Compare(abs(a), abs(b)), cmp.Compare(a, b))
	})
	return &profile.ValuePattern{Total: st.total, BestStride: ds[0], BestCount: st.strides[ds[0]], LastSame: st.strides[0]}
}

// loopPairs lists the reference pairs of the loop headed by header in
// LoopPairs' documented order: (W.ID, R.ID), then the functions' program
// order.
func (p *refProfiler) loopPairs(header *ir.Block, funcOf map[*ir.Stmt]int) []profile.DepKey {
	var keys []profile.DepKey
	for k := range p.pairs {
		if k.Header == header {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b profile.DepKey) int {
		return cmp.Or(cmp.Compare(a.W.ID, b.W.ID), cmp.Compare(a.R.ID, b.R.ID),
			cmp.Compare(funcOf[a.W], funcOf[b.W]), cmp.Compare(funcOf[a.R], funcOf[b.R]))
	})
	return keys
}

// profileTables is one profile's content in the exported shapes, so a
// profile can be compared with the reference profiler or with another
// profile.
type profileTables struct {
	blockFreq map[*ir.Block]int64
	edgeCount map[*ir.Block][]int64
	pairs     map[profile.DepKey]*profile.DepCount
	writeExec map[profile.StmtLoop]int64
	stmtExec  map[*ir.Stmt]int64
	loopPairs func(header *ir.Block) []profile.DepKey
	pattern   func(*ir.Stmt) *profile.ValuePattern
}

func tablesOf(p *profile.Profiles) profileTables {
	return profileTables{p.Edge.BlockFreq, p.Edge.EdgeCount, p.Dep.Pairs, p.Dep.WriteExec, p.Dep.StmtExec, p.Dep.LoopPairs, p.Value.Pattern}
}

// checkMatchesReference profiles prog with Run and with refProfiler and
// compares the two with compareProfiles.
func checkMatchesReference(t *testing.T, prog *ir.Program) (pairs, patterns int) {
	t.Helper()
	nests := make(map[*ir.Func]*ssa.LoopNest)
	for _, f := range prog.Funcs {
		nests[f] = ssa.FindLoops(f, ssa.BuildDomTree(f))
	}
	got, err := profile.Run(context.Background(), prog, nests, discard{}, 0)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	ref := newRefProfiler(prog, nests)
	m := interp.New(prog, discard{})
	m.Hooks = ref.hooks()
	if _, err := m.Run(); err != nil {
		t.Fatalf("reference profile: %v", err)
	}
	funcOf := make(map[*ir.Stmt]int)
	for i, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				funcOf[s] = i
			}
		}
	}
	want := profileTables{ref.blockFreq, ref.edgeCount, ref.pairs, ref.writeExec, ref.stmtExec,
		func(h *ir.Block) []profile.DepKey { return ref.loopPairs(h, funcOf) }, ref.pattern}
	return compareProfiles(t, prog, nests, tablesOf(got), want)
}

// compareProfiles requires identical edge counts, dependence pairs (and
// LoopPairs order), write and store counts, and value patterns for every
// loop-carried integer definition of prog (loopCarriedDefs); got must
// have no pattern for any other statement. It returns how many pairs and
// patterns it compared.
func compareProfiles(t *testing.T, prog *ir.Program, nests map[*ir.Func]*ssa.LoopNest, got, want profileTables) (pairs, patterns int) {
	t.Helper()
	if !reflect.DeepEqual(got.blockFreq, want.blockFreq) {
		t.Errorf("BlockFreq differs: %d blocks, want %d", len(got.blockFreq), len(want.blockFreq))
	}
	if !reflect.DeepEqual(got.edgeCount, want.edgeCount) {
		t.Errorf("EdgeCount differs: %d blocks, want %d", len(got.edgeCount), len(want.edgeCount))
	}
	if !reflect.DeepEqual(got.pairs, want.pairs) {
		t.Errorf("Pairs differ: %d pairs, want %d", len(got.pairs), len(want.pairs))
	}
	if !reflect.DeepEqual(got.writeExec, want.writeExec) {
		t.Errorf("WriteExec differs: %d entries, want %d", len(got.writeExec), len(want.writeExec))
	}
	if !reflect.DeepEqual(got.stmtExec, want.stmtExec) {
		t.Errorf("StmtExec differs: %d statements, want %d", len(got.stmtExec), len(want.stmtExec))
	}
	carried := loopCarriedDefs(prog, nests)
	for _, f := range prog.Funcs {
		for _, l := range nests[f].Loops {
			wantKeys := want.loopPairs(l.Header)
			if gotKeys := got.loopPairs(l.Header); !slices.Equal(gotKeys, wantKeys) {
				t.Errorf("%s %v: LoopPairs %d keys, want %d (or order differs)", f.Name, l, len(gotKeys), len(wantKeys))
			}
			pairs += len(wantKeys)
		}
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				if !carried[s] {
					if g := got.pattern(s); g != nil {
						t.Errorf("%s s%d: pattern %+v for a statement that is not a loop-carried integer definition", f.Name, s.ID, g)
					}
					continue
				}
				if g, w := got.pattern(s), want.pattern(s); !reflect.DeepEqual(g, w) {
					t.Errorf("%s s%d: pattern %+v, want %+v", f.Name, s.ID, g, w)
				}
				patterns++
			}
		}
	}
	return pairs, patterns
}

// loopCarriedDefs is the statement set ValueProfile documents, computed
// on IR pointers: for each loop, the integer assignments reached from
// its header phis' back-edge arguments, directly or through phis inside
// the loop.
func loopCarriedDefs(prog *ir.Program, nests map[*ir.Func]*ssa.LoopNest) map[*ir.Stmt]bool {
	set := make(map[*ir.Stmt]bool)
	for _, f := range prog.Funcs {
		def := make(map[*ir.Var]*ir.Stmt)
		blockOf := make(map[*ir.Stmt]*ir.Block)
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				if v := s.Defs(); v != nil {
					def[v], blockOf[s] = s, b
				}
			}
		}
		for _, l := range nests[f].Loops {
			seen := make(map[*ir.Stmt]bool)
			var walk func(v *ir.Var)
			walk = func(v *ir.Var) {
				d := def[v]
				if d == nil || seen[d] || !l.Contains(blockOf[d]) {
					return
				}
				seen[d] = true
				switch {
				case d.Kind == ir.StmtPhi:
					for _, a := range d.PhiArgs {
						walk(a)
					}
				case d.Kind == ir.StmtAssign && d.Dst.Kind == ir.ValInt:
					set[d] = true
				}
			}
			for _, phi := range l.Header.Stmts {
				if phi.Kind != ir.StmtPhi {
					continue
				}
				for i, a := range phi.PhiArgs {
					if i < len(l.Header.Preds) && l.Contains(l.Header.Preds[i]) {
						walk(a)
					}
				}
			}
		}
	}
	return set
}

// shadowCases are hand-written programs for the shadow memory's edge
// cases: a write seen by more loop instances than a record keeps, a loop
// whose instances sit at different stack positions, an instance ended
// mid-iteration, and a write older than the instance reading it.
var shadowCases = []struct{ name, src string }{
	{"nest8", `
var a int[16];
var s int;
func main() {
	var i0 int; var i1 int; var i2 int; var i3 int;
	var i4 int; var i5 int; var i6 int; var i7 int;
	for (i0 = 0; i0 < 2; i0++) {
		a[0] = a[0] + i0;
		for (i1 = 0; i1 < 2; i1++) {
			a[1] = a[0] + i1;
			for (i2 = 0; i2 < 2; i2++) {
				a[2] = a[1] + a[2];
				for (i3 = 0; i3 < 2; i3++) {
					a[3] = a[2] + a[0];
					for (i4 = 0; i4 < 3; i4++) {
						a[4] = a[3] + a[4];
						for (i5 = 0; i5 < 2; i5++) {
							a[5] = a[4] + a[1];
							for (i6 = 0; i6 < 3; i6++) {
								a[6] = a[5] + a[6];
								for (i7 = 0; i7 < 2; i7++) {
									a[7] = a[7] + a[6] + a[0] + a[3];
									s = s + a[8];
								}
								a[8] = a[7] + a[2];
							}
							s = s + a[7];
						}
					}
				}
				s = s + a[8] + a[5];
			}
		}
		s = s + a[6];
	}
	print(s);
}
`},
	{"recursion", `
var g int[16];
var s int;
func rec(d int) {
	var i int;
	for (i = 0; i < 3; i++) {
		g[d] = g[d] + i;
		s = s + g[0] + g[d + 1];
		if (d < 4) { rec(d + 1); }
		g[0] = g[0] + d;
	}
}
func main() {
	var j int;
	for (j = 0; j < 2; j++) { rec(0); }
	print(s);
}
`},
	{"return", `
var a int[64];
func find(k int) int {
	var i int;
	for (i = 0; i < 64; i++) {
		a[i] = a[i] + k;
		if (a[i] > 10 + k) { return i; }
		a[(i + 1) & 63] = a[(i + 1) & 63] + 1;
	}
	return -1;
}
func main() {
	var j int;
	var s int;
	for (j = 0; j < 30; j++) { s = s + find(j) + a[j & 63]; }
	print(s);
}
`},
	{"before", `
var x int;
var a int[8];
func main() {
	var i int;
	var j int;
	var s int;
	x = 5;
	a[3] = 7;
	for (i = 0; i < 10; i++) {
		a[i & 7] = a[i & 7] + 1;
		for (j = 0; j < 4; j++) {
			s = s + x + a[3] + a[i & 7];
		}
		if (i == 4) { x = i; }
	}
	print(s);
}
`},
}

// TestProfileMatchesReference pins the dense profiler to refProfiler on
// the shadow edge cases, on the benchmark suite's output at every
// profiled level (unrolled, privatized, SVP-rewritten and SPT-transformed
// IR) and on generated programs.
func TestProfileMatchesReference(t *testing.T) {
	var pairs, patterns int
	for _, c := range shadowCases {
		t.Run("shadow/"+c.name, func(t *testing.T) {
			prog, _ := buildProgram(t, c.src)
			np, nv := checkMatchesReference(t, prog)
			if np == 0 {
				t.Errorf("no dependence pair observed")
			}
			pairs += np
			patterns += nv
		})
	}
	for _, b := range benchprog.Suite() {
		for _, level := range []sptc.Level{sptc.LevelBasic, sptc.LevelBest, sptc.LevelAnticipated} {
			t.Run(b.Name+"/"+level.String(), func(t *testing.T) {
				res, err := sptc.Compile(b.Name, b.Source, level)
				if err != nil {
					t.Fatal(err)
				}
				np, nv := checkMatchesReference(t, res.Prog)
				pairs += np
				patterns += nv
			})
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("splgen/%d", seed), func(t *testing.T) {
			src := splgen.Generate(seed)
			for _, level := range []sptc.Level{sptc.LevelBase, sptc.LevelAnticipated} {
				res, err := sptc.Compile("gen.spl", src, level)
				if err != nil {
					t.Fatalf("%s: %v\n%s", level, err, src)
				}
				np, nv := checkMatchesReference(t, res.Prog)
				pairs += np
				patterns += nv
			}
		})
	}
	if pairs == 0 || patterns == 0 {
		t.Fatalf("compared %d pairs and %d patterns: the corpus exercises nothing", pairs, patterns)
	}
	t.Logf("compared %d loop dependence pairs and %d value patterns", pairs, patterns)
}
