package incr_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"sptc/internal/depgraph"
	"sptc/internal/incr"
	"sptc/internal/ir"
	"sptc/internal/parser"
	"sptc/internal/partition"
	"sptc/internal/profile"
	"sptc/internal/sem"
	"sptc/internal/ssa"
)

const twoLoopSrc = `
var a int[64];
var g1 int;

func work() {
	var i int = 0;
	while (i < 40) {
		g1 = (g1 * 17 + i) & 1048575;
		a[(g1) & 63] = a[(g1 + 7) & 63] + 3;
		i = i + 1;
	}
}

func main() {
	var j int = 0;
	while (j < 50) {
		a[(j + 11) & 63] = a[(j * 3) & 63] * 5;
		j = j + 1;
	}
	work();
	print(g1);
}
`

// fingerprintAll builds the pipeline-lite analysis state (IR, SSA, loop
// nests, static frequency estimates — no interpreter run) and returns
// the fingerprints of every candidate loop in program order.
func fingerprintAll(tb testing.TB, src string) []uint64 {
	tb.Helper()
	prog, err := parser.Parse("incr_test.spl", src)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		tb.Fatalf("sem: %v", err)
	}
	p, err := ir.Build(info)
	if err != nil {
		tb.Fatalf("ir: %v", err)
	}
	effects := depgraph.ComputeEffects(p)
	fper := incr.NewFingerprinter(p, effects)
	var out []uint64
	for _, f := range p.Funcs {
		ssa.Repair(f)
		a := depgraph.Analyze(f)
		profile.StaticEstimate(f, a.Loops)
		for _, l := range a.Loops.Loops {
			cfg := depgraph.Config{Effects: effects, Analysis: a}
			sum, stmts, ok := fper.Loop(l, cfg, l.EffectiveBodySize())
			if !ok {
				tb.Fatalf("loop %s/%d not fingerprintable", f.Name, l.Header.ID)
			}
			if len(stmts) == 0 {
				tb.Fatalf("loop %s/%d: empty body enumeration", f.Name, l.Header.ID)
			}
			out = append(out, sum)
		}
	}
	if len(out) == 0 {
		tb.Fatal("no candidate loops in corpus program")
	}
	return out
}

func TestFingerprintStability(t *testing.T) {
	a := fingerprintAll(t, twoLoopSrc)
	b := fingerprintAll(t, twoLoopSrc)
	if len(a) != len(b) {
		t.Fatalf("loop counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loop %d: fingerprint unstable across identical builds: %#x vs %#x", i, a[i], b[i])
		}
	}
}

func TestFingerprintRenameInvariance(t *testing.T) {
	renamed := regexp.MustCompile(`\bi\b`).ReplaceAllString(twoLoopSrc, "loopCounterX")
	renamed = regexp.MustCompile(`\bj\b`).ReplaceAllString(renamed, "otherCounterY")
	renamed = regexp.MustCompile(`\bg1\b`).ReplaceAllString(renamed, "renamedGlobal")
	a := fingerprintAll(t, twoLoopSrc)
	b := fingerprintAll(t, renamed)
	if len(a) != len(b) {
		t.Fatalf("loop counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loop %d: rename changed fingerprint: %#x vs %#x", i, a[i], b[i])
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	perturbed := strings.Replace(twoLoopSrc, "* 17 +", "* 19 +", 1)
	a := fingerprintAll(t, twoLoopSrc)
	b := fingerprintAll(t, perturbed)
	changed := 0
	for i := range a {
		if a[i] != b[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("constant perturbation did not change any fingerprint")
	}
	if changed == len(a) {
		t.Fatal("constant perturbation in one loop changed every fingerprint")
	}
}

func TestFingerprintFunctionReorderInvariance(t *testing.T) {
	fi := strings.Index(twoLoopSrc, "func work()")
	mi := strings.Index(twoLoopSrc, "func main()")
	reordered := twoLoopSrc[:fi] + twoLoopSrc[mi:] + twoLoopSrc[fi:mi]
	a := fingerprintAll(t, twoLoopSrc)
	b := fingerprintAll(t, reordered)
	if len(a) != len(b) {
		t.Fatalf("loop counts differ: %d vs %d", len(a), len(b))
	}
	seen := make(map[uint64]int)
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		if seen[x] == 0 {
			t.Fatalf("fingerprint %#x not found after function reorder", x)
		}
		seen[x]--
	}
}

func TestOptionsKey(t *testing.T) {
	base := partition.Options{MaxVCs: 20, PreForkFraction: 0.25, PruneSize: true, PruneBound: true, MaxSearchNodes: 1 << 20}
	k := incr.OptionsKey(base)
	same := base
	same.Workers = 8 // worker-count-invariant search: not part of the key
	if incr.OptionsKey(same) != k {
		t.Fatal("Workers must not change the options key")
	}
	for name, mutate := range map[string]func(*partition.Options){
		"MaxVCs":          func(o *partition.Options) { o.MaxVCs = 21 },
		"PreForkFraction": func(o *partition.Options) { o.PreForkFraction = 0.5 },
		"PruneSize":       func(o *partition.Options) { o.PruneSize = false },
		"PruneBound":      func(o *partition.Options) { o.PruneBound = false },
		"MaxSearchNodes":  func(o *partition.Options) { o.MaxSearchNodes = 4 },
	} {
		o := base
		mutate(&o)
		if incr.OptionsKey(o) == k {
			t.Fatalf("changing %s must change the options key", name)
		}
	}
}

// fakeStmts builds n distinct statement pointers and their order map.
func fakeStmts(n int) ([]*ir.Stmt, map[*ir.Stmt]int) {
	stmts := make([]*ir.Stmt, n)
	order := make(map[*ir.Stmt]int, n)
	for i := range stmts {
		stmts[i] = &ir.Stmt{}
		order[stmts[i]] = i
	}
	return stmts, order
}

func samplePartition(stmts []*ir.Stmt) *partition.Result {
	return &partition.Result{
		Cost: 12.5, EmptyCost: 3.25, VCCount: 4, BodySize: 9, SizeLimit: 3, PreForkSize: 2,
		PreForkVCs:  []*ir.Stmt{stmts[1], stmts[4]},
		Move:        map[*ir.Stmt]bool{stmts[0]: true, stmts[2]: true},
		CopyConds:   map[*ir.Stmt]bool{stmts[3]: true},
		SearchNodes: 101, CostEvals: 88, DedupHits: 7, Recomputes: 2, BoundUpdates: 5,
	}
}

func TestCodecRoundTrip(t *testing.T) {
	stmts, order := fakeStmts(6)
	pr := samplePartition(stmts)
	e := incr.EncodeResult(pr, order, len(stmts), "main/loop0", pr.VCCount)
	if e == nil {
		t.Fatal("EncodeResult returned nil for a healthy result")
	}
	got, ok := e.Decode(stmts, 8)
	if !ok {
		t.Fatal("Decode failed against the same enumeration")
	}
	if got.Cost != pr.Cost || got.EmptyCost != pr.EmptyCost || got.VCCount != pr.VCCount ||
		got.BodySize != pr.BodySize || got.SizeLimit != pr.SizeLimit || got.PreForkSize != pr.PreForkSize {
		t.Fatalf("scalar fields lost: %+v vs %+v", got, pr)
	}
	if got.Workers != 8 {
		t.Fatalf("Workers must echo the decode-time value, got %d", got.Workers)
	}
	if len(got.PreForkVCs) != 2 || got.PreForkVCs[0] != stmts[1] || got.PreForkVCs[1] != stmts[4] {
		t.Fatalf("PreForkVCs lost: %v", got.PreForkVCs)
	}
	if !got.Move[stmts[0]] || !got.Move[stmts[2]] || len(got.Move) != 2 {
		t.Fatalf("Move set lost: %v", got.Move)
	}
	if !got.CopyConds[stmts[3]] || len(got.CopyConds) != 1 {
		t.Fatalf("CopyConds set lost: %v", got.CopyConds)
	}
	if got.SearchNodes != 101 || got.CostEvals != 88 || got.DedupHits != 7 ||
		got.Recomputes != 2 || got.BoundUpdates != 5 {
		t.Fatalf("counters lost: %+v", got)
	}
}

func TestCodecRejectsDegradedAndMismatch(t *testing.T) {
	stmts, order := fakeStmts(6)
	pr := samplePartition(stmts)
	pr.Degraded = true
	if incr.EncodeResult(pr, order, len(stmts), "u", 4) != nil {
		t.Fatal("degraded results must not be cached")
	}
	pr.Degraded = false
	if incr.EncodeResult(pr, map[*ir.Stmt]int{}, len(stmts), "u", 4) != nil {
		t.Fatal("unmapped statements must refuse to encode")
	}
	e := incr.EncodeResult(pr, order, len(stmts), "u", 4)
	if _, ok := e.Decode(stmts[:4], 1); ok {
		t.Fatal("decode must reject a shorter enumeration")
	}
}

func TestStoreRoundTripAndLastWins(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.bin")
	stmts, order := fakeStmts(6)
	k := incr.Key{FP: 0xdead, Level: 2, Opts: 0xbeef}
	first := incr.EncodeResult(samplePartition(stmts), order, len(stmts), "main/loop0", 4)
	second := incr.EncodeResult(samplePartition(stmts), order, len(stmts), "main/loop0", 4)
	second.Cost = 99

	s, err := incr.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, st := s.Lookup(k, "main/loop0"); st != incr.StatusMiss {
		t.Fatalf("empty store lookup: %v", st)
	}
	s.Put(k, first)
	s.Put(k, second) // same key: last record wins
	s.Put(incr.Key{FP: 2, Level: 1}, incr.EncodeResult(samplePartition(stmts), order, len(stmts), "main/loop1", 4))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}

	r, err := incr.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", r.Len())
	}
	e, st := r.Lookup(k, "main/loop0")
	if st != incr.StatusHit || e.Cost != 99 {
		t.Fatalf("lookup after reopen: status %v cost %v, want hit/99", st, e.Cost)
	}
	// Same slot, different fingerprint: the loop changed.
	if _, st := r.Lookup(incr.Key{FP: 0xfeed, Level: 2, Opts: 0xbeef}, "main/loop0"); st != incr.StatusInvalidated {
		t.Fatalf("changed-loop lookup: %v, want invalidated", st)
	}
	// Unknown slot: plain miss.
	if _, st := r.Lookup(incr.Key{FP: 3}, "other/loop9"); st != incr.StatusMiss {
		t.Fatalf("unknown-slot lookup: %v, want miss", st)
	}
}

func TestStoreCorruptSalvage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.bin")
	stmts, order := fakeStmts(6)
	s, err := incr.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.Put(incr.Key{FP: uint64(i)}, incr.EncodeResult(samplePartition(stmts), order, len(stmts), "main/loop0", 4))
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]struct {
		mutate func([]byte) []byte
		want   int // salvaged entries
	}{
		"clean":          {func(b []byte) []byte { return b }, 4},
		"truncated-tail": {func(b []byte) []byte { return b[:len(b)-7] }, 3},
		"flipped-tail":   {func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-1] ^= 0xff; return c }, 3},
		"no-magic":       {func(b []byte) []byte { return []byte("garbage file") }, 0},
		"magic-only":     {func(b []byte) []byte { return b[:8] }, 0},
		"half-magic":     {func(b []byte) []byte { return b[:3] }, 0},
		"empty":          {func(b []byte) []byte { return nil }, 0},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "c.bin")
			if err := os.WriteFile(p, tc.mutate(data), 0o666); err != nil {
				t.Fatal(err)
			}
			s, err := incr.Open(p)
			if err != nil {
				t.Fatalf("salvage must not error: %v", err)
			}
			if s.Len() != tc.want {
				t.Fatalf("salvaged %d entries, want %d", s.Len(), tc.want)
			}
			// The store must stay fully usable: new writes and a save
			// (which compacts away the damaged tail) must succeed.
			s.Put(incr.Key{FP: 77}, incr.EncodeResult(samplePartition(stmts), order, len(stmts), "x/loop0", 4))
			if err := s.Save(); err != nil {
				t.Fatalf("save after salvage: %v", err)
			}
			r, err := incr.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			if r.Len() != tc.want+1 {
				t.Fatalf("after rewrite: %d entries, want %d", r.Len(), tc.want+1)
			}
		})
	}
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.bin")
	stmts, order := fakeStmts(6)
	s, err := incr.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	k := incr.Key{FP: 1}
	for i := 0; i < 10; i++ {
		s.Put(k, incr.EncodeResult(samplePartition(stmts), order, len(stmts), "main/loop0", 4))
	}
	if err := s.Save(); err != nil { // 10 records, 1 live: compacts
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := incr.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("compacted store has %d entries, want 1", s2.Len())
	}
	// A second superseding Put and explicit Compact keeps one record.
	s2.Put(k, incr.EncodeResult(samplePartition(stmts), order, len(stmts), "main/loop0", 4))
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	info2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Size() != info.Size() {
		t.Fatalf("compacted sizes differ: %d vs %d", info2.Size(), info.Size())
	}
}

func TestStoreInMemorySaveNoop(t *testing.T) {
	s := incr.New()
	stmts, order := fakeStmts(6)
	s.Put(incr.Key{FP: 1}, incr.EncodeResult(samplePartition(stmts), order, len(stmts), "m/loop0", 4))
	if err := s.Save(); err != nil {
		t.Fatalf("in-memory save: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("in-memory compact: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := incr.New()
	stmts, order := fakeStmts(6)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := incr.Key{FP: uint64(i % 17), Level: g % 3}
				if i%2 == 0 {
					s.Put(k, incr.EncodeResult(samplePartition(stmts), order, len(stmts), "m/loop0", 4))
				} else {
					s.Lookup(k, "m/loop0")
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() == 0 {
		t.Fatal("no entries after concurrent writes")
	}
}

// callNestSrc exercises the fingerprint paths twoLoopSrc cannot: a loop
// whose body calls a function (callee summaries and their sorted global
// effects enter the hash) and a nested loop (the descendant-loop tree
// enters the hash).
const callNestSrc = `
var a int[64];
var g1 int;
var g2 int;

func bump(x int) int {
	g2 = (g2 + x) & 1048575;
	return g2 % 7;
}

func main() {
	var i int = 0;
	while (i < 30) {
		var j int = 0;
		while (j < 8) {
			a[(i + j) & 63] = a[(i * 3 + j) & 63] + bump(j);
			j = j + 1;
		}
		g1 = (g1 * 13 + a[i & 63]) & 1048575;
		i = i + 1;
	}
	print(g1 + g2);
}
`

func TestFingerprintCallsAndNesting(t *testing.T) {
	f1 := fingerprintAll(t, callNestSrc)
	f2 := fingerprintAll(t, callNestSrc)
	if len(f1) == 0 {
		t.Fatal("no fingerprintable loops")
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("loop %d fingerprint unstable: %x vs %x", i, f1[i], f2[i])
		}
	}
	// A callee body edit must dirty every loop that calls it: the callee
	// summary is a cost-model input.
	edited := strings.Replace(callNestSrc, "g2 + x", "g2 + x * 3", 1)
	f3 := fingerprintAll(t, edited)
	changed := 0
	for i := range f1 {
		if f1[i] != f3[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("callee edit changed no loop fingerprint")
	}
}

func TestStatusString(t *testing.T) {
	for want, s := range map[string]incr.Status{
		"miss":        incr.StatusMiss,
		"hit":         incr.StatusHit,
		"invalidated": incr.StatusInvalidated,
		"?":           incr.Status(99),
	} {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, got, want)
		}
	}
}

// TestStoreMalformedRecordPayload covers the record-decoder failure
// path: a record whose checksum is valid but whose payload does not
// parse (truncated fields, trailing bytes) must be dropped by salvage,
// never crash or fail Open.
func TestStoreMalformedRecordPayload(t *testing.T) {
	record := func(payload []byte) []byte {
		h := ir.NewFPHash()
		for _, b := range payload {
			h.Byte(b)
		}
		sum := h.Sum()
		out := []byte{byte(len(payload)), byte(len(payload) >> 8), byte(len(payload) >> 16), byte(len(payload) >> 24)}
		out = append(out, payload...)
		for i := 0; i < 8; i++ {
			out = append(out, byte(sum>>(8*i)))
		}
		return out
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"truncated-fields", []byte("abcd")},
		{"empty-payload", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "malformed.cache")
			data := append([]byte("sptincr3"), record(c.payload)...)
			if err := os.WriteFile(path, data, 0o666); err != nil {
				t.Fatal(err)
			}
			s, err := incr.Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if s.Len() != 0 {
				t.Fatalf("Len = %d after malformed record, want 0", s.Len())
			}
			// The salvage rewrite must produce a healthy store.
			stmts, order := fakeStmts(6)
			e := incr.EncodeResult(samplePartition(stmts), order, len(stmts), "main/loop0", 2)
			if e == nil {
				t.Fatal("EncodeResult returned nil")
			}
			s.Put(incr.Key{FP: 42, Level: 2, Opts: 7}, e)
			if err := s.Save(); err != nil {
				t.Fatalf("Save: %v", err)
			}
			s2, err := incr.Open(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if s2.Len() != 1 {
				t.Fatalf("reopened Len = %d, want 1", s2.Len())
			}
		})
	}
}
