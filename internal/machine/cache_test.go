package machine

import (
	"testing"
	"testing/quick"
)

func TestCacheLevelHitsAndMisses(t *testing.T) {
	// 8 lines of 8 words, 2-way: 4 sets.
	c := newCacheLevel(64, 2, 8, 1)
	if c.sets != 4 {
		t.Fatalf("sets = %d", c.sets)
	}
	if c.access(0) {
		t.Error("first access should miss")
	}
	if !c.access(0) || !c.access(7) {
		t.Error("same line should hit")
	}
	if c.access(8) {
		t.Error("next line should miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCacheLevel(64, 2, 8, 1)
	// Three lines mapping to the same set (set count 4, line 8 words):
	// addresses 0, 4*8=32... set = line % 4: lines 0, 4, 8 -> set 0.
	a, b, d := 0, 4*8, 8*8
	c.access(a)
	c.access(b)
	c.access(a) // a most recent
	c.access(d) // evicts b (LRU)
	if !c.access(a) {
		t.Error("a should still be resident")
	}
	if c.access(b) {
		t.Error("b should have been evicted")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := DefaultConfig()
	h := newHierarchy(cfg)
	// Cold: full memory latency.
	if lat := h.load(0); lat != cfg.MemLat {
		t.Errorf("cold load latency %v, want %v", lat, cfg.MemLat)
	}
	// Hot: L1 latency.
	if lat := h.load(1); lat != cfg.L1Lat {
		t.Errorf("hot load latency %v, want %v", lat, cfg.L1Lat)
	}
	// Evict from L1 by streaming past its capacity; then the line should
	// still be in L2.
	for a := 0; a < cfg.L1Words*2; a += cfg.LineWords {
		h.load(a + 1024*1024)
	}
	lat := h.load(0)
	if lat != cfg.L2Lat && lat != cfg.L3Lat {
		t.Errorf("post-eviction latency %v, want L2 (%v) or L3 (%v)", lat, cfg.L2Lat, cfg.L3Lat)
	}
}

func TestPredictorLearnsBias(t *testing.T) {
	bp := newPredictor(64)
	// Always-taken branch: after warmup, every prediction is correct.
	for i := 0; i < 4; i++ {
		bp.predict(7, true)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		if bp.predict(7, true) {
			correct++
		}
	}
	if correct != 100 {
		t.Errorf("biased branch: %d/100 correct", correct)
	}
	// Alternating branch on a 2-bit counter: poor accuracy.
	miss := 0
	for i := 0; i < 100; i++ {
		if !bp.predict(13, i%2 == 0) {
			miss++
		}
	}
	if miss < 40 {
		t.Errorf("alternating branch should mispredict often, missed %d/100", miss)
	}
}

// TestQuickCacheNeverPanics: arbitrary access sequences are safe and
// deterministic.
func TestQuickCacheDeterministic(t *testing.T) {
	f := func(seed uint32, n uint8) bool {
		run := func() (int64, int64) {
			c := newCacheLevel(256, 4, 8, 1)
			x := seed
			for i := 0; i < int(n); i++ {
				x = x*1664525 + 1013904223
				c.access(int(x % 4096))
			}
			return c.hits, c.misses
		}
		h1, m1 := run()
		h2, m2 := run()
		return h1 == h2 && m1 == m2 && h1+m1 == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConfigContention(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MemContention < 0 || cfg.MemContention > 1 {
		t.Errorf("contention factor %v out of [0,1]", cfg.MemContention)
	}
}

// refLevel is an executable-specification LRU cache: a plain map from
// set to way list, replacing the lowest-indexed way holding the
// smallest stamp. The differential tests below pin cacheLevel's packed
// way sweep against it.
type refLevel struct {
	sets, assoc int
	lineBits    uint
	stamp       uint32
	ways        map[int][]refWay
	hits, miss  int64
}

type refWay struct {
	line  int64
	stamp uint32
	valid bool
}

func newRefLevel(words, assoc, lineWords int) *refLevel {
	lineBits := uint(0)
	for 1<<lineBits < lineWords {
		lineBits++
	}
	sets := words / lineWords / assoc
	if sets < 1 {
		sets = 1
	}
	return &refLevel{sets: sets, assoc: assoc, lineBits: lineBits, ways: make(map[int][]refWay)}
}

func (r *refLevel) access(addr int) bool {
	line := int64(addr) >> r.lineBits
	set := int(line % int64(r.sets))
	r.stamp++
	ws := r.ways[set]
	if ws == nil {
		ws = make([]refWay, r.assoc)
		r.ways[set] = ws
	}
	for w := range ws {
		if ws[w].valid && ws[w].line == line {
			ws[w].stamp = r.stamp
			r.hits++
			return true
		}
	}
	victim := 0
	for w := 1; w < len(ws); w++ {
		// Invalid ways keep stamp 0, so they lose ties to nothing and the
		// lowest-indexed cold way fills first — same as the packed layout.
		if ws[w].stamp < ws[victim].stamp {
			victim = w
		}
	}
	ws[victim] = refWay{line: line, stamp: r.stamp, valid: true}
	r.miss++
	return false
}

// TestCacheLevelMatchesReference runs random access streams through
// cacheLevel and the executable specification at several geometries:
// the default L1's 4 ways, 1/2/8 ways, and a non-power-of-two set count
// (3 sets, exercising the modulo fallback).
func TestCacheLevelMatchesReference(t *testing.T) {
	geoms := []struct {
		name             string
		words, assoc, lw int
	}{
		{"4way", 256, 4, 8},
		{"direct-mapped", 128, 1, 8},
		{"2way", 128, 2, 8},
		{"8way-generic", 512, 8, 8},
		{"3sets-modulo", 3 * 2 * 8, 2, 8}, // 6 lines, 2-way: 3 sets, setMask -1
		{"single-set-clamp", 8, 4, 8},     // fewer words than one set: sets clamps to 1
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			c := newCacheLevel(g.words, g.assoc, g.lw, 1)
			r := newRefLevel(g.words, g.assoc, g.lw)
			if g.name == "3sets-modulo" && c.setMask != -1 {
				t.Fatalf("setMask = %d, want -1 for %d sets", c.setMask, c.sets)
			}
			x := uint32(12345)
			for i := 0; i < 20000; i++ {
				x = x*1664525 + 1013904223
				addr := int(x % 8192)
				if got, want := c.access(addr), r.access(addr); got != want {
					t.Fatalf("access %d (addr %d): hit=%v, reference says %v", i, addr, got, want)
				}
			}
			if c.hits != r.hits || c.misses != r.miss {
				t.Errorf("counters (%d hits, %d misses) diverge from reference (%d, %d)",
					c.hits, c.misses, r.hits, r.miss)
			}
			if c.hits == 0 || c.misses == 0 {
				t.Errorf("degenerate stream: %d hits, %d misses", c.hits, c.misses)
			}
		})
	}
}

// TestCacheLRUVictimTieBreak pins the fill order of a cold set: invalid
// ways all carry stamp 0, so misses fill ways in index order, at the
// default L1's 4 ways and at 8.
func TestCacheLRUVictimTieBreak(t *testing.T) {
	// way returns the way of the one set that holds line, or -1.
	way := func(c *cacheLevel, line int64) int {
		for w, m := range c.meta {
			if m&invalidWay == uint64(uint32(line))<<32 {
				return w
			}
		}
		return -1
	}
	for _, assoc := range []int{4, 8} {
		c := newCacheLevel(assoc*8, assoc, 8, 1) // one set
		for w := 0; w < assoc; w++ {
			line := int64(w * c.sets) // all map to set 0
			if c.accessLine(line) {
				t.Fatalf("assoc %d: cold access %d hit", assoc, w)
			}
			if got := way(c, line); got != w {
				t.Fatalf("assoc %d: cold fill %d landed in way %d, want index order", assoc, w, got)
			}
		}
		// The set is full with stamps 1..assoc; the next miss evicts way 0.
		if c.accessLine(int64(assoc)) {
			t.Fatalf("assoc %d: full-set miss hit", assoc)
		}
		if got := way(c, int64(assoc)); got != 0 {
			t.Fatalf("assoc %d: full-set miss filled way %d, want way 0", assoc, got)
		}
		if way(c, 0) != -1 {
			t.Fatalf("assoc %d: line 0 still resident after its way was evicted", assoc)
		}
	}
}

// TestPredictorSaturation pins the 2-bit counter's hysteresis: a
// saturated always-taken branch survives a single not-taken blip
// without flipping its prediction.
func TestPredictorSaturation(t *testing.T) {
	bp := newPredictor(64)
	site := 7
	// Saturate at strongly-taken; extra taken outcomes must not overflow.
	for i := 0; i < 50; i++ {
		bp.predict(site, true)
	}
	if bp.predict(site, false) {
		// The saturated counter predicts taken, so a not-taken outcome is
		// a mispredict (and steps the counter 3 -> 2).
		t.Fatal("saturated counter should still predict taken on a not-taken blip")
	}
	if !bp.predict(site, true) {
		t.Error("one not-taken blip flipped a saturated counter")
	}
	// Symmetric floor: strongly-not-taken survives one taken blip.
	for i := 0; i < 50; i++ {
		bp.predict(site, false)
	}
	bp.predict(site, true)
	if !bp.predict(site, false) {
		t.Error("one taken blip flipped a strongly-not-taken counter")
	}
}

// TestPredictorAliasing demonstrates destructive interference: with a
// small table, two sites hashing to the same entry share one counter,
// so training one site mistrains the other.
func TestPredictorAliasing(t *testing.T) {
	bp := newPredictor(2) // mask 1: plenty of colliding sites
	idx := func(site int) int { return (site * 2654435761) & bp.mask }
	a := 1
	b := -1
	for s := 2; s < 1000; s++ {
		if s != a && idx(s) == idx(a) {
			b = s
			break
		}
	}
	if b < 0 {
		t.Fatal("no aliasing site found")
	}
	for i := 0; i < 4; i++ {
		bp.predict(a, true) // train a's (shared) counter to strongly-taken
	}
	if !bp.predict(b, true) {
		t.Errorf("site %d should inherit site %d's trained counter", b, a)
	}
	misses := bp.misses
	bp.predict(b, false) // b's not-taken outcome now mistrains a
	bp.predict(b, false)
	bp.predict(b, false)
	if bp.misses == misses {
		t.Error("retraining the shared counter should mispredict at least once")
	}
	if bp.predict(a, true) {
		t.Errorf("site %d's counter should have been mistrained by site %d", a, b)
	}
}
