package machine

// cacheLevel is one set-associative level with LRU replacement. Each
// way packs its tag (high 32 bits) and last-use stamp (low 32 bits)
// into one word, stored flat (sets x assoc), so an access walks a
// single contiguous run of memory. 32-bit fields suffice: a tag
// collision would need a simulated memory beyond 2^31 words and a
// stamp wrap 2^31 accesses in one run, neither of which is reachable,
// and the engine and the test walker share this model so they stay
// bit-identical regardless.
type cacheLevel struct {
	sets     int
	setMask  int64 // sets-1 when sets is a power of two, else -1
	assoc    int
	lineBits uint
	lat      float64
	meta     []uint64 // tag<<32 | stamp per (set, way); tag ^uint32(0) = invalid
	stamp    uint32

	hits, misses int64
}

// invalidWay has a tag (all-ones) that no real line produces, since
// tags come from non-negative line numbers below 2^31.
const invalidWay = uint64(0xffffffff) << 32

func newCacheLevel(words, assoc, lineWords int, lat float64) *cacheLevel {
	lineBits := uint(0)
	for 1<<lineBits < lineWords {
		lineBits++
	}
	lines := words / lineWords
	sets := lines / assoc
	if sets < 1 {
		sets = 1
	}
	c := &cacheLevel{sets: sets, setMask: -1, assoc: assoc, lineBits: lineBits, lat: lat}
	if sets&(sets-1) == 0 {
		c.setMask = int64(sets - 1)
	}
	c.meta = make([]uint64, sets*assoc)
	for i := range c.meta {
		c.meta[i] = invalidWay
	}
	return c
}

// reset restores the level to its post-construction state (all ways
// invalid, stamps and counters zero) so a pooled engine can reuse the
// allocation with cold-cache behavior identical to a fresh level.
func (c *cacheLevel) reset() {
	for i := range c.meta {
		c.meta[i] = invalidWay
	}
	c.stamp = 0
	c.hits, c.misses = 0, 0
}

// access looks up the line holding addr, filling it on miss. Returns
// whether it hit.
func (c *cacheLevel) access(addr int) bool {
	return c.accessLine(int64(addr) >> c.lineBits)
}

// accessLine looks up line (an address already shifted by lineBits),
// filling it on miss. Returns whether it hit.
func (c *cacheLevel) accessLine(line int64) bool {
	var set int
	if c.setMask >= 0 {
		set = int(line & c.setMask)
	} else {
		set = int(line % int64(c.sets))
	}
	c.stamp++
	base := set * c.assoc
	tag := uint64(uint32(line)) << 32
	ways := c.meta[base : base+c.assoc]
	for w, m := range ways {
		if m&invalidWay == tag {
			ways[w] = tag | uint64(c.stamp)
			c.hits++
			return true
		}
	}
	// Miss: the victim is the lowest-indexed way with the minimal stamp.
	// Scanning for it only here keeps the (dominant) hit path to a single
	// sweep. Stamps sit in the low bits, so comparing the full packed
	// words would order by tag first; mask them out.
	victim := 0
	minStamp := uint32(ways[0])
	for w := 1; w < len(ways); w++ {
		if s := uint32(ways[w]); s < minStamp {
			victim, minStamp = w, s
		}
	}
	c.misses++
	ways[victim] = tag | uint64(c.stamp)
	return false
}

// hierarchy is the shared three-level cache plus memory.
type hierarchy struct {
	l1, l2, l3 *cacheLevel
	lineBits   uint
	memLat     float64
	memAccess  int64
}

func newHierarchy(cfg Config) *hierarchy {
	h := &hierarchy{
		l1:     newCacheLevel(cfg.L1Words, cfg.L1Assoc, cfg.LineWords, cfg.L1Lat),
		l2:     newCacheLevel(cfg.L2Words, cfg.L2Assoc, cfg.LineWords, cfg.L2Lat),
		l3:     newCacheLevel(cfg.L3Words, cfg.L3Assoc, cfg.LineWords, cfg.L3Lat),
		memLat: cfg.MemLat,
	}
	h.lineBits = h.l1.lineBits
	return h
}

// reset cold-clears all three levels and the memory-access counter.
func (h *hierarchy) reset() {
	h.l1.reset()
	h.l2.reset()
	h.l3.reset()
	h.memAccess = 0
}

// load returns the latency of a load from addr.
func (h *hierarchy) load(addr int) float64 {
	line := int64(addr) >> h.lineBits
	if h.l1.accessLine(line) {
		return h.l1.lat
	}
	if h.l2.accessLine(line) {
		return h.l2.lat
	}
	if h.l3.accessLine(line) {
		return h.l3.lat
	}
	h.memAccess++
	return h.memLat
}

// store touches the hierarchy (write-allocate) but is charged as issue
// cost only; store latency hides behind the store buffer.
func (h *hierarchy) store(addr int) {
	h.load(addr)
}

// branchPredictor is a table of 2-bit saturating counters indexed by a
// hash of the branch site.
type branchPredictor struct {
	table []uint8
	mask  int

	lookups, misses int64
}

func newPredictor(entries int) *branchPredictor {
	n := 1
	for n < entries {
		n <<= 1
	}
	return &branchPredictor{table: make([]uint8, n), mask: n - 1}
}

// reset clears the counters to the strongly-not-taken initial state.
func (bp *branchPredictor) reset() {
	clear(bp.table)
	bp.lookups, bp.misses = 0, 0
}

// predict consults and updates the counter for site; returns true when
// the prediction matched the outcome.
func (bp *branchPredictor) predict(site int, taken bool) bool {
	idx := (site * 2654435761) & bp.mask
	ctr := bp.table[idx]
	pred := ctr >= 2
	if taken && ctr < 3 {
		bp.table[idx] = ctr + 1
	}
	if !taken && ctr > 0 {
		bp.table[idx] = ctr - 1
	}
	bp.lookups++
	if pred != taken {
		bp.misses++
		return false
	}
	return true
}
