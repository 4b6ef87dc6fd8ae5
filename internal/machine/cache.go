package machine

// cacheLevel is one set-associative level with LRU replacement. Each
// way packs its tag (high 32 bits) and last-use stamp (low 32 bits)
// into one word, stored flat (sets x assoc), so an access walks a
// single contiguous run of memory. 32-bit fields suffice: a tag
// collision would need a simulated memory beyond 2^31 words and a
// stamp wrap 2^31 accesses in one run, neither of which is reachable,
// and both engines share this model so they stay bit-identical
// regardless.
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
	hit, _ := c.accessLine(int64(addr) >> c.lineBits)
	return hit
}

// accessLine looks up line (an address already shifted by lineBits),
// filling it on miss. The second result is the meta index of the way
// the line now occupies (the hit way, or the filled victim), which the
// hierarchy's residency scoreboard memoizes for repeat accesses.
func (c *cacheLevel) accessLine(line int64) (bool, int32) {
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
			return true, int32(base + w)
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
	return false, int32(base + victim)
}

// sbSize is the slot count of the hierarchy's line-residency
// scoreboard. It models the reuse distance of an in-order issue
// window: consecutive accesses overwhelmingly touch lines that were
// just touched (array sweeps revisit the same line LineWords times in
// a row, plus a handful of hot scalar lines), so a small direct-mapped
// memo captures nearly all repeats while staying resident in a few
// hardware cache lines. Larger boards (512 slots) measured slower:
// the extra real-cache footprint outweighs the aliasing it avoids.
const sbSize = 64

// sbEntry memoizes where one simulated line was last seen in L1.
type sbEntry struct {
	line int64 // simulated line number, or -1 for an empty slot
	idx  int32 // index into l1.meta where that line was last resident
}

// hierarchy is the shared three-level cache plus memory, fronted by a
// window scoreboard that answers repeat same-line hits without
// re-walking the set.
//
// Scoreboard invariants (DESIGN.md "Memory model"):
//   - An entry is advisory, never authoritative: the fast path
//     re-validates the memoized way's tag against l1.meta before use,
//     so a stale entry (the way was re-filled by another line since)
//     falls through to the full walk. Tags are unique per line (line
//     numbers are non-negative and below 2^31), so a tag match proves
//     the line is resident in that way.
//   - On a validated hit the fast path performs exactly the mutations
//     of a full walk that hits: one global stamp tick, the way's
//     stamp refresh, one l1.hits increment. L2/L3 are untouched by an
//     L1 hit in both paths. Hit/miss counters and LRU state are
//     therefore bit-identical to per-access walks by construction.
//   - The slow path records the way each line lands in (hit or fill),
//     so the very next access to that line takes the fast path.
type hierarchy struct {
	l1, l2, l3 *cacheLevel
	lineBits   uint
	memLat     float64
	memAccess  int64
	sb         [sbSize]sbEntry
}

func newHierarchy(cfg Config) *hierarchy {
	h := &hierarchy{
		l1:     newCacheLevel(cfg.L1Words, cfg.L1Assoc, cfg.LineWords, cfg.L1Lat),
		l2:     newCacheLevel(cfg.L2Words, cfg.L2Assoc, cfg.LineWords, cfg.L2Lat),
		l3:     newCacheLevel(cfg.L3Words, cfg.L3Assoc, cfg.LineWords, cfg.L3Lat),
		memLat: cfg.MemLat,
	}
	h.lineBits = h.l1.lineBits
	h.clearScoreboard()
	return h
}

func (h *hierarchy) clearScoreboard() {
	for i := range h.sb {
		h.sb[i] = sbEntry{line: -1}
	}
}

// reset cold-clears all three levels, the scoreboard and the
// memory-access counter.
func (h *hierarchy) reset() {
	h.l1.reset()
	h.l2.reset()
	h.l3.reset()
	h.clearScoreboard()
	h.memAccess = 0
}

// load returns the latency of a load from addr.
func (h *hierarchy) load(addr int) float64 {
	line := int64(addr) >> h.lineBits
	e := &h.sb[int(line)&(sbSize-1)]
	if e.line == line {
		l1 := h.l1
		if tag := uint64(uint32(line)) << 32; l1.meta[e.idx]&invalidWay == tag {
			l1.stamp++
			l1.meta[e.idx] = tag | uint64(l1.stamp)
			l1.hits++
			return l1.lat
		}
	}
	return h.loadLine(line, e)
}

// loadLine is the full walk behind the scoreboard fast path; it
// refreshes the scoreboard entry with the L1 way the line now occupies.
func (h *hierarchy) loadLine(line int64, e *sbEntry) float64 {
	hit, idx := h.l1.accessLine(line)
	e.line, e.idx = line, idx
	if hit {
		return h.l1.lat
	}
	if hit, _ := h.l2.accessLine(line); hit {
		return h.l2.lat
	}
	if hit, _ := h.l3.accessLine(line); hit {
		return h.l3.lat
	}
	h.memAccess++
	return h.memLat
}

// store touches the hierarchy (write-allocate) but is charged as issue
// cost only; store latency hides behind the store buffer.
func (h *hierarchy) store(addr int) {
	line := int64(addr) >> h.lineBits
	e := &h.sb[int(line)&(sbSize-1)]
	if e.line == line {
		l1 := h.l1
		if tag := uint64(uint32(line)) << 32; l1.meta[e.idx]&invalidWay == tag {
			l1.stamp++
			l1.meta[e.idx] = tag | uint64(l1.stamp)
			l1.hits++
			return
		}
	}
	h.loadLine(line, e)
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
