package incr

import (
	"fmt"
	"math"
	"sort"

	"sptc/internal/ir"
	"sptc/internal/partition"
)

// Entry is one stored partition result, with statement references
// encoded as dense body-order indices (the fingerprint's statement
// enumeration, which equals depgraph.Graph.Stmts). An Entry is valid
// only against a loop whose fingerprint matched: the indices are
// positions, not IDs.
type Entry struct {
	// Slot names the loop's structural position ("func/loopN") for the
	// invalidation metric; it is diagnostic, not part of the key.
	Slot string
	// StmtCount pins the body enumeration length; a mismatch at decode
	// time falls back to a cold search.
	StmtCount int32

	Skipped     bool
	VCCount     int32
	BodySize    int32
	SizeLimit   int32
	PreForkSize int32
	Cost        float64
	EmptyCost   float64

	PreForkVCs []int32 // ascending body-order indices
	Move       []int32
	CopyConds  []int32

	// Search counters, restored on a hit so reports and traces match a
	// deterministic cold compile.
	SearchNodes  int64
	CostEvals    int64
	DedupHits    int64
	Recomputes   int64
	BoundUpdates int64
}

// EncodeResult converts a partition result to a storable entry. Returns
// nil when the result must not be cached: a degraded (budget- or
// deadline-truncated) search is not the deterministic optimum, and
// caching it would silently drop the degradation event on replay.
func EncodeResult(pr *partition.Result, order map[*ir.Stmt]int, stmtCount int, slot string, vcCount int) *Entry {
	if pr == nil || pr.Degraded {
		return nil
	}
	e := &Entry{
		Slot:        slot,
		StmtCount:   int32(stmtCount),
		Skipped:     pr.Skipped,
		VCCount:     int32(vcCount),
		BodySize:    int32(pr.BodySize),
		SizeLimit:   int32(pr.SizeLimit),
		PreForkSize: int32(pr.PreForkSize),
		Cost:        pr.Cost,
		EmptyCost:   pr.EmptyCost,

		SearchNodes:  int64(pr.SearchNodes),
		CostEvals:    int64(pr.CostEvals),
		DedupHits:    int64(pr.DedupHits),
		Recomputes:   int64(pr.Recomputes),
		BoundUpdates: int64(pr.BoundUpdates),
	}
	var ok bool
	if e.PreForkVCs, ok = stmtIndices(pr.PreForkVCs, order, stmtCount); !ok {
		return nil
	}
	if e.Move, ok = setIndices(pr.Move, order, stmtCount); !ok {
		return nil
	}
	if e.CopyConds, ok = setIndices(pr.CopyConds, order, stmtCount); !ok {
		return nil
	}
	return e
}

// Decode reconstructs a partition result against the current compile's
// body enumeration. workers echoes the active search-worker count (a
// config echo in partition.Result, not a stored fact). ok is false when
// the entry does not fit the enumeration — the caller must fall back to
// a cold search.
func (e *Entry) Decode(stmts []*ir.Stmt, workers int) (*partition.Result, bool) {
	if int(e.StmtCount) != len(stmts) {
		return nil, false
	}
	pr := &partition.Result{
		Skipped:     e.Skipped,
		VCCount:     int(e.VCCount),
		BodySize:    int(e.BodySize),
		SizeLimit:   int(e.SizeLimit),
		PreForkSize: int(e.PreForkSize),
		Cost:        e.Cost,
		EmptyCost:   e.EmptyCost,
		Move:        make(map[*ir.Stmt]bool, len(e.Move)),
		CopyConds:   make(map[*ir.Stmt]bool, len(e.CopyConds)),

		SearchNodes:  int(e.SearchNodes),
		CostEvals:    int(e.CostEvals),
		DedupHits:    int(e.DedupHits),
		Recomputes:   int(e.Recomputes),
		Workers:      workers,
		BoundUpdates: int(e.BoundUpdates),
	}
	for _, i := range e.PreForkVCs {
		if i < 0 || int(i) >= len(stmts) {
			return nil, false
		}
		pr.PreForkVCs = append(pr.PreForkVCs, stmts[i])
	}
	for _, i := range e.Move {
		if i < 0 || int(i) >= len(stmts) {
			return nil, false
		}
		pr.Move[stmts[i]] = true
	}
	for _, i := range e.CopyConds {
		if i < 0 || int(i) >= len(stmts) {
			return nil, false
		}
		pr.CopyConds[stmts[i]] = true
	}
	return pr, true
}

// stmtIndices maps a statement slice to body-order indices, preserving
// order. PreForkVCs is emitted by the search in ascending body order, so
// the round trip is exact.
func stmtIndices(list []*ir.Stmt, order map[*ir.Stmt]int, stmtCount int) ([]int32, bool) {
	out := make([]int32, 0, len(list))
	for _, s := range list {
		i, ok := order[s]
		if !ok || i >= stmtCount {
			return nil, false
		}
		out = append(out, int32(i))
	}
	return out, true
}

// setIndices maps a statement set to sorted body-order indices.
func setIndices(set map[*ir.Stmt]bool, order map[*ir.Stmt]int, stmtCount int) ([]int32, bool) {
	out := make([]int32, 0, len(set))
	for s, on := range set {
		if !on {
			continue
		}
		i, ok := order[s]
		if !ok || i >= stmtCount {
			return nil, false
		}
		out = append(out, int32(i))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// Binary record encoding: fixed-width little-endian fields, used both
// for the store's append-only log and for hashing record payloads.

type encoder struct{ buf []byte }

func (e *encoder) u32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (e *encoder) u64(v uint64) {
	e.u32(uint32(v))
	e.u32(uint32(v >> 32))
}
func (e *encoder) i32(v int32)   { e.u32(uint32(v)) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) i32s(v []int32) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i32(x)
	}
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("incr: truncated record at offset %d", d.off)
	}
}
func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off:]
	d.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func (d *decoder) u64() uint64 {
	lo := d.u32()
	hi := d.u32()
	return uint64(lo) | uint64(hi)<<32
}
func (d *decoder) i32() int32   { return int32(d.u32()) }
func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *decoder) boolv() bool  { return d.byte() != 0 }
func (d *decoder) byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}
func (d *decoder) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}
func (d *decoder) i32s() []int32 {
	n := int(d.u32())
	if d.err != nil || n < 0 || n > (len(d.buf)-d.off)/4 {
		d.fail()
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = d.i32()
	}
	return out
}

// encodeRecord serializes one (key, entry) pair as a record payload.
func encodeRecord(k Key, e *Entry) []byte {
	var enc encoder
	enc.u64(k.FP)
	enc.i32(int32(k.Level))
	enc.u64(k.Opts)
	enc.str(e.Slot)
	enc.i32(e.StmtCount)
	enc.bool(e.Skipped)
	enc.i32(e.VCCount)
	enc.i32(e.BodySize)
	enc.i32(e.SizeLimit)
	enc.i32(e.PreForkSize)
	enc.f64(e.Cost)
	enc.f64(e.EmptyCost)
	enc.i32s(e.PreForkVCs)
	enc.i32s(e.Move)
	enc.i32s(e.CopyConds)
	enc.i64(e.SearchNodes)
	enc.i64(e.CostEvals)
	enc.i64(e.DedupHits)
	enc.i64(e.Recomputes)
	enc.i64(e.BoundUpdates)
	return enc.buf
}

// decodeRecord parses one record payload.
func decodeRecord(payload []byte) (Key, *Entry, error) {
	d := &decoder{buf: payload}
	var k Key
	k.FP = d.u64()
	k.Level = int(d.i32())
	k.Opts = d.u64()
	e := &Entry{}
	e.Slot = d.str()
	e.StmtCount = d.i32()
	e.Skipped = d.boolv()
	e.VCCount = d.i32()
	e.BodySize = d.i32()
	e.SizeLimit = d.i32()
	e.PreForkSize = d.i32()
	e.Cost = d.f64()
	e.EmptyCost = d.f64()
	e.PreForkVCs = d.i32s()
	e.Move = d.i32s()
	e.CopyConds = d.i32s()
	e.SearchNodes = d.i64()
	e.CostEvals = d.i64()
	e.DedupHits = d.i64()
	e.Recomputes = d.i64()
	e.BoundUpdates = d.i64()
	if d.err == nil && d.off != len(payload) {
		d.err = fmt.Errorf("incr: %d trailing bytes in record", len(payload)-d.off)
	}
	return k, e, d.err
}

// payloadHash is the per-record integrity checksum (FNV-1a 64).
func payloadHash(p []byte) uint64 {
	h := ir.NewFPHash()
	for _, b := range p {
		h.Byte(b)
	}
	return h.Sum()
}
