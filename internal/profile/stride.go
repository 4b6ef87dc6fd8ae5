package profile

import (
	"cmp"
	"slices"
)

// strideHist counts the deltas between one statement's consecutive
// values. Equal consecutive deltas are counted as one run. Ended runs
// queue unsorted and are merged into the sorted histogram once the queue
// outgrows it, so statements whose deltas are mostly distinct (sums of
// unpredictable values) cost an append and an amortized radix sort per
// value, not a hash probe into an ever-growing table. Merges work in a
// scratch buffer the caller shares between histograms.
type strideHist struct {
	run    strideCount   // current run, not yet queued
	sorted []strideCount // by stride, one entry per stride
	queue  []strideCount // ended runs, unsorted
}

type strideCount struct{ stride, n int64 }

func (h *strideHist) add(d int64, scratch *[]strideCount) {
	if h.run.n > 0 && d == h.run.stride {
		h.run.n++
		return
	}
	h.endRun(scratch)
	h.run = strideCount{d, 1}
}

func (h *strideHist) endRun(scratch *[]strideCount) {
	if h.run.n == 0 {
		return
	}
	h.queue = append(h.queue, h.run)
	h.run.n = 0
	if len(h.queue) >= len(h.sorted)+256 {
		h.merge(scratch)
	}
}

// merge folds the queued runs into the sorted histogram.
func (h *strideHist) merge(scratch *[]strideCount) {
	if n := len(h.sorted) + len(h.queue); cap(*scratch) < n {
		*scratch = make([]strideCount, n)
	}
	buf := (*scratch)[:cap(*scratch)]
	sortByStride(h.queue, buf)
	h.sorted = append(h.sorted[:0], mergeCounts(buf[:0], h.sorted, h.queue)...)
	h.queue = h.queue[:0]
}

// counts ends the current run and returns the histogram, sorted by
// stride with one entry per stride.
func (h *strideHist) counts(scratch *[]strideCount) []strideCount {
	h.endRun(scratch)
	h.merge(scratch)
	return h.sorted
}

// sortByStride sorts a by stride: an LSD radix sort over the
// order-preserving unsigned image of each stride, skipping the bytes
// every stride shares, because queues of distinct strides are long. buf
// is scratch space of at least len(a) entries.
func sortByStride(a, buf []strideCount) {
	if len(a) < 256 {
		slices.SortFunc(a, func(x, y strideCount) int { return cmp.Compare(x.stride, y.stride) })
		return
	}
	const sign = 1 << 63
	digit := func(e strideCount, shift uint) uint64 { return (uint64(e.stride) ^ sign) >> shift & 0xff }
	src, dst := a, buf[:len(a)]
	for shift := uint(0); shift < 64; shift += 8 {
		var count [256]int
		for _, e := range src {
			count[digit(e, shift)]++
		}
		if count[digit(src[0], shift)] == len(src) {
			continue
		}
		pos := 0
		for i, c := range count {
			count[i] = pos
			pos += c
		}
		for _, e := range src {
			d := digit(e, shift)
			dst[count[d]] = e
			count[d]++
		}
		src, dst = dst, src
	}
	copy(a, src)
}

// mergeCounts appends the merge of two stride-sorted lists to out,
// summing the counts of equal strides.
func mergeCounts(out, a, b []strideCount) []strideCount {
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || len(a) > 0 && a[0].stride <= b[0].stride {
			out, a = appendCount(out, a[0]), a[1:]
		} else {
			out, b = appendCount(out, b[0]), b[1:]
		}
	}
	return out
}

// appendCount appends e to a stride-sorted list, folding it into the
// last entry when the strides match.
func appendCount(out []strideCount, e strideCount) []strideCount {
	if n := len(out); n > 0 && out[n-1].stride == e.stride {
		out[n-1].n += e.n
		return out
	}
	return append(out, e)
}

// bestPattern summarizes a histogram of total deltas, one entry per
// distinct stride. The most frequent stride wins; ties go to the
// smallest |d|, then the smallest d (so 0 first), which makes the choice
// independent of histogram order.
func bestPattern(hist []strideCount, total int64) *ValuePattern {
	p := &ValuePattern{Total: total}
	for i, e := range hist {
		if e.stride == 0 {
			p.LastSame = e.n
		}
		if i == 0 || e.n > p.BestCount || e.n == p.BestCount && strideLess(e.stride, p.BestStride) {
			p.BestCount, p.BestStride = e.n, e.stride
		}
	}
	return p
}

// strideLess orders strides by magnitude, then value.
func strideLess(a, b int64) bool {
	if ua, ub := absU(a), absU(b); ua != ub {
		return ua < ub
	}
	return a < b
}

func absU(d int64) uint64 {
	if d < 0 {
		return -uint64(d)
	}
	return uint64(d)
}
