package profile

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestSortByStrideMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 255, 256, 1000, 5000} {
		for _, span := range []int64{0, 7, 1 << 20, math.MaxInt64} {
			a := make([]int64, n)
			for i := range a {
				if span > 0 {
					a[i] = rng.Int63n(span) - rng.Int63n(span)
				}
			}
			if n > 2 {
				a[0], a[1] = math.MinInt64, math.MaxInt64
			}
			got := make([]strideCount, n)
			for i, d := range a {
				got[i] = strideCount{d, int64(i)}
			}
			slices.Sort(a)
			sortByStride(got, make([]strideCount, n))
			if !slices.EqualFunc(got, a, func(e strideCount, d int64) bool { return e.stride == d }) {
				t.Fatalf("n=%d span=%d: radix order differs from slices.Sort", n, span)
			}
		}
	}
}
