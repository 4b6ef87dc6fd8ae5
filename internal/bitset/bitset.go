// Package bitset provides fixed-capacity dense bitsets. The partition
// search and the cost model use them to represent statement sets,
// violation-candidate sets and the evaluator's dirty worklist as []uint64
// words instead of pointer-keyed maps: set algebra becomes word-parallel
// and copies become memcpy.
package bitset

import "math/bits"

// Set is a fixed-capacity bitset. The zero value of a word-slice is a
// valid empty set of capacity 64*len(words).
type Set []uint64

// New returns an empty set with capacity for n elements.
func New(n int) Set {
	return make(Set, (n+63)>>6)
}

// Add inserts i.
func (s Set) Add(i int) { s[i>>6] |= 1 << uint(i&63) }

// Remove deletes i.
func (s Set) Remove(i int) { s[i>>6] &^= 1 << uint(i&63) }

// Has reports whether i is in the set.
func (s Set) Has(i int) bool { return s[i>>6]&(1<<uint(i&63)) != 0 }

// Count returns the number of elements.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Or sets s to s ∪ t. The sets must have equal capacity.
func (s Set) Or(t Set) {
	for i, w := range t {
		s[i] |= w
	}
}

// CopyFrom overwrites s with t. The sets must have equal capacity.
func (s Set) CopyFrom(t Set) { copy(s, t) }

// Clone returns an independent copy.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Clear empties the set.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Equal reports whether s and t hold the same elements. The sets must
// have equal capacity.
func (s Set) Equal(t Set) bool {
	for i, w := range s {
		if w != t[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in t. The sets must
// have equal capacity.
func (s Set) SubsetOf(t Set) bool {
	for i, w := range s {
		if w&^t[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in ascending order.
func (s Set) ForEach(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 | b)
			w &= w - 1
		}
	}
}

// SeqLess reports whether s precedes t in the depth-first visit order of
// the subset search: subsets ordered as their ascending index sequences,
// compared lexicographically with a prefix sorting before its
// extensions ({0} < {0,1} < {0,2} < {1}). This is the discovery-rank
// order of the branch-and-bound, so parallel workers can break exact
// (cost, size) ties identically to the serial search without tracking
// explicit ranks. The sets must have equal capacity.
func (s Set) SeqLess(t Set) bool {
	for wi, sw := range s {
		d := sw ^ t[wi]
		if d == 0 {
			continue
		}
		b := uint(bits.TrailingZeros64(d))
		// d's lowest bit is the first index where membership differs.
		// The set holding it precedes iff the other set goes on past it
		// (otherwise the other set is a strict prefix, which sorts first).
		rest := func(x Set) bool {
			if x[wi]>>(b+1) != 0 {
				return true
			}
			for wj := wi + 1; wj < len(x); wj++ {
				if x[wj] != 0 {
					return true
				}
			}
			return false
		}
		if sw&(1<<b) != 0 {
			return rest(t)
		}
		return !rest(s)
	}
	return false
}
