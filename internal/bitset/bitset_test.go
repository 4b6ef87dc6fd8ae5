package bitset

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if len(s) != 3 {
		t.Fatalf("capacity 130 -> %d words, want 3", len(s))
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Has(%d) after Add", i)
		}
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d, want 5", s.Count())
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 4 {
		t.Fatalf("Remove(64) failed: %v", s)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	want := []int{0, 63, 127, 129}
	if len(got) != len(want) {
		t.Fatalf("ForEach = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", got, want)
		}
	}
}

func TestOrCloneEqual(t *testing.T) {
	a, b := New(100), New(100)
	a.Add(3)
	b.Add(70)
	c := a.Clone()
	c.Or(b)
	if !c.Has(3) || !c.Has(70) || a.Has(70) {
		t.Fatal("Or/Clone aliasing")
	}
	if c.Equal(a) || !c.Equal(c.Clone()) {
		t.Fatal("Equal broken")
	}
	if !a.SubsetOf(c) || c.SubsetOf(a) || !c.SubsetOf(c) || !New(100).SubsetOf(a) {
		t.Fatal("SubsetOf broken")
	}
	c.Clear()
	if c.Count() != 0 {
		t.Fatal("Clear broken")
	}
}

func TestAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 200
	s := New(n)
	m := map[int]bool{}
	for step := 0; step < 5000; step++ {
		i := r.Intn(n)
		if r.Intn(3) == 0 {
			s.Remove(i)
			delete(m, i)
		} else {
			s.Add(i)
			m[i] = true
		}
		if s.Count() != len(m) {
			t.Fatalf("step %d: count %d vs map %d", step, s.Count(), len(m))
		}
	}
	for i := 0; i < n; i++ {
		if s.Has(i) != m[i] {
			t.Fatalf("Has(%d) = %v, map %v", i, s.Has(i), m[i])
		}
	}
}
