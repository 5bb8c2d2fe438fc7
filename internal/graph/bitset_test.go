package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBitSetBasicOps(t *testing.T) {
	s := NewBitSet(130)
	if !s.Empty() {
		t.Fatal("new set should be empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	s.Add(500) // out of range, ignored
	s.Add(-1)  // out of range, ignored
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	for _, e := range []int{0, 64, 129} {
		if !s.Contains(e) {
			t.Errorf("Contains(%d) = false, want true", e)
		}
	}
	if s.Contains(1) || s.Contains(500) || s.Contains(-1) {
		t.Error("Contains reported an element that was never added")
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Remove(64) did not remove the element")
	}
	if got := s.Elems(); !reflect.DeepEqual(got, []int{0, 129}) {
		t.Errorf("Elems = %v, want [0 129]", got)
	}
	if s.Clear(); !s.Empty() || s.Cap() != 130 {
		t.Errorf("after Clear: %v with capacity %d, want {} with 130", s, s.Cap())
	}
}

func TestBitSetOf(t *testing.T) {
	s := BitSetOf(10, 1, 3, 5)
	if got := s.Elems(); !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Fatalf("Elems = %v", got)
	}
	if s.Cap() != 10 {
		t.Fatalf("Cap = %d, want 10", s.Cap())
	}
}

func TestBitSetSetAlgebra(t *testing.T) {
	a := BitSetOf(70, 1, 2, 3, 65)
	b := BitSetOf(70, 3, 4, 65, 66)

	if got := a.Union(b).Elems(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 65, 66}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b).Elems(); !reflect.DeepEqual(got, []int{3, 65}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b).Elems(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("Minus = %v", got)
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false, want true")
	}
	if a.Intersects(BitSetOf(70, 7, 8)) {
		t.Error("Intersects with disjoint set = true, want false")
	}
}

func TestBitSetSubsetEqual(t *testing.T) {
	a := BitSetOf(10, 1, 2)
	b := BitSetOf(10, 1, 2, 3)
	if !a.SubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone should equal original")
	}
	// Different capacities, same elements: still equal.
	c := BitSetOf(100, 1, 2)
	if !a.Equal(c) || !c.Equal(a) {
		t.Error("sets with same elements but different caps should be Equal")
	}
}

func TestBitSetCloneIndependence(t *testing.T) {
	a := BitSetOf(10, 1)
	b := a.Clone()
	b.Add(2)
	if a.Contains(2) {
		t.Error("mutating a clone affected the original")
	}
}

func TestBitSetStringAndKey(t *testing.T) {
	s := BitSetOf(10, 0, 2)
	if got := s.String(); got != "{0, 2}" {
		t.Errorf("String = %q", got)
	}
	if NewBitSet(10).String() != "{}" {
		t.Error("empty set should render as {}")
	}
	if s.Key() == BitSetOf(10, 0, 3).Key() {
		t.Error("distinct sets should have distinct keys")
	}
	if s.Key() != BitSetOf(10, 0, 2).Key() {
		t.Error("equal sets should have equal keys")
	}
}

func TestBitSetForEachOrder(t *testing.T) {
	s := BitSetOf(200, 5, 70, 199, 0)
	var got []int
	s.ForEach(func(e int) { got = append(got, e) })
	if !reflect.DeepEqual(got, []int{0, 5, 70, 199}) {
		t.Fatalf("ForEach order = %v", got)
	}
}

func TestSortedSubsetsCounts(t *testing.T) {
	// Subsets of size <= k over n elements: sum_{i=0}^{k} C(n, i).
	cases := []struct{ n, k, want int }{
		{4, 0, 1},
		{4, 1, 5},
		{4, 2, 11},
		{5, 2, 16},
		{5, 5, 32},
	}
	for _, c := range cases {
		count := 0
		seen := map[string]bool{}
		SortedSubsets(c.n, c.k, func(s BitSet) bool {
			count++
			if s.Len() > c.k {
				t.Fatalf("subset %v exceeds size bound %d", s, c.k)
			}
			if seen[s.Key()] {
				t.Fatalf("duplicate subset %v", s)
			}
			seen[s.Key()] = true
			return true
		})
		if count != c.want {
			t.Errorf("n=%d k=%d: count=%d, want %d", c.n, c.k, count, c.want)
		}
	}
}

func TestSortedSubsetsEarlyStop(t *testing.T) {
	count := 0
	SortedSubsets(6, 3, func(s BitSet) bool {
		count++
		return count < 4
	})
	if count != 4 {
		t.Fatalf("enumeration did not stop early: count=%d", count)
	}
}

// Property: union and intersection behave like their map-based reference
// implementations on random sets.
func TestBitSetQuickAgainstMaps(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		const n = 256
		a, b := NewBitSet(n), NewBitSet(n)
		ma, mb := map[int]bool{}, map[int]bool{}
		for _, x := range xs {
			a.Add(int(x))
			ma[int(x)] = true
		}
		for _, y := range ys {
			b.Add(int(y))
			mb[int(y)] = true
		}
		u := a.Union(b)
		i := a.Intersect(b)
		d := a.Minus(b)
		for e := 0; e < n; e++ {
			if u.Contains(e) != (ma[e] || mb[e]) {
				return false
			}
			if i.Contains(e) != (ma[e] && mb[e]) {
				return false
			}
			if d.Contains(e) != (ma[e] && !mb[e]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Elems is sorted, has Len entries, and round-trips.
func TestBitSetQuickElemsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(300)
		s := NewBitSet(n)
		for i := 0; i < rng.Intn(50); i++ {
			s.Add(rng.Intn(n))
		}
		elems := s.Elems()
		if len(elems) != s.Len() {
			t.Fatalf("len(Elems)=%d, Len=%d", len(elems), s.Len())
		}
		for i := 1; i < len(elems); i++ {
			if elems[i-1] >= elems[i] {
				t.Fatalf("Elems not strictly sorted: %v", elems)
			}
		}
		rt := BitSetOf(n, elems...)
		if !rt.Equal(s) {
			t.Fatalf("round trip mismatch: %v vs %v", rt, s)
		}
	}
}
