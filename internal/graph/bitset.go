// Package graph provides directed graphs and the connectivity algorithms
// (strongly connected components, reachability, residual graphs) that
// underpin generalized quorum systems.
package graph

import (
	"fmt"
	"math/bits"
	"strings"
)

// BitSet is a fixed-capacity set of small non-negative integers. It is the
// representation used for process sets and quorums throughout the library.
// The zero value is an empty set with zero capacity; use NewBitSet to create
// a set able to hold values in [0, n).
type BitSet struct {
	words []uint64
	n     int
}

// NewBitSet returns an empty set able to hold elements in [0, n).
func NewBitSet(n int) BitSet {
	if n < 0 {
		n = 0
	}
	return BitSet{words: make([]uint64, (n+63)/64), n: n}
}

// BitSetOf returns a set with capacity n containing the given elements.
// Elements outside [0, n) are ignored.
func BitSetOf(n int, elems ...int) BitSet {
	s := NewBitSet(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Cap returns the capacity of the set (elements must be in [0, Cap())).
func (s BitSet) Cap() int { return s.n }

// Add inserts e into the set. Out-of-range elements are ignored.
func (s BitSet) Add(e int) {
	if e < 0 || e >= s.n {
		return
	}
	s.words[e/64] |= 1 << (uint(e) % 64)
}

// Remove deletes e from the set.
func (s BitSet) Remove(e int) {
	if e < 0 || e >= s.n {
		return
	}
	s.words[e/64] &^= 1 << (uint(e) % 64)
}

// Clear removes every element; the capacity stays.
func (s BitSet) Clear() { clear(s.words) }

// Contains reports whether e is in the set.
func (s BitSet) Contains(e int) bool {
	if e < 0 || e >= s.n {
		return false
	}
	return s.words[e/64]&(1<<(uint(e)%64)) != 0
}

// Len returns the number of elements in the set.
func (s BitSet) Len() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set contains no elements.
func (s BitSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s BitSet) Clone() BitSet {
	c := BitSet{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Union returns a new set containing the elements of s and t.
func (s BitSet) Union(t BitSet) BitSet {
	u := s.growClone(t.n)
	for i, w := range t.words {
		u.words[i] |= w
	}
	return u
}

// Intersect returns a new set containing elements present in both s and t.
func (s BitSet) Intersect(t BitSet) BitSet {
	u := s.growClone(t.n)
	for i := range u.words {
		if i < len(t.words) {
			u.words[i] &= t.words[i]
		} else {
			u.words[i] = 0
		}
	}
	return u
}

// Minus returns a new set with the elements of s that are not in t.
func (s BitSet) Minus(t BitSet) BitSet {
	u := s.Clone()
	for i := range u.words {
		if i < len(t.words) {
			u.words[i] &^= t.words[i]
		}
	}
	return u
}

// Intersects reports whether s and t share at least one element.
func (s BitSet) Intersects(t BitSet) bool {
	m := len(s.words)
	if len(t.words) < m {
		m = len(t.words)
	}
	for i := 0; i < m; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every element of s is in t.
func (s BitSet) SubsetOf(t BitSet) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same elements.
func (s BitSet) Equal(t BitSet) bool {
	return s.SubsetOf(t) && t.SubsetOf(s)
}

// Elems returns the elements of the set in ascending order.
func (s BitSet) Elems() []int {
	out := make([]int, 0, s.Len())
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*64+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// ForEach calls fn for each element in ascending order.
func (s BitSet) ForEach(fn func(e int)) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(i*64 + b)
			w &^= 1 << uint(b)
		}
	}
}

// String renders the set as "{0, 2, 5}".
func (s BitSet) String() string {
	elems := s.Elems()
	parts := make([]string, len(elems))
	for i, e := range elems {
		parts[i] = fmt.Sprintf("%d", e)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Key returns a canonical string usable as a map key.
func (s BitSet) Key() string {
	var b strings.Builder
	for _, w := range s.words {
		fmt.Fprintf(&b, "%016x", w)
	}
	return b.String()
}

func (s BitSet) growClone(n int) BitSet {
	if n < s.n {
		n = s.n
	}
	u := NewBitSet(n)
	copy(u.words, s.words)
	return u
}

// SortedSubsets enumerates all subsets of universe [0, n) with size at most k,
// in a deterministic order, invoking fn for each. fn returning false stops the
// enumeration. It is used to materialize threshold fail-prone systems.
func SortedSubsets(n, k int, fn func(BitSet) bool) {
	var cur []int
	var rec func(start int) bool
	rec = func(start int) bool {
		s := NewBitSet(n)
		for _, e := range cur {
			s.Add(e)
		}
		if !fn(s) {
			return false
		}
		if len(cur) == k {
			return true
		}
		for v := start; v < n; v++ {
			cur = append(cur, v)
			if !rec(v + 1) {
				return false
			}
			cur = cur[:len(cur)-1]
		}
		return true
	}
	if k < 0 {
		k = 0
	}
	rec(0)
}
