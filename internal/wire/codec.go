package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The body codec's primitives. A body is the concatenation of its fields in
// declaration order, with no tags and no padding:
//
//   - unsigned integers as uvarints, signed ones as zigzag varints, both in
//     their shortest form (a longer one is rejected);
//   - booleans as one byte, 0 or 1;
//   - strings and byte slices as a uvarint length, then the bytes;
//   - lists and maps as a uvarint count, then the elements.
//
// Decoding is bounded by the input: a count is accepted only when every
// element it announces could still fit in the bytes left, at the element's
// smallest encoded size, so no input makes a decoder allocate more than a
// small multiple of its own length.

// AppendUvarint appends x as a uvarint.
func AppendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

// AppendVarint appends x as a zigzag varint.
func AppendVarint(b []byte, x int64) []byte { return binary.AppendVarint(b, x) }

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s with its length.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends p with its length.
func AppendBytes(b []byte, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// errShort and errTrailing name the two ways an input can fail to be
// exactly one body.
var (
	errShort    = errors.New("truncated or malformed body")
	errTrailing = errors.New("trailing bytes after body")
)

// Reader reads the fields of one encoded body in order. The first malformed
// field sets the error and turns every later read into a zero value, so a
// decoder reads all of its fields and checks Done once.
//
// Strings read from a byte input share one copy of it, made on the first
// string read; strings read from a string input are substrings of it.
// Either way a decoded string keeps its whole input alive, so a caller that
// stores a few small strings out of a large input clones them. Byte slices
// are always fresh copies.
type Reader[S string | []byte] struct {
	in  S
	str string // in as a string, once a string was read
	pos int
	err error
}

// NewReader returns a reader over one encoded body.
func NewReader[S string | []byte](in S) Reader[S] { return Reader[S]{in: in} }

// fail records the first error.
func (r *Reader[S]) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned integer.
func (r *Reader[S]) Uvarint() uint64 {
	var x uint64
	for shift := uint(0); r.err == nil; shift += 7 {
		if r.pos >= len(r.in) {
			break
		}
		c := r.in[r.pos]
		r.pos++
		if shift == 63 && c > 1 {
			break // overflows 64 bits
		}
		if c < 0x80 {
			if c == 0 && shift > 0 {
				break // not the shortest form
			}
			return x | uint64(c)<<shift
		}
		x |= uint64(c&0x7f) << shift
	}
	r.fail(errShort)
	return 0
}

// Varint reads a signed integer.
func (r *Reader[S]) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a signed integer that must fit an int.
func (r *Reader[S]) Int() int {
	x := r.Varint()
	if int64(int(x)) != x {
		r.fail(errShort)
		return 0
	}
	return int(x)
}

// Bool reads a boolean.
func (r *Reader[S]) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.in) || r.in[r.pos] > 1 {
		r.fail(errShort)
		return false
	}
	r.pos++
	return r.in[r.pos-1] == 1
}

// span reads a length and returns the bounds of the bytes it announces.
func (r *Reader[S]) span() (int, int, bool) {
	n := r.Uvarint()
	if r.err != nil {
		return 0, 0, false
	}
	if n > uint64(len(r.in)-r.pos) {
		r.fail(errShort)
		return 0, 0, false
	}
	lo := r.pos
	r.pos += int(n)
	return lo, r.pos, true
}

// String reads a length-prefixed string.
func (r *Reader[S]) String() string {
	lo, hi, ok := r.span()
	if !ok || lo == hi {
		return ""
	}
	if r.str == "" {
		r.str = string(r.in) // no copy when the input is a string
	}
	return r.str[lo:hi]
}

// Skip reads past a length-prefixed string or byte slice without copying
// it.
func (r *Reader[S]) Skip() { r.span() }

// Bytes reads a length-prefixed byte slice into a fresh copy; an empty one
// reads as nil.
func (r *Reader[S]) Bytes() []byte {
	lo, hi, ok := r.span()
	if !ok || lo == hi {
		return nil
	}
	out := make([]byte, hi-lo)
	copy(out, r.in[lo:hi])
	return out
}

// Count reads the length of a list or map whose elements take at least min
// bytes each, rejecting a count the remaining input cannot hold.
func (r *Reader[S]) Count(min int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64((len(r.in)-r.pos)/min) {
		r.fail(errShort)
		return 0
	}
	return int(n)
}

// Done reports the first error, or that input is left over.
func (r *Reader[S]) Done() error {
	if r.err == nil && r.pos != len(r.in) {
		r.err = fmt.Errorf("%w (%d of %d bytes)", errTrailing, len(r.in)-r.pos, len(r.in))
	}
	return r.err
}
