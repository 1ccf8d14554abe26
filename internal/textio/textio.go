// Package textio holds what the readers of the pipeline's text
// artifacts (k-mer dumps, SAM, components, assignments, FASTA) share:
// splitting a line into whitespace-separated fields in place, gathering
// an unknown number of parsed records without regrowing one slice
// record by record, and turning many short names into substrings of
// one string.
package textio

import (
	"encoding/binary"
	"slices"
	"unicode"
	"unicode/utf8"
)

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// NextField splits off s's first whitespace-delimited field, with
// strings.Fields' notion of whitespace (unicode.IsSpace over the UTF-8
// runes of s; an invalid byte is not space). ASCII bytes take a table
// lookup; only bytes past ASCII are decoded.
func NextField(s []byte) (field, rest []byte) {
	i := 0
	for i < len(s) {
		n := spaceAt(s, i)
		if n == 0 {
			break
		}
		i += n
	}
	s = s[i:]
	for j := 0; j < len(s); {
		// Eight bytes at a time while none is a control byte, a space
		// or past ASCII: such bytes are all in the field.
		for j+8 <= len(s) && !mayHoldSpace(binary.LittleEndian.Uint64(s[j:])) {
			j += 8
		}
		if j == len(s) {
			break
		}
		if c := s[j]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				return s[:j], s[j:]
			}
			j++
			continue
		}
		r, n := utf8.DecodeRune(s[j:])
		if unicode.IsSpace(r) {
			return s[:j], s[j:]
		}
		j += n
	}
	return s, nil
}

// mayHoldSpace reports whether one of x's eight bytes is below '!' or
// at least utf8.RuneSelf: every byte that can start a space rune is.
// (A borrow in the subtraction can flag the wrong byte, but only when
// a lower byte is below '!' already.)
func mayHoldSpace(x uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	return ((x-'!'*ones)&^x|x)&highs != 0
}

// spaceAt returns the byte length of the whitespace rune at s[i], or 0
// if there is none.
func spaceAt(s []byte, i int) int {
	if c := s[i]; c < utf8.RuneSelf {
		if asciiSpace[c] {
			return 1
		}
		return 0
	}
	if r, n := utf8.DecodeRune(s[i:]); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// Blocks gathers values in blocks of growing size and copies them once
// into an exact-size slice: appending to one slice instead would copy
// and clear every value several times over as the slice regrows.
type Blocks[T any] struct {
	full [][]T
	cur  []T
}

// maxBlock bounds a block's length.
const maxBlock = 4096

// Append adds v.
func (b *Blocks[T]) Append(v T) {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]T, 0, min(max(2*cap(b.cur), 64), maxBlock))
	}
	b.cur = append(b.cur, v)
}

// Slice returns every value appended, in order: nil if there were none.
func (b *Blocks[T]) Slice() []T {
	return slices.Concat(append(b.full, b.cur)...)
}

// Strings gathers byte strings back to back and hands them out at the
// end as substrings of one string: one allocation for all of them
// instead of one each.
type Strings struct {
	buf  []byte
	ends []int
}

// Add appends a copy of b.
func (s *Strings) Add(b []byte) {
	s.buf = append(s.buf, b...)
	s.ends = append(s.ends, len(s.buf))
}

// Each calls fn with the index and string of every Add, in order.
func (s *Strings) Each(fn func(i int, str string)) {
	all, start := string(s.buf), 0
	for i, end := range s.ends {
		fn(i, all[start:end])
		start = end
	}
}
