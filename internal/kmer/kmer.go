// Package kmer implements 2-bit packed k-mers for k ≤ 31 and the
// rolling extraction used throughout the pipeline. A k-mer is stored in
// a uint64 with base A=00, C=01, G=10, T=11, most significant base
// first, so lexicographic order of the string equals numeric order of
// the packed value.
package kmer

import (
	"fmt"
	"math/bits"
	"slices"

	"gotrinity/internal/seq"
)

// MaxK is the largest supported k-mer length (2 bits per base in 62 of
// 64 bits).
const MaxK = 31

// Kmer is a 2-bit packed k-mer. The length k is carried externally —
// by the Counter, graph, or iterator that owns the value.
type Kmer uint64

// Encode packs s[:k] into a Kmer. It returns ok=false if s is shorter
// than k or contains an ambiguous base.
func Encode(s []byte, k int) (Kmer, bool) {
	if k <= 0 || k > MaxK || len(s) < k {
		return 0, false
	}
	var v uint64
	for i := 0; i < k; i++ {
		code, ok := seq.BaseIndex(s[i])
		if !ok {
			return 0, false
		}
		v = v<<2 | code
	}
	return Kmer(v), true
}

// Decode unpacks the k-mer into an ASCII string of length k.
func (m Kmer) Decode(k int) string {
	return string(m.AppendDecode(make([]byte, 0, k), k))
}

// AppendDecode appends the k-mer's k ASCII bases to dst — Decode
// without the string, for callers that format into a reused buffer.
func (m Kmer) AppendDecode(dst []byte, k int) []byte {
	dst = slices.Grow(dst, k)
	out := dst[len(dst) : len(dst)+k]
	for i := k - 1; i >= 0; i-- {
		out[i] = seq.IndexBase(uint64(m))
		m >>= 2
	}
	return dst[:len(dst)+k]
}

// AppendBase shifts the k-mer left by one base and appends code,
// masking to k bases. It is the rolling-hash step.
func (m Kmer) AppendBase(code uint64, k int) Kmer {
	return Kmer((uint64(m)<<2 | code) & mask(k))
}

// PrependBase shifts the k-mer right and prepends code as the new
// high-order base.
func (m Kmer) PrependBase(code uint64, k int) Kmer {
	return Kmer(uint64(m)>>2 | code<<(2*(k-1)))
}

// FirstBase returns the 2-bit code of the leading (leftmost) base.
func (m Kmer) FirstBase(k int) uint64 {
	return (uint64(m) >> (2 * (k - 1))) & 3
}

// LastBase returns the 2-bit code of the trailing (rightmost) base.
func (m Kmer) LastBase() uint64 { return uint64(m) & 3 }

// Suffix returns the (k-1)-mer suffix, used for (k-1)-overlap extension.
func (m Kmer) Suffix(k int) Kmer { return Kmer(uint64(m) & mask(k-1)) }

// Prefix returns the (k-1)-mer prefix.
func (m Kmer) Prefix(k int) Kmer { return Kmer(uint64(m) >> 2) }

// ReverseComplement returns the reverse complement of the k-mer in
// O(log w) word operations: complementing every base is one XOR (the
// 2-bit codes are chosen so A↔T and C↔G are bitwise complements),
// reversing the base order is a byte swap plus two in-byte 2-bit-group
// swaps, and a final shift drops the 64-2k garbage bits that the
// full-width reversal pushed to the bottom.
func (m Kmer) ReverseComplement(k int) Kmer {
	v := ^uint64(m)
	v = bits.ReverseBytes64(v)
	v = (v&0xf0f0f0f0f0f0f0f0)>>4 | (v&0x0f0f0f0f0f0f0f0f)<<4
	v = (v&0xcccccccccccccccc)>>2 | (v&0x3333333333333333)<<2
	return Kmer(v >> (64 - 2*uint(k)))
}

// Canonical returns the lexicographically smaller of the k-mer and its
// reverse complement, plus whether the forward orientation was chosen.
func (m Kmer) Canonical(k int) (Kmer, bool) {
	rc := m.ReverseComplement(k)
	if rc < m {
		return rc, false
	}
	return m, true
}

func mask(k int) uint64 {
	return (uint64(1) << (2 * k)) - 1
}

func (m Kmer) String() string {
	return fmt.Sprintf("Kmer(%#x)", uint64(m))
}

// Iterator walks every valid (ambiguity-free) k-mer of a sequence with
// a rolling update, restarting after each 'N'.
type Iterator struct {
	s    []byte
	k    int
	pos  int // index of the base that will extend the current window
	have int // number of valid bases currently in the window
	cur  Kmer
}

// NewIterator prepares iteration over all k-mers of s.
func NewIterator(s []byte, k int) *Iterator {
	return &Iterator{s: s, k: k}
}

// Next returns the next k-mer and its start offset within the sequence.
// ok=false signals exhaustion.
func (it *Iterator) Next() (m Kmer, pos int, ok bool) {
	for it.pos < len(it.s) {
		code, valid := seq.BaseIndex(it.s[it.pos])
		it.pos++
		if !valid {
			it.have = 0
			continue
		}
		it.cur = it.cur.AppendBase(code, it.k)
		if it.have < it.k {
			it.have++
		}
		if it.have == it.k {
			return it.cur, it.pos - it.k, true
		}
	}
	return 0, 0, false
}

// CountOf returns the number of valid k-mers in s (what a full
// iteration would yield), without allocating.
func CountOf(s []byte, k int) int {
	n, have := 0, 0
	for _, b := range s {
		if _, ok := seq.BaseIndex(b); !ok {
			have = 0
			continue
		}
		have++
		if have >= k {
			n++
		}
	}
	return n
}
