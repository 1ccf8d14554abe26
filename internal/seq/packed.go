// 2-bit packed sequences. Packed stores a DNA sequence at four bases
// per byte (A=00, C=01, G=10, T=11, the same codes as BaseIndex) with
// an N-run sidecar for ambiguous bases, so the hot paths — k-mer
// extraction, welding, alignment — work on 64-bit words instead of
// ASCII bytes. ASCII survives only at file boundaries.
//
// Layout: base i lives in words[i/32] at bit offset 2*(i%32), low bits
// first, so the lowest 2-bit group of a word is the earliest base —
// the first code difference between two aligned words is found with a
// trailing-zero count. Two invariants make word-wise comparison and
// hashing well defined:
//
//   - every N slot stores code 0 (the runs sidecar is the only record
//     of ambiguity), and
//   - padding bits past the last base are zero.
//
// Every operation below preserves both. Equality and ordering follow
// the ASCII semantics exactly: 'N' compares equal to 'N', the
// complement of 'N' is 'N', and byte order is 'A' < 'C' < 'G' < 'N'
// < 'T' (rank 3 for N sits between G and T because 'N' = 0x4E falls
// between 'G' = 0x47 and 'T' = 0x54).
package seq

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Run is one maximal interval of ambiguous bases in a packed sequence.
type Run struct {
	Start int32 // first N position
	Len   int32 // number of consecutive Ns, > 0
}

// Packed is an immutable-by-convention 2-bit packed sequence. The zero
// value is an empty sequence. Methods with an Into/InPlace suffix are
// the only mutators; everything else treats the receiver as read-only,
// so sub-slices returned by Slice may share words with their parent.
type Packed struct {
	words []uint64
	runs  []Run // sorted, maximal, non-overlapping
	n     int
}

// PackedRecord is a named packed sequence — the packed twin of Record.
// Qualities are dropped: no pipeline stage past ingest reads them.
type PackedRecord struct {
	ID   string
	Desc string
	Seq  Packed
}

// Pack converts an ASCII sequence to packed form. Any byte that is not
// ACGT (either case) becomes an N run, exactly like Upper.
func Pack(s []byte) Packed {
	var p Packed
	PackInto(&p, s)
	return p
}

// PackInto packs s into dst, reusing dst's word and run storage.
func PackInto(dst *Packed, s []byte) {
	nw := (len(s) + 31) / 32
	if cap(dst.words) < nw {
		dst.words = make([]uint64, nw)
	} else {
		dst.words = dst.words[:nw]
		for i := range dst.words {
			dst.words[i] = 0
		}
	}
	dst.runs = dst.runs[:0]
	dst.n = len(s)
	for i := 0; i < len(s); i++ {
		code, ok := BaseIndex(s[i])
		if !ok {
			if nr := len(dst.runs); nr > 0 && int(dst.runs[nr-1].Start+dst.runs[nr-1].Len) == i {
				dst.runs[nr-1].Len++
			} else {
				dst.runs = append(dst.runs, Run{Start: int32(i), Len: 1})
			}
			continue // code 0, word bits already zero
		}
		dst.words[i>>5] |= code << uint((i&31)<<1)
	}
}

// PackRecords packs a slice of records, keeping IDs and descriptions.
// Every record's words are cut from one shared array, each a
// cap-limited view, so a PackInto or append on one record reallocates
// its own words instead of writing into its neighbour's; only the N
// runs stay per record.
func PackRecords(recs []Record) []PackedRecord {
	out := make([]PackedRecord, len(recs))
	total := 0
	for i := range recs {
		total += (len(recs[i].Seq) + 31) / 32
	}
	words := make([]uint64, total)
	for i := range recs {
		out[i] = PackedRecord{ID: recs[i].ID, Desc: recs[i].Desc}
		if nw := (len(recs[i].Seq) + 31) / 32; nw > 0 {
			out[i].Seq.words, words = words[:nw:nw], words[nw:]
		}
		PackInto(&out[i].Seq, recs[i].Seq)
	}
	return out
}

// Len returns the number of bases.
func (p Packed) Len() int { return p.n }

// NumRuns returns the number of N runs.
func (p Packed) NumRuns() int { return len(p.runs) }

// RunAt returns the i-th N run.
func (p Packed) RunAt(i int) Run { return p.runs[i] }

// NumWords returns the number of 64-bit words backing the sequence.
func (p Packed) NumWords() int { return len(p.words) }

// Word returns the i-th backing word (32 bases, low bits first).
func (p Packed) Word(i int) uint64 { return p.words[i] }

// CodeAt returns the stored 2-bit code of base i. N slots return 0;
// use IsN (or a run cursor) to distinguish them from 'A'.
func (p Packed) CodeAt(i int) uint64 {
	return p.words[i>>5] >> uint((i&31)<<1) & 3
}

// IsN reports whether base i is ambiguous.
func (p Packed) IsN(i int) bool {
	lo, hi := 0, len(p.runs)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(p.runs[mid].Start+p.runs[mid].Len) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(p.runs) && int(p.runs[lo].Start) <= i
}

// Base returns the ASCII base at position i.
func (p Packed) Base(i int) byte {
	if p.IsN(i) {
		return 'N'
	}
	return IndexBase(p.CodeAt(i))
}

// MemBytes returns the resident size of the packed payload: words plus
// the N-run sidecar. IDs and struct headers are excluded so the number
// is directly comparable with len(Record.Seq) on the ASCII path.
func (p Packed) MemBytes() int { return len(p.words)*8 + len(p.runs)*8 }

// window reads 32 bases starting at pos into one word (earliest base
// in the low bits). Bases past the end read as zero. pos must be >= 0.
func (p Packed) window(pos int) uint64 {
	wi, sh := pos>>5, uint((pos&31)<<1)
	if wi >= len(p.words) {
		return 0
	}
	v := p.words[wi] >> sh
	if sh != 0 && wi+1 < len(p.words) {
		v |= p.words[wi+1] << (64 - sh)
	}
	return v
}

// AppendDecode appends the ASCII form of the sequence to dst.
func (p Packed) AppendDecode(dst []byte) []byte {
	return p.AppendDecodeRange(dst, 0, p.n)
}

// Decode returns the sequence as newly allocated ASCII bytes.
func (p Packed) Decode() []byte {
	return p.AppendDecode(make([]byte, 0, p.n))
}

// String renders the decoded sequence (diagnostics only).
func (p Packed) String() string { return string(p.Decode()) }

// AppendDecodeRange appends the ASCII form of bases [start, start+n)
// to dst.
func (p Packed) AppendDecodeRange(dst []byte, start, n int) []byte {
	if start < 0 || n < 0 || start+n > p.n {
		panic(fmt.Sprintf("seq: decode range [%d,%d) of %d bases", start, start+n, p.n))
	}
	base := len(dst)
	for i := start; i < start+n; i++ {
		dst = append(dst, IndexBase(p.CodeAt(i)))
	}
	for _, r := range p.runs {
		rs, re := int(r.Start), int(r.Start+r.Len)
		if rs < start {
			rs = start
		}
		if re > start+n {
			re = start + n
		}
		for i := rs; i < re; i++ {
			dst[base+i-start] = 'N'
		}
	}
	return dst
}

// Slice returns bases [start, end) as a new packed sequence.
func (p Packed) Slice(start, end int) Packed {
	var out Packed
	p.SliceInto(&out, start, end)
	return out
}

// SliceInto extracts bases [start, end) into dst, reusing dst's
// storage. dst must not alias p.
func (p Packed) SliceInto(dst *Packed, start, end int) {
	if start < 0 || end < start || end > p.n {
		panic(fmt.Sprintf("seq: slice [%d,%d) of %d bases", start, end, p.n))
	}
	n := end - start
	nw := (n + 31) / 32
	if cap(dst.words) < nw {
		dst.words = make([]uint64, nw)
	} else {
		dst.words = dst.words[:nw]
	}
	dst.runs = dst.runs[:0]
	dst.n = n
	for i := 0; i < nw; i++ {
		dst.words[i] = p.window(start + i*32)
	}
	if nw > 0 { // zero padding past the last base
		if top := uint(n & 31); top != 0 {
			dst.words[nw-1] &= (uint64(1) << (top * 2)) - 1
		}
	}
	for _, r := range p.runs {
		rs, re := int(r.Start), int(r.Start+r.Len)
		if re <= start || rs >= end {
			continue
		}
		if rs < start {
			rs = start
		}
		if re > end {
			re = end
		}
		dst.runs = append(dst.runs, Run{Start: int32(rs - start), Len: int32(re - rs)})
	}
}

// revComp2 reverses the 32 2-bit groups of a word and complements each
// — the word-granular kernel of ReverseComplementInPlace, the same
// O(log w) bit-twiddle as kmer.Kmer.ReverseComplement.
func revComp2(v uint64) uint64 {
	v = ^v
	v = bits.ReverseBytes64(v)
	v = (v&0xf0f0f0f0f0f0f0f0)>>4 | (v&0x0f0f0f0f0f0f0f0f)<<4
	v = (v&0xcccccccccccccccc)>>2 | (v&0x3333333333333333)<<2
	return v
}

// ReverseComplementInPlace reverse-complements the sequence without
// allocating: each word is complemented and group-reversed in O(log w)
// operations, the word order is reversed, and one funnel shift drops
// the padding that lands at the front. N slots are re-zeroed (the
// complement of N is N) and the run sidecar is mirrored.
func (p *Packed) ReverseComplementInPlace() {
	w := p.words
	for i := range w {
		w[i] = revComp2(w[i])
	}
	for i, j := 0, len(w)-1; i < j; i, j = i+1, j-1 {
		w[i], w[j] = w[j], w[i]
	}
	if s := uint((len(w)*32 - p.n) * 2); s != 0 && len(w) > 0 {
		for i := 0; i < len(w)-1; i++ {
			w[i] = w[i]>>s | w[i+1]<<(64-s)
		}
		w[len(w)-1] >>= s
	}
	// Mirror the N runs and restore the all-zero-slot invariant (the
	// complement pass turned their stored 0s into 3s).
	for i, j := 0, len(p.runs)-1; i < j; i, j = i+1, j-1 {
		p.runs[i], p.runs[j] = p.runs[j], p.runs[i]
	}
	for i := range p.runs {
		p.runs[i].Start = int32(p.n) - p.runs[i].Start - p.runs[i].Len
	}
	for _, r := range p.runs {
		p.zeroRange(int(r.Start), int(r.Len))
	}
}

// ReverseComplementInto writes the reverse complement of p into dst,
// reusing dst's storage. dst must not alias p.
func (p Packed) ReverseComplementInto(dst *Packed) {
	if cap(dst.words) < len(p.words) {
		dst.words = make([]uint64, len(p.words))
	} else {
		dst.words = dst.words[:len(p.words)]
	}
	copy(dst.words, p.words)
	if cap(dst.runs) < len(p.runs) {
		dst.runs = make([]Run, len(p.runs))
	} else {
		dst.runs = dst.runs[:len(p.runs)]
	}
	copy(dst.runs, p.runs)
	dst.n = p.n
	dst.ReverseComplementInPlace()
}

// ReverseComplement returns a newly allocated reverse complement.
func (p Packed) ReverseComplement() Packed {
	var out Packed
	p.ReverseComplementInto(&out)
	return out
}

// zeroRange clears the stored codes of bases [start, start+n).
func (p *Packed) zeroRange(start, n int) {
	for n > 0 {
		wi, off := start>>5, start&31
		span := 32 - off
		if span > n {
			span = n
		}
		mask := ^uint64(0)
		if span < 32 {
			mask = (uint64(1) << (uint(span) * 2)) - 1
		}
		p.words[wi] &^= mask << uint(off*2)
		start += span
		n -= span
	}
}

// EqualRange reports whether bases [i, i+n) of p equal bases [j, j+n)
// of q under ASCII semantics: codes must match and the N positions
// must coincide ('N' == 'N', but 'N' != 'A' even though both store
// code 0).
func (p Packed) EqualRange(i int, q Packed, j, n int) bool {
	if i < 0 || j < 0 || i+n > p.n || j+n > q.n {
		return false
	}
	for off := 0; off < n; off += 32 {
		span := n - off
		if span > 32 {
			span = 32
		}
		mask := ^uint64(0)
		if span < 32 {
			mask = (uint64(1) << (uint(span) * 2)) - 1
		}
		if (p.window(i+off)^q.window(j+off))&mask != 0 {
			return false
		}
	}
	// The N interval sets, shifted to range-relative coordinates, must
	// be identical.
	pc, qc := runCursor{runs: p.runs, start: i, n: n}, runCursor{runs: q.runs, start: j, n: n}
	for {
		ps, pn, pok := pc.next()
		qs, qn, qok := qc.next()
		if pok != qok || ps != qs || pn != qn {
			return false
		}
		if !pok {
			return true
		}
	}
}

// runCursor walks the N runs of one sequence clipped to [start,
// start+n), yielding range-relative intervals.
type runCursor struct {
	runs  []Run
	start int
	n     int
	idx   int
}

func (c *runCursor) next() (rs, rn int, ok bool) {
	for ; c.idx < len(c.runs); c.idx++ {
		r := c.runs[c.idx]
		lo, hi := int(r.Start), int(r.Start+r.Len)
		if hi <= c.start {
			continue
		}
		if lo >= c.start+c.n {
			return 0, 0, false
		}
		if lo < c.start {
			lo = c.start
		}
		if hi > c.start+c.n {
			hi = c.start + c.n
		}
		c.idx++
		return lo - c.start, hi - c.start, true
	}
	return 0, 0, false
}

const maxPos = int(^uint(0) >> 1)

// firstRunDiff returns the earliest position at which N membership
// differs between two canonical run lists, or maxPos if the sets are
// identical. Canonical lists (sorted, maximal) of equal sets are
// element-wise equal, so the first structural difference pins the
// position exactly.
func firstRunDiff(a, b []Run) int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] == b[j] {
			i, j = i+1, j+1
			continue
		}
		if a[i].Start != b[j].Start {
			if a[i].Start < b[j].Start {
				return int(a[i].Start)
			}
			return int(b[j].Start)
		}
		// Same start, different length: membership diverges where the
		// shorter run ends.
		if a[i].Len < b[j].Len {
			return int(a[i].Start + a[i].Len)
		}
		return int(b[j].Start + b[j].Len)
	}
	if i < len(a) {
		return int(a[i].Start)
	}
	if j < len(b) {
		return int(b[j].Start)
	}
	return maxPos
}

// asciiRank orders a position the way ASCII bytes do: 'A' < 'C' < 'G'
// < 'N' < 'T'.
func asciiRank(code uint64, isN bool) int {
	if isN {
		return 3
	}
	if code == 3 { // T
		return 4
	}
	return int(code)
}

// Compare orders two packed sequences exactly as bytes.Compare orders
// their ASCII decodings: -1, 0, or +1. This is what lets packed weld
// pools reproduce sort.Strings order byte for byte.
func (p Packed) Compare(q Packed) int {
	minLen := p.n
	if q.n < minLen {
		minLen = q.n
	}
	// Earliest stored-code difference: scan aligned words; the lowest
	// set 2-bit group of the XOR is the earliest differing base.
	codeDiff := maxPos
	nw := (minLen + 31) / 32
	for i := 0; i < nw; i++ {
		if x := p.words[i] ^ q.words[i]; x != 0 {
			codeDiff = i*32 + bits.TrailingZeros64(x)/2
			break
		}
	}
	pos := codeDiff
	if nd := firstRunDiff(p.runs, q.runs); nd < pos {
		pos = nd
	}
	if pos >= minLen {
		switch {
		case p.n < q.n:
			return -1
		case p.n > q.n:
			return 1
		}
		return 0
	}
	pr := asciiRank(p.CodeAt(pos), p.IsN(pos))
	qr := asciiRank(q.CodeAt(pos), q.IsN(pos))
	switch {
	case pr < qr:
		return -1
	case pr > qr:
		return 1
	}
	return 0
}

// Equal reports whether p and q decode to identical ASCII sequences.
func (p Packed) Equal(q Packed) bool {
	return p.n == q.n && p.EqualRange(0, q, 0, p.n)
}

// MismatchRange counts positions in [0, n) where base i+off of p
// differs from base j+off of q under ASCII semantics, stopping early
// once the count reaches budget (pass n+1 or more for an exact count).
// It reports the mismatch count (clamped at budget) and the number of
// positions examined — the loop-iteration count of the equivalent
// byte-wise scan `for off := 0; off < n && mm < budget; off++`, which
// alignment work-unit accounting must reproduce exactly.
func (p Packed) MismatchRange(i int, q Packed, j, n, budget int) (mm, examined int) {
	if budget <= 0 {
		return 0, 0
	}
	for off := 0; off < n; off += 32 {
		span := n - off
		if span > 32 {
			span = 32
		}
		x := p.window(i+off) ^ q.window(j+off)
		if span < 32 {
			x &= (uint64(1) << (uint(span) * 2)) - 1
		}
		// Fold each differing 2-bit group down to its low bit.
		diff := (x | x>>1) & 0x5555555555555555
		// ASCII adjustment: where exactly one side is N and the other
		// stores code 0 (an 'A'), the words agree but the bases do
		// not. Both-N positions store equal codes and compare equal in
		// ASCII, so they need no correction. N runs are rare, so a
		// per-window scan over both sidecars stays cheap.
		diff |= nOnlyMask(p, i+off, q, j+off, span)
		diff |= nOnlyMask(q, j+off, p, i+off, span)
		c := bits.OnesCount64(diff)
		if mm+c >= budget {
			// Find the exact base where the budget-th mismatch lands,
			// to report the examined count the byte loop would.
			need := budget - mm
			for t := 0; t < 64; t += 2 {
				if diff>>uint(t)&1 == 1 {
					need--
					if need == 0 {
						return budget, off + t/2 + 1
					}
				}
			}
		}
		mm += c
	}
	return mm, n
}

// nOnlyMask marks (window-relative, low bit of each 2-bit group) the
// positions in [0, span) where a is N, b is not, and b stores code 0 —
// the only case the XOR of canonical words misses. as and bs are the
// absolute window starts in a and b.
func nOnlyMask(a Packed, as int, b Packed, bs, span int) uint64 {
	var mask uint64
	for _, r := range a.runs {
		lo, hi := int(r.Start), int(r.Start+r.Len)
		if hi <= as {
			continue
		}
		if lo >= as+span {
			break
		}
		if lo < as {
			lo = as
		}
		if hi > as+span {
			hi = as + span
		}
		for t := lo; t < hi; t++ {
			rel := t - as
			if bp := bs + rel; !b.IsN(bp) && b.CodeAt(bp) == 0 {
				mask |= uint64(1) << uint(rel*2)
			}
		}
	}
	return mask
}

// AppendEncode appends a canonical wire encoding of the sequence:
// uvarint base count, uvarint run count, each run as two uvarints,
// then the words little-endian. Equal sequences always produce equal
// bytes, so encodings can serve as map keys and travel through the
// string-framed weld exchange unchanged.
func (p Packed) AppendEncode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(p.n))
	dst = binary.AppendUvarint(dst, uint64(len(p.runs)))
	for _, r := range p.runs {
		dst = binary.AppendUvarint(dst, uint64(r.Start))
		dst = binary.AppendUvarint(dst, uint64(r.Len))
	}
	for _, w := range p.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// Encode returns the canonical wire encoding as new bytes.
func (p Packed) Encode() []byte { return p.AppendEncode(nil) }

// DecodePacked parses a wire encoding produced by Encode/AppendEncode
// and returns the sequence plus the number of bytes consumed.
func DecodePacked(b []byte) (Packed, int, error) {
	var p Packed
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(maxPos) {
		return p, 0, fmt.Errorf("seq: bad packed length")
	}
	off := sz
	nr, sz := binary.Uvarint(b[off:])
	if sz <= 0 {
		return p, 0, fmt.Errorf("seq: bad packed run count")
	}
	off += sz
	p.n = int(n)
	if nr > 0 {
		p.runs = make([]Run, nr)
		for i := range p.runs {
			s, sz := binary.Uvarint(b[off:])
			if sz <= 0 {
				return Packed{}, 0, fmt.Errorf("seq: bad packed run")
			}
			off += sz
			l, sz := binary.Uvarint(b[off:])
			if sz <= 0 {
				return Packed{}, 0, fmt.Errorf("seq: bad packed run")
			}
			off += sz
			p.runs[i] = Run{Start: int32(s), Len: int32(l)}
		}
	}
	nw := (p.n + 31) / 32
	if len(b) < off+8*nw {
		return Packed{}, 0, fmt.Errorf("seq: packed words truncated: need %d bytes, have %d", 8*nw, len(b)-off)
	}
	if nw > 0 {
		p.words = make([]uint64, nw)
		for i := range p.words {
			p.words[i] = binary.LittleEndian.Uint64(b[off:])
			off += 8
		}
	}
	return p, off, nil
}
