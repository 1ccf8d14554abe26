// Package seq provides the nucleotide-sequence substrate used by every
// stage of the pipeline: the DNA alphabet, sequence records, reverse
// complementation, and summary statistics such as N50.
//
// Sequences are stored as upper-case ASCII bytes (A, C, G, T, N). All
// operations treat 'N' (and any other non-ACGT byte) as an ambiguous
// base: it never matches anything and never contributes a k-mer.
package seq

import (
	"fmt"
	"sort"
)

// Record is a single named sequence, as read from or written to a
// FASTA/FASTQ file.
type Record struct {
	// ID is the sequence identifier (the header up to the first space).
	ID string
	// Desc is the remainder of the header line, if any.
	Desc string
	// Seq is the sequence payload, upper-case ASCII.
	Seq []byte
	// Qual holds per-base quality bytes for FASTQ records; nil for FASTA.
	Qual []byte
}

// Len returns the number of bases in the record.
func (r *Record) Len() int { return len(r.Seq) }

// String renders the record as a one-line summary for diagnostics.
func (r *Record) String() string {
	return fmt.Sprintf("%s[%dbp]", r.ID, len(r.Seq))
}

// complement maps each ASCII base to its Watson-Crick complement.
// Ambiguous bases map to 'N'.
var complement [256]byte

func init() {
	for i := range complement {
		complement[i] = 'N'
	}
	complement['A'], complement['a'] = 'T', 'T'
	complement['C'], complement['c'] = 'G', 'G'
	complement['G'], complement['g'] = 'C', 'C'
	complement['T'], complement['t'] = 'A', 'A'
}

// Complement returns the Watson-Crick complement of a single base.
func Complement(b byte) byte { return complement[b] }

// ReverseComplement returns a newly allocated reverse complement of s.
func ReverseComplement(s []byte) []byte {
	out := make([]byte, len(s))
	for i, b := range s {
		out[len(s)-1-i] = complement[b]
	}
	return out
}

// ReverseComplementInPlace reverse-complements s without allocating.
func ReverseComplementInPlace(s []byte) {
	i, j := 0, len(s)-1
	for i < j {
		s[i], s[j] = complement[s[j]], complement[s[i]]
		i, j = i+1, j-1
	}
	if i == j {
		s[i] = complement[s[i]]
	}
}

// baseCode maps each byte to its 2-bit code, or 4 for an ambiguous
// base. A table load does not mispredict on random bases the way a
// switch over them does.
var baseCode = func() (t [256]uint8) {
	for i := range t {
		t[i] = 4
	}
	for code, b := range "ACGT" {
		t[b], t[b+'a'-'A'] = uint8(code), uint8(code)
	}
	return t
}()

// BaseIndex returns the 2-bit code of a base (A=0, C=1, G=2, T=3) and
// true, or 0 and false for an ambiguous base.
func BaseIndex(b byte) (uint64, bool) {
	c := baseCode[b]
	return uint64(c & 3), c < 4
}

// IndexBase is the inverse of BaseIndex for codes 0..3.
func IndexBase(code uint64) byte {
	return "ACGT"[code&3]
}

// upperBase maps each byte to its upper-case base, or 'N' for any
// byte that is not a base.
var upperBase = func() (t [256]byte) {
	for i := range t {
		t[i] = 'N'
	}
	for _, b := range "ACGT" {
		t[b], t[b+'a'-'A'] = byte(b), byte(b)
	}
	return t
}()

// Upper upper-cases a sequence in place and returns it. Non-ACGT bytes
// become 'N'.
func Upper(s []byte) []byte {
	upperInto(s, s)
	return s
}

// upperInto writes src upper-cased, non-ACGT bytes as 'N', into dst
// (at least as long).
func upperInto(dst, src []byte) {
	for i, b := range src {
		dst[i] = upperBase[b]
	}
}

// Stats summarises a set of sequence lengths.
type Stats struct {
	Count      int
	TotalBases int
	MinLen     int
	MaxLen     int
	MeanLen    float64
	N50        int
}

// ComputeStats derives summary statistics from the given records.
func ComputeStats(recs []Record) Stats {
	var st Stats
	if len(recs) == 0 {
		return st
	}
	lengths := make([]int, len(recs))
	st.Count = len(recs)
	st.MinLen = recs[0].Len()
	for i := range recs {
		n := recs[i].Len()
		lengths[i] = n
		st.TotalBases += n
		if n < st.MinLen {
			st.MinLen = n
		}
		if n > st.MaxLen {
			st.MaxLen = n
		}
	}
	st.MeanLen = float64(st.TotalBases) / float64(st.Count)
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	half := st.TotalBases / 2
	run := 0
	for _, n := range lengths {
		run += n
		if run >= half {
			st.N50 = n
			break
		}
	}
	return st
}
