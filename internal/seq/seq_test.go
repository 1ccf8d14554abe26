package seq

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestComplementBases(t *testing.T) {
	cases := map[byte]byte{'A': 'T', 'C': 'G', 'G': 'C', 'T': 'A', 'N': 'N', 'X': 'N', 'a': 'T'}
	for in, want := range cases {
		if got := Complement(in); got != want {
			t.Errorf("Complement(%c) = %c, want %c", in, got, want)
		}
	}
}

func TestReverseComplement(t *testing.T) {
	got := ReverseComplement([]byte("ACGTN"))
	if string(got) != "NACGT" {
		t.Errorf("ReverseComplement(ACGTN) = %s, want NACGT", got)
	}
}

func TestReverseComplementInPlaceMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(64)
		s := randomDNA(rng, n)
		want := ReverseComplement(s)
		in := append([]byte(nil), s...)
		ReverseComplementInPlace(in)
		if !bytes.Equal(in, want) {
			t.Fatalf("in-place rc mismatch for %s: got %s want %s", s, in, want)
		}
	}
}

// Reverse complement must be an involution on ACGT sequences.
func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		s := Upper(append([]byte(nil), raw...))
		rc := ReverseComplement(ReverseComplement(s))
		return bytes.Equal(rc, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBaseIndexRoundTrip(t *testing.T) {
	for _, b := range []byte("ACGT") {
		code, ok := BaseIndex(b)
		if !ok {
			t.Fatalf("BaseIndex(%c) not ok", b)
		}
		if got := IndexBase(code); got != b {
			t.Errorf("IndexBase(BaseIndex(%c)) = %c", b, got)
		}
	}
	if _, ok := BaseIndex('N'); ok {
		t.Error("BaseIndex(N) should not be ok")
	}
}

// switchBaseIndex is the switch BaseIndex was before it became a table
// lookup: the oracle for the exhaustive check below.
func switchBaseIndex(b byte) (uint64, bool) {
	switch b {
	case 'A', 'a':
		return 0, true
	case 'C', 'c':
		return 1, true
	case 'G', 'g':
		return 2, true
	case 'T', 't':
		return 3, true
	}
	return 0, false
}

// TestBaseIndexTableExhaustive checks the table-driven BaseIndex
// against the switch on every byte value.
func TestBaseIndexTableExhaustive(t *testing.T) {
	for i := 0; i < 256; i++ {
		gotC, gotOK := BaseIndex(byte(i))
		wantC, wantOK := switchBaseIndex(byte(i))
		if gotC != wantC || gotOK != wantOK {
			t.Errorf("BaseIndex(%#02x) = (%d,%v), want (%d,%v)", i, gotC, gotOK, wantC, wantOK)
		}
	}
}

func TestUpperNormalises(t *testing.T) {
	got := Upper([]byte("acgtXn-7"))
	if string(got) != "ACGTNNNN" {
		t.Errorf("Upper = %s, want ACGTNNNN", got)
	}
}

func TestComputeStatsN50(t *testing.T) {
	recs := []Record{
		{ID: "a", Seq: bytes.Repeat([]byte{'A'}, 100)},
		{ID: "b", Seq: bytes.Repeat([]byte{'A'}, 200)},
		{ID: "c", Seq: bytes.Repeat([]byte{'A'}, 700)},
	}
	st := ComputeStats(recs)
	if st.Count != 3 || st.TotalBases != 1000 {
		t.Fatalf("stats count/total = %d/%d", st.Count, st.TotalBases)
	}
	if st.N50 != 700 {
		t.Errorf("N50 = %d, want 700", st.N50)
	}
	if st.MinLen != 100 || st.MaxLen != 700 {
		t.Errorf("min/max = %d/%d", st.MinLen, st.MaxLen)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	st := ComputeStats(nil)
	if st.Count != 0 || st.N50 != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestFastaRoundTrip(t *testing.T) {
	recs := []Record{
		{ID: "r1", Desc: "first read", Seq: []byte("ACGTACGTACGT")},
		{ID: "r2", Seq: []byte("GGGGCCCCAAAATTTT")},
		{ID: "empty", Seq: []byte{}},
	}
	var buf bytes.Buffer
	fw := NewFastaWriter(&buf)
	fw.Wrap = 5
	for i := range recs {
		if err := fw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewFastaReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip count = %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].ID != recs[i].ID || !bytes.Equal(got[i].Seq, recs[i].Seq) {
			t.Errorf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
	if got[0].Desc != "first read" {
		t.Errorf("desc = %q", got[0].Desc)
	}
}

func TestFastaReaderMultiline(t *testing.T) {
	in := ">x a b\nACGT\nacgt\n\n>y\nTTTT\n"
	recs, err := NewFastaReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if string(recs[0].Seq) != "ACGTACGT" {
		t.Errorf("seq = %s", recs[0].Seq)
	}
	if recs[0].ID != "x" || recs[0].Desc != "a b" {
		t.Errorf("header = %q %q", recs[0].ID, recs[0].Desc)
	}
	if string(recs[1].Seq) != "TTTT" {
		t.Errorf("seq2 = %s", recs[1].Seq)
	}
}

func TestFastaReaderMalformed(t *testing.T) {
	_, err := NewFastaReader(strings.NewReader("ACGT\n")).Read()
	if err == nil {
		t.Error("expected error for missing header")
	}
}

func TestFastaReaderEmptyInput(t *testing.T) {
	_, err := NewFastaReader(strings.NewReader("")).Read()
	if err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestFastaReaderNoTrailingNewline(t *testing.T) {
	recs, err := NewFastaReader(strings.NewReader(">a\nACG")).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Seq) != "ACG" {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestFastqRoundTrip(t *testing.T) {
	recs := []Record{
		{ID: "q1", Seq: []byte("ACGT"), Qual: []byte("IIII")},
		{ID: "q2", Desc: "pair/1", Seq: []byte("GGCC"), Qual: []byte("!!!!")},
	}
	var buf bytes.Buffer
	fw := NewFastqWriter(&buf)
	for i := range recs {
		if err := fw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewFastqReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records", len(got))
	}
	for i := range recs {
		if got[i].ID != recs[i].ID || !bytes.Equal(got[i].Seq, recs[i].Seq) ||
			!bytes.Equal(got[i].Qual, recs[i].Qual) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestFastqWriterSynthesisesQuality(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFastqWriter(&buf)
	if err := fw.Write(&Record{ID: "x", Seq: []byte("ACG")}); err != nil {
		t.Fatal(err)
	}
	fw.Flush()
	got, err := NewFastqReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0].Qual) != "III" {
		t.Errorf("qual = %s", got[0].Qual)
	}
}

func TestFastqMalformed(t *testing.T) {
	cases := []string{
		">a\nACGT\n+\nIIII\n", // FASTA header in FASTQ
		"@a\nACGT\nIIII\n",    // missing '+'
		"@a\nACGT\n+\nII\n",   // quality length mismatch
	}
	for _, in := range cases {
		if _, err := NewFastqReader(strings.NewReader(in)).Read(); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func randomDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return s
}

func BenchmarkReverseComplement(b *testing.B) {
	s := randomDNA(rand.New(rand.NewSource(7)), 1000)
	b.SetBytes(int64(len(s)))
	for i := 0; i < b.N; i++ {
		ReverseComplementInPlace(s)
	}
}
