package seq

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// randSeq draws a sequence over ACGTN with the given N probability (in
// percent), exercising word boundaries via the caller's length choice.
func randSeq(rng *rand.Rand, n, nPct int) []byte {
	s := make([]byte, n)
	for i := range s {
		if rng.Intn(100) < nPct {
			s[i] = 'N'
		} else {
			s[i] = "ACGT"[rng.Intn(4)]
		}
	}
	return s
}

// asciiMismatch is the byte-wise reference for MismatchRange: count
// differing positions with the alignment loop's early exit, returning
// the mismatch count and the number of loop iterations.
func asciiMismatch(a, b []byte, budget int) (mm, examined int) {
	off := 0
	for ; off < len(a) && mm < budget; off++ {
		if a[off] != b[off] {
			mm++
		}
	}
	return mm, off
}

var packLengths = []int{0, 1, 2, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 1000}

func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range packLengths {
		for _, nPct := range []int{0, 3, 30} {
			s := randSeq(rng, n, nPct)
			p := Pack(s)
			if p.Len() != n {
				t.Fatalf("len(%d,N%d%%): got %d", n, nPct, p.Len())
			}
			if got := p.Decode(); !bytes.Equal(got, s) {
				t.Fatalf("roundtrip(%d,N%d%%):\n got %q\nwant %q", n, nPct, got, s)
			}
			for i := 0; i < n; i++ {
				if got := p.Base(i); got != s[i] {
					t.Fatalf("Base(%d) = %c, want %c", i, got, s[i])
				}
				if p.IsN(i) != (s[i] == 'N') {
					t.Fatalf("IsN(%d) = %v for %c", i, p.IsN(i), s[i])
				}
			}
		}
	}
}

func TestPackedLowercaseAndAmbiguous(t *testing.T) {
	// Pack must mirror Upper: lower-case maps up, anything else is N.
	in := []byte("acgtACGTnXY-tz")
	want := Upper(append([]byte(nil), in...))
	if got := Pack(in).Decode(); !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestPackedNRunEdgeCases(t *testing.T) {
	cases := []string{
		"NACGT",            // leading N
		"ACGTN",            // trailing N
		"NNNNN",            // all N
		"NNNNNNNNNNNNNNNN", // all N, longer
		"N",                // single N
		"ANNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNA", // run spanning words
		strings.Repeat("N", 32),              // exactly one word of N
		strings.Repeat("N", 33),              // word boundary +1
		"ACGTNNACGTNNACGT",                   // multiple runs
		strings.Repeat("AN", 40),             // alternating
		"NNNN" + strings.Repeat("ACGT", 20),  // leading run then solid
		strings.Repeat("ACGT", 20) + "NNNNN", // solid then trailing run
	}
	for _, s := range cases {
		p := Pack([]byte(s))
		if got := string(p.Decode()); got != s {
			t.Fatalf("decode %q: got %q", s, got)
		}
		// Canonical invariants: N slots store code 0, padding is zero.
		for i := 0; i < p.Len(); i++ {
			if p.IsN(i) && p.CodeAt(i) != 0 {
				t.Fatalf("%q: N slot %d stores code %d", s, i, p.CodeAt(i))
			}
		}
		if top := uint(p.Len() & 31); top != 0 && p.NumWords() > 0 {
			if pad := p.Word(p.NumWords()-1) &^ ((uint64(1) << (top * 2)) - 1); pad != 0 {
				t.Fatalf("%q: nonzero padding %x", s, pad)
			}
		}
		// RC must match the ASCII reference (complement of N is N).
		want := ReverseComplement([]byte(s))
		rc := p.ReverseComplement()
		if got := string(rc.Decode()); got != string(want) {
			t.Fatalf("RC %q: got %q want %q", s, got, want)
		}
		// Wire roundtrip.
		enc := p.Encode()
		back, used, err := DecodePacked(enc)
		if err != nil || used != len(enc) {
			t.Fatalf("decode wire %q: used %d/%d err %v", s, used, len(enc), err)
		}
		if !back.Equal(p) || !bytes.Equal(back.Encode(), enc) {
			t.Fatalf("wire roundtrip %q not canonical", s)
		}
	}
}

func TestPackedReverseComplementDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range packLengths {
		for _, nPct := range []int{0, 5} {
			s := randSeq(rng, n, nPct)
			want := ReverseComplement(s)
			p := Pack(s)
			p.ReverseComplementInPlace()
			if got := p.Decode(); !bytes.Equal(got, want) {
				t.Fatalf("RC(%d,N%d%%):\n got %q\nwant %q", n, nPct, got, want)
			}
			// Double RC is the identity.
			p.ReverseComplementInPlace()
			if got := p.Decode(); !bytes.Equal(got, s) {
				t.Fatalf("RC²(%d,N%d%%) != id", n, nPct)
			}
		}
	}
}

func TestPackedSliceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randSeq(rng, 300, 4)
	p := Pack(s)
	for trial := 0; trial < 500; trial++ {
		i := rng.Intn(len(s) + 1)
		j := i + rng.Intn(len(s)-i+1)
		sub := p.Slice(i, j)
		if got := sub.Decode(); !bytes.Equal(got, s[i:j]) {
			t.Fatalf("slice[%d:%d]:\n got %q\nwant %q", i, j, got, s[i:j])
		}
	}
	// SliceInto reuses storage.
	var scratch Packed
	p.SliceInto(&scratch, 10, 200)
	p.SliceInto(&scratch, 5, 37)
	if got := scratch.Decode(); !bytes.Equal(got, s[5:37]) {
		t.Fatalf("SliceInto reuse: got %q want %q", got, s[5:37])
	}
}

func TestPackedCompareDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var pool [][]byte
	for trial := 0; trial < 120; trial++ {
		pool = append(pool, randSeq(rng, rng.Intn(70), 10))
	}
	// Targeted prefix/N cases on top of the random pool.
	pool = append(pool,
		[]byte("ACGT"), []byte("ACG"), []byte("ACGTA"), []byte("ACGN"),
		[]byte("ACGA"), []byte("ACGC"), []byte("ACGG"), []byte("ACGTT"),
		[]byte("N"), []byte("A"), []byte("T"), []byte(""), []byte("NA"), []byte("AN"))
	for _, a := range pool {
		for _, b := range pool {
			want := bytes.Compare(a, b)
			if got := Pack(a).Compare(Pack(b)); got != want {
				t.Fatalf("Compare(%q,%q) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestPackedEqualRangeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSeq(rng, 200, 6)
	// b shares long stretches with a so equal ranges actually occur.
	b := append([]byte(nil), a...)
	for i := 0; i < 20; i++ {
		b[rng.Intn(len(b))] = "ACGTN"[rng.Intn(5)]
	}
	pa, pb := Pack(a), Pack(b)
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(80)
		i := rng.Intn(len(a) - n + 1)
		j := rng.Intn(len(b) - n + 1)
		want := bytes.Equal(a[i:i+n], b[j:j+n])
		if got := pa.EqualRange(i, pb, j, n); got != want {
			t.Fatalf("EqualRange(%d,%d,%d) = %v, want %v\n a=%q\n b=%q",
				i, j, n, got, want, a[i:i+n], b[j:j+n])
		}
	}
}

func TestPackedMismatchRangeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randSeq(rng, 160, 5)
	b := append([]byte(nil), a...)
	for i := 0; i < 25; i++ {
		b[rng.Intn(len(b))] = "ACGTN"[rng.Intn(5)]
	}
	pa, pb := Pack(a), Pack(b)
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(90)
		i := rng.Intn(len(a) - n + 1)
		j := rng.Intn(len(b) - n + 1)
		budget := rng.Intn(6) + 1
		wantMM, wantEx := asciiMismatch(a[i:i+n], b[j:j+n], budget)
		gotMM, gotEx := pa.MismatchRange(i, pb, j, n, budget)
		if gotMM != wantMM || gotEx != wantEx {
			t.Fatalf("MismatchRange(i=%d,j=%d,n=%d,budget=%d) = (%d,%d), want (%d,%d)\n a=%q\n b=%q",
				i, j, n, budget, gotMM, gotEx, wantMM, wantEx, a[i:i+n], b[j:j+n])
		}
	}
}

func TestPackedWireRejectsTruncation(t *testing.T) {
	p := Pack([]byte("ACGTNACGTACGTACGTACGTACGTACGTACGTACGT"))
	enc := p.Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodePacked(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(enc))
		}
	}
}

func TestPackRecords(t *testing.T) {
	recs := []Record{
		{ID: "r1", Desc: "first", Seq: []byte("ACGTN")},
		{ID: "r2", Seq: []byte("TTTT"), Qual: []byte("IIII")},
	}
	pr := PackRecords(recs)
	if len(pr) != 2 || pr[0].ID != "r1" || pr[0].Desc != "first" || pr[1].ID != "r2" {
		t.Fatalf("PackRecords metadata: %+v", pr)
	}
	for i := range pr {
		if got := pr[i].Seq.Decode(); !bytes.Equal(got, recs[i].Seq) {
			t.Fatalf("record %d: got %q want %q", i, got, recs[i].Seq)
		}
	}
}

func TestPackedMemBytes(t *testing.T) {
	// The headline claim: packed resident bytes are ~4x below ASCII
	// for solid sequences (plus sidecar for N runs).
	s := bytes.Repeat([]byte("ACGT"), 256) // 1024 bases
	p := Pack(s)
	if got, limit := p.MemBytes(), len(s)/2; got > limit {
		t.Fatalf("MemBytes %d > %d for %d ASCII bytes", got, limit, len(s))
	}
}

func FuzzPackedRoundTrip(f *testing.F) {
	f.Add([]byte("ACGTNACGT"), uint8(2), uint8(5))
	f.Add([]byte(""), uint8(0), uint8(0))
	f.Add([]byte("NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN"), uint8(3), uint8(7))
	f.Add(bytes.Repeat([]byte("ACGTNT"), 30), uint8(17), uint8(40))
	f.Fuzz(func(t *testing.T, raw []byte, a, b uint8) {
		// Normalize exactly as ingest would; the packed path must then
		// agree with every ASCII reference operation.
		s := Upper(append([]byte(nil), raw...))
		p := Pack(s)
		if !bytes.Equal(p.Decode(), s) {
			t.Fatalf("decode mismatch")
		}
		// Slice: derive a valid window from the fuzzed offsets.
		if len(s) > 0 {
			i := int(a) % len(s)
			j := i + int(b)%(len(s)-i+1)
			sub := p.Slice(i, j)
			if !bytes.Equal(sub.Decode(), s[i:j]) {
				t.Fatalf("slice[%d:%d] mismatch", i, j)
			}
			rc := sub.ReverseComplement()
			if !bytes.Equal(rc.Decode(), ReverseComplement(s[i:j])) {
				t.Fatalf("RC slice mismatch")
			}
		}
		// RC round trip.
		rc := p.ReverseComplement()
		if !bytes.Equal(rc.Decode(), ReverseComplement(s)) {
			t.Fatalf("RC mismatch")
		}
		// Wire round trip stays canonical.
		enc := p.Encode()
		back, used, err := DecodePacked(enc)
		if err != nil || used != len(enc) || !back.Equal(p) {
			t.Fatalf("wire roundtrip: used %d/%d err %v", used, len(enc), err)
		}
		if !bytes.Equal(back.Encode(), enc) {
			t.Fatalf("re-encode not canonical")
		}
		// Compare is consistent with bytes.Compare against the RC.
		if want, got := bytes.Compare(s, ReverseComplement(s)), p.Compare(rc); want != got {
			t.Fatalf("Compare = %d, want %d", got, want)
		}
	})
}

// PackRecords cuts every record's words from one array; each view is
// cap-limited, so repacking or appending to one record leaves its
// neighbours' bases alone.
func TestPackRecordsArena(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var recs []Record
	for _, n := range packLengths {
		recs = append(recs, Record{ID: "r", Seq: randSeq(rng, n, 3)})
	}
	packed := PackRecords(recs)
	check := func(when string, skip int) {
		t.Helper()
		for i := range packed {
			if i != skip && !bytes.Equal(packed[i].Seq.Decode(), recs[i].Seq) {
				t.Fatalf("%s: record %d (%d bases) decodes to %q, want %q", when, i, len(recs[i].Seq), packed[i].Seq.Decode(), recs[i].Seq)
			}
		}
	}
	check("packed", -1)
	for i := range packed {
		repl := randSeq(rng, len(recs[i].Seq), 30)
		PackInto(&packed[i].Seq, repl)
		check("after PackInto on a neighbour", i)
		recs[i].Seq = append(repl, 'T') // one base longer
		PackInto(&packed[i].Seq, recs[i].Seq)
		packed[i].Seq.words = append(packed[i].Seq.words, ^uint64(0))
		check("after a longer PackInto and an append", -1)
	}
}

// Packing N-free reads allocates the record array and the word array,
// however many reads there are.
func TestPackRecordsAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 10, 1000} {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{ID: "r", Seq: randSeq(rng, 40+rng.Intn(100), 0)}
		}
		if got := testing.AllocsPerRun(10, func() { PackRecords(recs) }); got != 2 {
			t.Errorf("PackRecords of %d N-free reads allocates %v times, want 2", n, got)
		}
	}
}
