package bowtie

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gotrinity/internal/seq"
)

func TestReadSAMSkipsHeadersAndUnmapped(t *testing.T) {
	in := strings.Join([]string{
		"@HD\tVN:1.6",
		"@SQ\tSN:c1\tLN:100",
		"r1\t0\tc1\t11\t42\t50M\t*\t0\t0\t*\t*\tNM:i:2",
		"r2\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*", // unmapped
		"r3\t16\tc1\t1\t42\t30M\t*\t0\t0\t*\t*\tNM:i:0",
		"",
	}, "\n")
	als, err := ReadSAM(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(als) != 2 {
		t.Fatalf("alignments = %d", len(als))
	}
	a := als[0]
	if a.ReadID != "r1" || a.ContigID != "c1" || a.Pos != 10 || a.Reverse ||
		a.Mismatches != 2 || a.ReadLen != 50 {
		t.Errorf("record 0 = %+v", a)
	}
	if !als[1].Reverse || als[1].Pos != 0 {
		t.Errorf("record 1 = %+v", als[1])
	}
}

func TestReadSAMMalformed(t *testing.T) {
	cases := []string{
		"r1\t0\tc1\n",                             // too few fields
		"r1\tx\tc1\t1\t0\t5M\t*\t0\t0\t*\t*\n",    // bad flag
		"r1\t0\tc1\tzero\t0\t5M\t*\t0\t0\t*\t*\n", // bad pos
		"r1\t0\tc1\t0\t0\t5M\t*\t0\t0\t*\t*\n",    // pos < 1
	}
	for _, in := range cases {
		if _, err := ReadSAM(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

// ReadSAMFor resolves RNAMEs against the contig set and rejects, with
// the line and contig named, a record the set cannot hold.
func TestReadSAMForResolvesAndRejects(t *testing.T) {
	contigs := []seq.Record{
		{ID: "c0", Seq: []byte(strings.Repeat("A", 40))},
		{ID: "c1", Seq: []byte(strings.Repeat("C", 100))},
	}
	ok := "@SQ\tSN:c1\tLN:100\nr1\t0\tc1\t51\t42\t50M\t*\t0\t0\t*\t*\tNM:i:0\n"
	als, err := ReadSAMFor(strings.NewReader(ok), contigs)
	if err != nil {
		t.Fatal(err)
	}
	if len(als) != 1 || als[0].Contig != 1 {
		t.Fatalf("resolved %+v, want contig index 1", als)
	}
	for _, tc := range []struct {
		name, rec string
		contigLen int
	}{
		{"unknown RNAME", "r2\t0\tc9\t1\t42\t50M\t*\t0\t0\t*\t*", -1},
		{"span past the end", "r2\t0\tc1\t52\t42\t50M\t*\t0\t0\t*\t*", 100},
		{"start past the end", "r2\t0\tc0\t41\t42\t*\t*\t0\t0\t*\t*", 40},
	} {
		_, err := ReadSAMFor(strings.NewReader(ok+tc.rec+"\n"), contigs)
		var re *SAMRefError
		if !errors.As(err, &re) {
			t.Fatalf("%s: error %v, want *SAMRefError", tc.name, err)
		}
		if re.Line != 3 || re.ReadID != "r2" || re.ContigLen != tc.contigLen {
			t.Errorf("%s: %+v", tc.name, re)
		}
		if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), re.ContigID) {
			t.Errorf("%s: message %q does not name the line and contig", tc.name, err)
		}
	}
}

func TestBestPerReadOrderingAndTies(t *testing.T) {
	als := []Alignment{
		{ReadID: "a", ContigID: "c9", Mismatches: 2},
		{ReadID: "a", ContigID: "c1", Mismatches: 1}, // fewer mismatches wins
		{ReadID: "b", ContigID: "c2", Mismatches: 1, Reverse: true},
		{ReadID: "b", ContigID: "c3", Mismatches: 1}, // forward beats reverse on ties
		{ReadID: "c", ContigID: "c5", Mismatches: 0, Pos: 9},
		{ReadID: "c", ContigID: "c5", Mismatches: 0, Pos: 2}, // smaller pos on full tie
	}
	best := BestPerRead(als)
	if len(best) != 3 {
		t.Fatalf("best = %d", len(best))
	}
	if best[0].ContigID != "c1" {
		t.Errorf("read a best = %+v", best[0])
	}
	if best[1].ContigID != "c3" || best[1].Reverse {
		t.Errorf("read b best = %+v", best[1])
	}
	if best[2].Pos != 2 {
		t.Errorf("read c best = %+v", best[2])
	}
	// First-seen order of reads is preserved.
	if best[0].ReadID != "a" || best[1].ReadID != "b" || best[2].ReadID != "c" {
		t.Error("read order not preserved")
	}
}

func TestBestPerReadEmpty(t *testing.T) {
	if got := BestPerRead(nil); len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

// bestPerReadMap is the earlier BestPerRead, which kept whole winning
// alignments in a map plus a first-seen order list; the reference the
// slot-indexed reduction is compared against.
func bestPerReadMap(als []Alignment) []Alignment {
	better := func(a, b Alignment) bool {
		if a.Mismatches != b.Mismatches {
			return a.Mismatches < b.Mismatches
		}
		if a.Reverse != b.Reverse {
			return !a.Reverse
		}
		if a.ContigID != b.ContigID {
			return a.ContigID < b.ContigID
		}
		return a.Pos < b.Pos
	}
	best := map[string]Alignment{}
	var order []string
	for _, a := range als {
		cur, ok := best[a.ReadID]
		if !ok {
			best[a.ReadID] = a
			order = append(order, a.ReadID)
			continue
		}
		if better(a, cur) {
			best[a.ReadID] = a
		}
	}
	out := make([]Alignment, 0, len(order))
	for _, id := range order {
		out = append(out, best[id])
	}
	return out
}

// TestBestPerReadMatchesMapReference merges partitions whose read IDs
// repeat across and within partitions, with every tie-break field
// drawn from a few values so full ties occur, and requires the map
// reference's output exactly.
func TestBestPerReadMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		parts := make([][]Alignment, 1+rng.Intn(5))
		for p := range parts {
			for i := rng.Intn(60); i > 0; i-- {
				parts[p] = append(parts[p], Alignment{
					ReadID:     contigID(rng.Intn(40)),
					ReadLen:    60 + rng.Intn(3),
					Contig:     rng.Intn(8),
					ContigID:   contigID(rng.Intn(4)),
					Pos:        rng.Intn(3),
					Reverse:    rng.Intn(2) == 0,
					Mismatches: rng.Intn(3),
				})
			}
		}
		merged := MergeSAM(parts)
		if got, want := BestPerRead(merged), bestPerReadMap(merged); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: BestPerRead\n%+v\nwant\n%+v", trial, got, want)
		}
	}
}

func TestAlignAllEmptyReads(t *testing.T) {
	contigs := []seq.Record{{ID: "c", Seq: []byte("ACGTACGTACGTACGTACGT")}}
	ix, err := NewIndex(contigs, Options{SeedLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	als, st := NewAligner(ix).AlignAll(nil)
	if len(als) != 0 || st.Reads != 0 {
		t.Errorf("als=%d stats=%+v", len(als), st)
	}
	pix, err := NewPackedIndex(seq.PackRecords(contigs), Options{SeedLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	pals, pst := NewPackedAligner(pix).AlignAll(nil)
	if !reflect.DeepEqual(pals, als) || pst.Reads != 0 || pst.Aligned != 0 || pst.SeedProbes != 0 || pst.BasesCompared != 0 {
		t.Errorf("packed: als=%v stats=%+v", pals, pst)
	}
	// No contigs at all: an empty seed table must still answer lookups.
	pix, err = NewPackedIndex(nil, Options{SeedLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	pals, pst = NewPackedAligner(pix).AlignAll(seq.PackRecords(contigs))
	if pals != nil || pst.Reads != 1 || pst.Aligned != 0 || pix.MemoryFootprint() != 0 {
		t.Errorf("empty index: als=%v stats=%+v footprint=%d", pals, pst, pix.MemoryFootprint())
	}
}
