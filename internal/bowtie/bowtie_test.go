package bowtie

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"gotrinity/internal/pyfasta"
	"gotrinity/internal/seq"
)

func makeContigs(rng *rand.Rand, n, meanLen int) []seq.Record {
	contigs := make([]seq.Record, n)
	for i := range contigs {
		l := meanLen/2 + rng.Intn(meanLen)
		s := make([]byte, l)
		for j := range s {
			s[j] = "ACGT"[rng.Intn(4)]
		}
		contigs[i] = seq.Record{ID: contigID(i), Seq: s}
	}
	return contigs
}

func contigID(i int) string {
	return "c" + string(rune('A'+i%26)) + string(rune('0'+i/26))
}

func TestAlignExactRead(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	contigs := makeContigs(rng, 10, 500)
	ix, err := NewIndex(contigs, Options{SeedLen: 12, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	al := NewAligner(ix)
	read := seq.Record{ID: "r0", Seq: contigs[3].Seq[100:176]}
	got, ok := al.AlignRead(&read, nil)
	if !ok {
		t.Fatal("exact read did not align")
	}
	if got.Contig != 3 || got.Pos != 100 || got.Reverse || got.Mismatches != 0 {
		t.Errorf("alignment = %+v", got)
	}
	if got.ContigID != contigs[3].ID {
		t.Errorf("contig id = %s", got.ContigID)
	}
}

func TestAlignReverseComplementRead(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	contigs := makeContigs(rng, 5, 400)
	ix, _ := NewIndex(contigs, Options{SeedLen: 12})
	al := NewAligner(ix)
	rc := seq.ReverseComplement(contigs[2].Seq[50:126])
	got, ok := al.AlignRead(&seq.Record{ID: "r", Seq: rc}, nil)
	if !ok {
		t.Fatal("rc read did not align")
	}
	if got.Contig != 2 || got.Pos != 50 || !got.Reverse {
		t.Errorf("alignment = %+v", got)
	}
}

func TestAlignWithMismatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	contigs := makeContigs(rng, 4, 600)
	ix, _ := NewIndex(contigs, Options{SeedLen: 12, MaxMismatch: 3})
	al := NewAligner(ix)
	read := append([]byte(nil), contigs[1].Seq[200:276]...)
	read[10] = seq.Complement(read[10])
	read[40] = seq.Complement(read[40])
	got, ok := al.AlignRead(&seq.Record{ID: "r", Seq: read}, nil)
	if !ok {
		t.Fatal("2-mismatch read did not align")
	}
	if got.Mismatches != 2 {
		t.Errorf("mismatches = %d, want 2", got.Mismatches)
	}
}

func TestAlignRejectsOverBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	contigs := makeContigs(rng, 3, 300)
	ix, _ := NewIndex(contigs, Options{SeedLen: 12, MaxMismatch: 0})
	al := NewAligner(ix)
	read := append([]byte(nil), contigs[0].Seq[10:86]...)
	read[70] = seq.Complement(read[70]) // mismatch outside any seed window start
	if got, ok := al.AlignRead(&seq.Record{ID: "r", Seq: read}, nil); ok {
		t.Errorf("aligned %+v despite MaxMismatch=0", got)
	}
}

func TestAlignRandomReadUnmapped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	contigs := makeContigs(rng, 3, 300)
	ix, _ := NewIndex(contigs, Options{SeedLen: 16})
	al := NewAligner(ix)
	junk := make([]byte, 76)
	for i := range junk {
		junk[i] = "ACGT"[rng.Intn(4)]
	}
	var st Stats
	if _, ok := al.AlignRead(&seq.Record{ID: "junk", Seq: junk}, &st); ok {
		t.Log("random read aligned by chance; acceptable but unlikely")
	}
	if st.Reads != 1 {
		t.Errorf("stats.Reads = %d", st.Reads)
	}
}

func TestAlignShortReadSkipped(t *testing.T) {
	contigs := []seq.Record{{ID: "c", Seq: []byte("ACGTACGTACGTACGTACGT")}}
	ix, _ := NewIndex(contigs, Options{SeedLen: 16})
	al := NewAligner(ix)
	if _, ok := al.AlignRead(&seq.Record{ID: "s", Seq: []byte("ACGT")}, nil); ok {
		t.Error("aligned read shorter than MinAlignLen")
	}
}

func TestAlignAllMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	contigs := makeContigs(rng, 20, 400)
	ix, _ := NewIndex(contigs, Options{SeedLen: 12, Threads: 4})
	al := NewAligner(ix)
	var reads []seq.Record
	for i := 0; i < 200; i++ {
		c := rng.Intn(len(contigs))
		s := contigs[c].Seq
		if len(s) < 80 {
			continue
		}
		start := rng.Intn(len(s) - 76)
		reads = append(reads, seq.Record{ID: contigID(i) + "r", Seq: s[start : start+76]})
	}
	par, stats := al.AlignAll(reads)
	if int(stats.Reads) != len(reads) {
		t.Errorf("stats.Reads = %d, want %d", stats.Reads, len(reads))
	}
	if stats.Aligned != int64(len(par)) {
		t.Errorf("aligned = %d but %d records", stats.Aligned, len(par))
	}
	// Serial reference.
	var serial []Alignment
	for i := range reads {
		if a, ok := al.AlignRead(&reads[i], nil); ok {
			serial = append(serial, a)
		}
	}
	if len(par) != len(serial) {
		t.Fatalf("parallel %d vs serial %d alignments", len(par), len(serial))
	}
	for i := range par {
		if par[i] != serial[i] {
			t.Fatalf("alignment %d differs: %+v vs %+v", i, par[i], serial[i])
		}
	}
	if stats.BasesCompared == 0 || stats.SeedProbes == 0 {
		t.Error("work not metered")
	}
}

// Distributed mode on the production (packed) path: aligning against
// PyFasta-split partitions, merging and reducing to one alignment per
// read must reproduce the monolithic index's alignments field for
// field. Duplicated contig sequences under different IDs make
// equal-mismatch ties, which only the global contig-name order breaks
// the same way on both sides.
func TestPartitionedAlignmentEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	contigs := makeContigs(rng, 30, 400)
	// Copies get names that sort before, between and after the originals
	// and sit at the far end of the index, so name order and index order
	// disagree and the copies land in other partitions than their twins.
	for i, name := range []string{"a0", "cM5", "z9", "cA00"} {
		contigs = append(contigs, seq.Record{ID: name, Seq: contigs[7*i].Seq})
	}
	opt := Options{SeedLen: 12, MaxMismatch: 2, Threads: 2}
	var reads []seq.Record
	for i := 0; i < 300; i++ {
		s := contigs[rng.Intn(len(contigs))].Seq
		start := rng.Intn(len(s) - 60)
		r := append([]byte(nil), s[start:start+60]...)
		for m := rng.Intn(3); m > 0; m-- {
			r[rng.Intn(len(r))] = "ACGT"[rng.Intn(4)]
		}
		if rng.Intn(2) == 0 {
			r = seq.ReverseComplement(r)
		}
		reads = append(reads, seq.Record{ID: contigID(i) + "x", Seq: r})
	}
	preads := seq.PackRecords(reads)
	align := func(part []seq.Record) []Alignment {
		ix, err := NewPackedIndex(seq.PackRecords(part), opt)
		if err != nil {
			t.Fatal(err)
		}
		als, _ := NewPackedAligner(ix).AlignAll(preads)
		return als
	}
	full := align(contigs)

	parts, _, err := pyfasta.Split(contigs, 4, pyfasta.EvenBases)
	if err != nil {
		t.Fatal(err)
	}
	var nodeResults [][]Alignment
	for _, part := range parts {
		nodeResults = append(nodeResults, align(part))
	}
	merged := BestPerRead(MergeSAM(nodeResults))

	// BestPerRead orders reads by first appearance in the merged set;
	// compare per read.
	byRead := map[string]Alignment{}
	for _, a := range merged {
		byRead[a.ReadID] = a
	}
	if len(merged) != len(full) {
		t.Fatalf("partitioned run aligned %d reads, monolithic %d", len(merged), len(full))
	}
	ties := 0
	for _, want := range full {
		got, ok := byRead[want.ReadID]
		if !ok {
			t.Fatalf("read %s aligned monolithically but not in any partition", want.ReadID)
		}
		if got.ContigID != want.ContigID || got.Pos != want.Pos || got.Reverse != want.Reverse || got.Mismatches != want.Mismatches {
			t.Errorf("read %s: partitioned %+v, monolithic %+v", want.ReadID, got, want)
		}
		if want.ContigID == "a0" || want.ContigID == "cA00" {
			ties++
		}
	}
	if ties == 0 {
		t.Error("no read was won by a duplicated contig: the tie-break was not exercised")
	}
}

func TestWriteSAMRecords(t *testing.T) {
	var buf bytes.Buffer
	refs := []SAMHeaderEntry{{Name: "c1", Length: 100}, {Name: "c2", Length: 200}}
	als := []Alignment{
		{ReadID: "r2", ReadLen: 50, ContigID: "c2", Pos: 10, Mismatches: 1},
		{ReadID: "r1", ReadLen: 50, ContigID: "c1", Pos: 5, Reverse: true},
	}
	if err := WriteSAMRecords(&buf, refs, als); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "@HD") || !strings.HasPrefix(lines[1], "@SQ\tSN:c1") {
		t.Errorf("bad header:\n%s", out)
	}
	// Sorted by contig then pos: r1 (c1) before r2 (c2).
	if !strings.HasPrefix(lines[3], "r1\t16\tc1\t6") {
		t.Errorf("line 3 = %q", lines[3])
	}
	if !strings.Contains(lines[4], "NM:i:1") {
		t.Errorf("line 4 = %q", lines[4])
	}
}

func TestIndexRejectsHugeSeed(t *testing.T) {
	if _, err := NewIndex(nil, Options{SeedLen: 40}); err == nil {
		t.Error("accepted seed > MaxK")
	}
}

func BenchmarkAlignAll(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	contigs := makeContigs(rng, 50, 500)
	ix, _ := NewIndex(contigs, Options{SeedLen: 14, Threads: 4})
	al := NewAligner(ix)
	var reads []seq.Record
	for i := 0; i < 500; i++ {
		c := rng.Intn(len(contigs))
		s := contigs[c].Seq
		start := rng.Intn(len(s) - 76)
		reads = append(reads, seq.Record{ID: "r", Seq: s[start : start+76]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.AlignAll(reads)
	}
}
