package bowtie

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"gotrinity/internal/seq"
)

// makeReads samples reads from the contigs: exact, mutated, reverse
// complemented, N-poisoned, and some pure noise.
func makeReads(rng *rand.Rand, contigs []seq.Record, n int) []seq.Record {
	reads := make([]seq.Record, n)
	for i := range reads {
		var s []byte
		if rng.Intn(10) == 0 {
			s = make([]byte, 60)
			for j := range s {
				s[j] = "ACGT"[rng.Intn(4)]
			}
		} else {
			c := contigs[rng.Intn(len(contigs))].Seq
			start := rng.Intn(len(c) - 60)
			s = append([]byte(nil), c[start:start+60]...)
			for m := rng.Intn(4); m > 0; m-- {
				s[rng.Intn(len(s))] = "ACGT"[rng.Intn(4)]
			}
			if rng.Intn(6) == 0 {
				s[rng.Intn(len(s))] = 'N'
			}
			if rng.Intn(2) == 0 {
				s = seq.ReverseComplement(s)
			}
		}
		reads[i] = seq.Record{ID: contigID(i) + "r", Seq: s}
	}
	return reads
}

// TestPackedAlignerMatchesASCII is the acceptance pin: the packed
// aligner must report the identical alignments and work-unit stats as
// the ASCII aligner over an adversarial read mix, and over contigs with
// N runs and word-aligned lengths (len%32 == 0) probed by all-N and
// word-exact reads, and over reads that overhang a contig start or end
// (negative and past-the-end diagonals, contigs shorter than the read)
// with a seed that occurs more than 64 times in the targets.
func TestPackedAlignerMatchesASCII(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mixContigs := makeContigs(rng, 12, 500)
	mixReads := makeReads(rng, mixContigs, 400)

	rng = rand.New(rand.NewSource(31))
	edge := makeContigs(rng, 10, 400)
	edge[1].Seq = edge[1].Seq[:len(edge[1].Seq)/32*32]
	edge[2].Seq = edge[2].Seq[:256]
	for j := 40; j < 56; j++ {
		edge[3].Seq[j] = 'N'
	}
	for j := 0; j < 8; j++ {
		edge[4].Seq[j] = 'N' // leading N run
	}
	edgeReads := append(makeReads(rng, edge, 300),
		seq.Record{ID: "allN", Seq: bytes.Repeat([]byte{'N'}, 60)},
		seq.Record{ID: "allN32", Seq: bytes.Repeat([]byte{'N'}, 64)},
		seq.Record{ID: "wordExact", Seq: append([]byte(nil), edge[2].Seq[0:64]...)},
	)

	rng = rand.New(rand.NewSource(53))
	rep := makeContigs(rng, 40, 300)
	unit := rep[0].Seq[100:140]
	for i := 1; i < len(rep); i++ { // 2 copies x 39 contigs of every seed in unit
		copy(rep[i].Seq[20:], unit)
		copy(rep[i].Seq[len(rep[i].Seq)-60:], unit)
	}
	rep = append(rep, seq.Record{ID: "tandem", Seq: bytes.Repeat([]byte("ACGGT"), 40)})
	repReads := makeReads(rng, rep, 200)
	rep = append(rep, seq.Record{ID: "short", Seq: append([]byte(nil), rep[5].Seq[10:55]...)})
	noise := func(n int) []byte { return makeContigs(rng, 1, 2*n)[0].Seq[:n] }
	for i := 0; i < 60; i++ {
		c := rep[i%len(rep)].Seq
		head, tail := c[:45], c[len(c)-45:]
		repReads = append(repReads,
			seq.Record{ID: contigID(i) + "pre", Seq: append(noise(15), head...)},
			seq.Record{ID: contigID(i) + "post", Seq: append(append([]byte(nil), tail...), noise(15)...)},
			seq.Record{ID: contigID(i) + "postrc", Seq: seq.ReverseComplement(append(append([]byte(nil), tail...), noise(15)...))},
		)
	}

	opt := Options{SeedLen: 12, SeedStride: 5, MaxMismatch: 3, Threads: 4}
	for _, tc := range []struct {
		name    string
		contigs []seq.Record
		reads   []seq.Record
	}{
		{"adversarial mix", mixContigs, mixReads},
		{"N runs and word boundaries", edge, edgeReads},
		{"overhangs and a repeated seed", rep, repReads},
	} {
		ix, err := NewIndex(tc.contigs, opt)
		if err != nil {
			t.Fatal(err)
		}
		pix, err := NewPackedIndex(seq.PackRecords(tc.contigs), opt)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Bases != pix.Bases {
			t.Fatalf("%s: indexed bases %d vs %d", tc.name, pix.Bases, ix.Bases)
		}
		if ix.MemoryFootprint() != pix.MemoryFootprint() {
			t.Fatalf("%s: seed table footprint %d vs %d", tc.name, pix.MemoryFootprint(), ix.MemoryFootprint())
		}

		want, wantStats := NewAligner(ix).AlignAll(tc.reads)
		got, gotStats := NewPackedAligner(pix).AlignAll(seq.PackRecords(tc.reads))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: alignments differ: %d vs %d", tc.name, len(got), len(want))
		}
		if gotStats.Reads != wantStats.Reads || gotStats.Aligned != wantStats.Aligned ||
			gotStats.SeedProbes != wantStats.SeedProbes || gotStats.BasesCompared != wantStats.BasesCompared {
			t.Fatalf("%s: stats differ: packed %+v ascii %+v", tc.name, gotStats, wantStats)
		}
	}
}

// TestPackedAlignerPerRead pins AlignRead pairwise, including the
// per-read stats deltas.
func TestPackedAlignerPerRead(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	contigs := makeContigs(rng, 6, 300)
	reads := makeReads(rng, contigs, 200)
	opt := Options{SeedLen: 10, SeedStride: 4, MaxMismatch: 2}
	ix, _ := NewIndex(contigs, opt)
	pix, _ := NewPackedIndex(seq.PackRecords(contigs), opt)
	al, pal := NewAligner(ix), NewPackedAligner(pix)
	for i := range reads {
		var ws, gs Stats
		want, wok := al.AlignRead(&reads[i], &ws)
		prec := seq.PackedRecord{ID: reads[i].ID, Seq: seq.Pack(reads[i].Seq)}
		got, gok := pal.AlignRead(&prec, &gs)
		if wok != gok || want != got {
			t.Fatalf("read %d: packed (%+v,%v) vs ascii (%+v,%v)", i, got, gok, want, wok)
		}
		if ws != gs {
			t.Fatalf("read %d: stats %+v vs %+v", i, gs, ws)
		}
	}
}

// TestPackedAlignReadZeroAlloc pins the warm per-read path — seed
// lookup, candidate gather and sort, reverse complement, verification —
// at zero allocations once a worker's scratch has grown.
func TestPackedAlignReadZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(9))
	contigs := makeContigs(rng, 12, 500)
	reads := seq.PackRecords(makeReads(rng, contigs, 200))
	pix, err := NewPackedIndex(seq.PackRecords(contigs), Options{SeedLen: 12, SeedStride: 5, MaxMismatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	al := NewPackedAligner(pix)
	sc := new(alignScratch)
	var st Stats
	sweep := func() {
		for i := range reads {
			al.alignRead(&reads[i], &st, sc)
		}
	}
	sweep() // warm up: grows the scratch to steady state
	if avg := testing.AllocsPerRun(20, sweep); avg > 0 {
		t.Errorf("alignRead allocates %.1f per %d-read sweep; want 0", avg, len(reads))
	}
	if st.Aligned == 0 {
		t.Error("no read aligned: the pin measured nothing")
	}
}

// TestPackedEqualIDsOrderedByIndex pins the total candidate order:
// among contigs that share an ID (and here a sequence, so every
// placement ties), the one with the lowest index wins every time.
func TestPackedEqualIDsOrderedByIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := makeContigs(rng, 1, 300)[0].Seq
	contigs := []seq.Record{{ID: "x", Seq: makeContigs(rng, 1, 300)[0].Seq}}
	for i := 0; i < 5; i++ {
		contigs = append(contigs, seq.Record{ID: "dup", Seq: s})
	}
	var reads []seq.Record
	for i := 0; i+60 <= len(s); i += 7 {
		reads = append(reads, seq.Record{ID: contigID(i), Seq: s[i : i+60]})
	}
	pix, err := NewPackedIndex(seq.PackRecords(contigs), Options{SeedLen: 12, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	als, _ := NewPackedAligner(pix).AlignAll(seq.PackRecords(reads))
	if len(als) != len(reads) {
		t.Fatalf("aligned %d of %d reads", len(als), len(reads))
	}
	for _, a := range als {
		if a.Contig != 1 {
			t.Errorf("read %s won by contig %d, want 1 (the first of the equal IDs)", a.ReadID, a.Contig)
		}
	}
}
