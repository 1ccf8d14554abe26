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
// word-exact reads.
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

	opt := Options{SeedLen: 12, SeedStride: 5, MaxMismatch: 3, Threads: 4}
	for _, tc := range []struct {
		name    string
		contigs []seq.Record
		reads   []seq.Record
	}{
		{"adversarial mix", mixContigs, mixReads},
		{"N runs and word boundaries", edge, edgeReads},
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
