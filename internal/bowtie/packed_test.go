package bowtie

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
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
		checkWork(t, tc.name, gotStats, wantStats)
	}
}

// checkWork compares the packed aligner's stats with the exhaustive
// ASCII aligner's: the same reads and alignments counted, and no more
// seed probes or compared bases — the packed aligner probes only the
// seeds that can decide a read and stops verifying once it is decided.
func checkWork(t *testing.T, name string, got, want Stats) {
	t.Helper()
	if got.Reads != want.Reads || got.Aligned != want.Aligned ||
		got.SeedProbes > want.SeedProbes || got.BasesCompared > want.BasesCompared {
		t.Fatalf("%s: stats: packed %+v, ascii %+v (want equal reads and aligned, packed work <= ascii)", name, got, want)
	}
}

// TestPackedPigeonholeMatchesOracle pins the pigeonhole seed choice and
// the early exits against the exhaustive ASCII aligner over every
// mismatch budget and seed geometry the rule depends on: overlapping
// (stride < length, once with SeedLen-1 a multiple of the stride),
// abutting and gapped seeds; reads with one mismatch at every offset,
// with an N run inside their first seed, too short for MaxMismatch+1
// disjoint seeds (which probe every accepted seed), or overhanging a
// contig; a seed repeated more than 64 times; one-mismatch near-copies
// that sort before the exact contig; and reads whose reverse strand is
// exact where the forward one is not.
func TestPackedPigeonholeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	contigs := makeContigs(rng, 36, 400)
	unit := append([]byte(nil), contigs[0].Seq[100:150]...)
	for i := 1; i < len(contigs); i++ { // 70 copies of every seed in unit
		copy(contigs[i].Seq[30:], unit)
		copy(contigs[i].Seq[len(contigs[i].Seq)-80:], unit)
	}
	mutate := func(s []byte, n int) []byte {
		for ; n > 0; n-- {
			s[rng.Intn(len(s))] = "ACGT"[rng.Intn(4)]
		}
		return s
	}
	sample := func(n int) []byte {
		c := contigs[rng.Intn(len(contigs))].Seq
		start := rng.Intn(len(c) - n)
		return append([]byte(nil), c[start:start+n]...)
	}
	var reads []seq.Record
	var extra []seq.Record
	for i := 0; i < 60; i++ {
		// One substitution at offset i; its reverse complement is also a
		// contig, so the reverse strand is exact and must win.
		sweep := sample(60)
		sweep[i] = "ACGT"[(strings.IndexByte("ACGT", sweep[i])+1)%4]
		reads = append(reads, seq.Record{ID: contigID(i) + "m", Seq: sweep})
		if i%3 == 0 {
			extra = append(extra, seq.Record{ID: "d" + contigID(i), Seq: append(seq.ReverseComplement(sweep), sample(20)...)})
		}
		// A near-copy ("b…" sorts before "c…") puts a one-mismatch
		// candidate ahead of the exact one in key order.
		near := sample(90)
		reads = append(reads, seq.Record{ID: contigID(i) + "x", Seq: append([]byte(nil), near[15:75]...)})
		extra = append(extra, seq.Record{ID: "b" + contigID(i), Seq: mutate(near, 1)})
	}
	contigs = append(contigs, extra...)
	reads = append(reads, makeReads(rng, contigs, 200)...)
	for i := 0; i < 60; i++ {
		nrun := mutate(sample(60), rng.Intn(4))
		for j, end := 2, 3+rng.Intn(5); j < end; j++ {
			nrun[j] = 'N'
		}
		short := mutate(sample(10+rng.Intn(40)), rng.Intn(3))
		unitRead := mutate(append(append([]byte(nil), unit...), sample(10)...), rng.Intn(3))
		c := contigs[rng.Intn(len(contigs))].Seq
		head := append(sample(12), c[:48]...)
		tail := append(append([]byte(nil), c[len(c)-48:]...), sample(12)...)
		reads = append(reads,
			seq.Record{ID: contigID(i) + "n", Seq: nrun},
			seq.Record{ID: contigID(i) + "s", Seq: short},
			seq.Record{ID: contigID(i) + "u", Seq: seq.ReverseComplement(unitRead)},
			seq.Record{ID: contigID(i) + "h", Seq: head},
			seq.Record{ID: contigID(i) + "t", Seq: tail},
		)
	}
	var probes, oracleProbes int64
	for m := 0; m <= 3; m++ {
		for _, g := range [][2]int{{16, 8}, {10, 4}, {16, 16}, {12, 20}, {16, 5}} {
			opt := Options{SeedLen: g[0], SeedStride: g[1], MaxMismatch: m, Threads: 2}
			ix, err := NewIndex(contigs, opt)
			if err != nil {
				t.Fatal(err)
			}
			pix, err := NewPackedIndex(seq.PackRecords(contigs), opt)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("m=%d seed=%d stride=%d", m, g[0], g[1])
			want, wantStats := NewAligner(ix).AlignAll(reads)
			got, gotStats := NewPackedAligner(pix).AlignAll(seq.PackRecords(reads))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: alignments differ: %d vs %d", name, len(got), len(want))
			}
			checkWork(t, name, gotStats, wantStats)
			probes += gotStats.SeedProbes
			oracleProbes += wantStats.SeedProbes
		}
	}
	if probes >= oracleProbes {
		t.Errorf("packed aligner probed %d seeds, the exhaustive one %d: the pigeonhole choice is not in effect", probes, oracleProbes)
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
		checkWork(t, fmt.Sprintf("read %d", i), gs, ws)
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
