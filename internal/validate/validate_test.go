package validate

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gotrinity/internal/kmer"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
	"gotrinity/internal/sw"
)

func randDNA(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return s
}

func TestCompareIdenticalSets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var set []seq.Record
	for i := 0; i < 5; i++ {
		set = append(set, seq.Record{ID: "t", Seq: randDNA(rng, 200)})
	}
	c := CompareTranscriptSets(set, set, sw.DefaultScoring())
	if c.FullIdentical != 5 || c.Total() != 5 {
		t.Errorf("identical sets: %+v", c)
	}
}

func TestCompareMutatedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b []seq.Record
	for i := 0; i < 4; i++ {
		s := randDNA(rng, 300)
		a = append(a, seq.Record{ID: "a", Seq: s})
		m := append([]byte(nil), s...)
		m[150] = seq.Complement(m[150]) // one substitution
		b = append(b, seq.Record{ID: "b", Seq: m})
	}
	c := CompareTranscriptSets(a, b, sw.DefaultScoring())
	if c.FullNonIdentical != 4 {
		t.Errorf("mutated sets: %+v", c)
	}
}

func TestComparePartialAndUnmatched(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shared := randDNA(rng, 150)
	long := append(append(randDNA(rng, 150), shared...), randDNA(rng, 150)...)
	query := []seq.Record{
		{ID: "partial", Seq: long},
		{ID: "alien", Seq: randDNA(rng, 120)},
	}
	subject := []seq.Record{{ID: "s", Seq: shared}}
	c := CompareTranscriptSets(query, subject, sw.DefaultScoring())
	if c.Partial != 1 {
		t.Errorf("partial = %d (%+v)", c.Partial, c)
	}
	if c.Unmatched != 1 {
		t.Errorf("unmatched = %d (%+v)", c.Unmatched, c)
	}
	if len(c.PartialIdentities) != 1 || c.PartialIdentities[0] < 0.9 {
		t.Errorf("partial identities = %v", c.PartialIdentities)
	}
}

func TestCompareReverseComplementCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randDNA(rng, 250)
	q := []seq.Record{{ID: "q", Seq: seq.ReverseComplement(s)}}
	sub := []seq.Record{{ID: "s", Seq: s}}
	c := CompareTranscriptSets(q, sub, sw.DefaultScoring())
	if c.FullIdentical != 1 {
		t.Errorf("rc transcript not matched: %+v", c)
	}
}

func refSet(rng *rand.Rand) []rnaseq.Transcript {
	var ref []rnaseq.Transcript
	for g := 0; g < 4; g++ {
		for iso := 0; iso < 2; iso++ {
			ref = append(ref, rnaseq.Transcript{
				Gene: g, Isoform: iso,
				ID:  "ref",
				Seq: randDNA(rng, 200+50*iso),
			})
		}
	}
	return ref
}

func TestFullLengthReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := refSet(rng)
	// Reconstruct gene 0 fully (both isoforms), gene 1 partially (60%),
	// gene 2 one isoform, gene 3 not at all.
	transcripts := []seq.Record{
		{ID: "t0", Seq: ref[0].Seq},
		{ID: "t1", Seq: ref[1].Seq},
		{ID: "t2", Seq: ref[2].Seq[:120]},
		{ID: "t3", Seq: ref[4].Seq},
	}
	c := FullLengthReconstruction(transcripts, ref, 0.9, 0.95)
	if c.Genes != 2 {
		t.Errorf("genes = %d, want 2", c.Genes)
	}
	if c.Isoforms != 3 {
		t.Errorf("isoforms = %d, want 3", c.Isoforms)
	}
}

func TestFullLengthAllowsContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := []rnaseq.Transcript{{Gene: 0, ID: "r", Seq: randDNA(rng, 200)}}
	// The reconstruction embeds the reference inside extra sequence.
	embedded := append(append(randDNA(rng, 100), ref[0].Seq...), randDNA(rng, 100)...)
	c := FullLengthReconstruction([]seq.Record{{ID: "t", Seq: embedded}}, ref, 0.95, 0.95)
	if c.Isoforms != 1 {
		t.Errorf("embedded reference not counted: %+v", c)
	}
}

func TestFusedTranscripts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	refA := rnaseq.Transcript{Gene: 0, ID: "a", Seq: randDNA(rng, 200)}
	refB := rnaseq.Transcript{Gene: 1, ID: "b", Seq: randDNA(rng, 220)}
	refC := rnaseq.Transcript{Gene: 2, ID: "c", Seq: randDNA(rng, 180)}
	fusion := append(append([]byte(nil), refA.Seq...), refB.Seq...)
	transcripts := []seq.Record{
		{ID: "fused", Seq: fusion},
		{ID: "clean", Seq: refC.Seq},
	}
	c := FusedTranscripts(transcripts, []rnaseq.Transcript{refA, refB, refC}, 0.9, 0.95)
	if c.Isoforms != 1 {
		t.Errorf("fused isoforms = %d, want 1", c.Isoforms)
	}
	if c.Genes != 2 {
		t.Errorf("fused genes = %d, want 2", c.Genes)
	}
}

func TestFusedTranscriptsNoneWhenClean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ref := refSet(rng)
	var transcripts []seq.Record
	for _, r := range ref {
		transcripts = append(transcripts, seq.Record{ID: r.ID, Seq: r.Seq})
	}
	c := FusedTranscripts(transcripts, ref, 0.9, 0.95)
	if c.Isoforms != 0 || c.Genes != 0 {
		t.Errorf("clean set reported fusions: %+v", c)
	}
}

func TestEmptyInputs(t *testing.T) {
	c := CompareTranscriptSets(nil, nil, sw.DefaultScoring())
	if c.Total() != 0 {
		t.Errorf("empty compare: %+v", c)
	}
	fl := FullLengthReconstruction(nil, nil, 0.9, 0.9)
	if fl.Genes != 0 || fl.Isoforms != 0 {
		t.Errorf("empty full-length: %+v", fl)
	}
	fu := FusedTranscripts(nil, nil, 0.9, 0.9)
	if fu.Genes != 0 || fu.Isoforms != 0 {
		t.Errorf("empty fusion: %+v", fu)
	}
}

// candidatesMapRef is the prefilter the kmerIndex table replaced: a map
// of record lists, each record listed once per k-mer, and a map of
// shared-k-mer counts per query.
func candidatesMapRef(recs []seq.Record, s []byte) []int32 {
	ids := map[kmer.Kmer][]int32{}
	for i := range recs {
		it := kmer.NewIterator(recs[i].Seq, prefilterK)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			if lst := ids[m]; len(lst) == 0 || lst[len(lst)-1] != int32(i) {
				ids[m] = append(lst, int32(i))
			}
		}
	}
	counts := map[int32]int{}
	for _, b := range [][]byte{s, seq.ReverseComplement(s)} {
		it := kmer.NewIterator(b, prefilterK)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			for _, id := range ids[m] {
				counts[id]++
			}
		}
	}
	var out []int32
	for id, n := range counts {
		if n >= minSharedKmers {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestCandidatesMatchMapOracle pins the prefilter against the map
// version on records built from shared segments (so queries share
// k-mers with several records, on either strand, and records repeat
// k-mers internally), query after query on one index.
func TestCandidatesMatchMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	segs := make([][]byte, 6)
	for i := range segs {
		segs[i] = randDNA(rng, 30+rng.Intn(40))
	}
	build := func() []byte {
		var s []byte
		for j := 0; j < 1+rng.Intn(4); j++ {
			seg := segs[rng.Intn(len(segs))]
			if rng.Intn(2) == 0 {
				seg = seq.ReverseComplement(seg)
			}
			s = append(append(s, seg...), randDNA(rng, rng.Intn(8))...)
		}
		return s
	}
	var recs []seq.Record
	for i := 0; i < 40; i++ {
		recs = append(recs, seq.Record{ID: "r", Seq: build()})
	}
	// A record holding a 22-base segment twice shares its two k-mers
	// with a query of that segment alone: two, not four, below the
	// threshold of three — a record counts once per k-mer.
	short := randDNA(rng, 22)
	recs = append(recs, seq.Record{ID: "r", Seq: append(append(append([]byte(nil), short...), randDNA(rng, 5)...), short...)})
	ix := indexRecords(recs)
	hits := 0
	for q := 0; q < 200; q++ {
		s := build()
		if q%10 == 0 {
			s = append(append([]byte(nil), short...), randDNA(rng, 4)...)
		}
		got, want := ix.candidates(s), candidatesMapRef(recs, s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: candidates %v, want %v", q, got, want)
		}
		hits += len(got)
	}
	if hits == 0 {
		t.Fatal("no query had a candidate")
	}
}
