package butterfly

// The map implementation of pair support this package ran on until the
// k-mer spine moved to kmer.FlatSet ids and dense arrays — one
// map[kmer.Kmer]bool per transcript, every pair's mates scanned once
// per transcript — kept as the oracle the per-component index is
// compared against.

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"gotrinity/internal/chrysalis"
	"gotrinity/internal/kmer"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

func transcriptKmerSet(s []byte) map[kmer.Kmer]bool {
	set := make(map[kmer.Kmer]bool, len(s))
	it := kmer.NewIterator(s, PairSupportK)
	for {
		m, _, ok := it.Next()
		if !ok {
			return set
		}
		set[m] = true
	}
}

// mateMatches reports whether at least minMateKmers k-mers of the read
// or of its reverse complement are in kmers. The reverse complement's
// k-mers are the reverse complements of the read's, so one pass over
// the read counts both orientations.
func mateMatches(read []byte, kmers map[kmer.Kmer]bool) bool {
	fwd, rc := 0, 0
	it := kmer.NewIterator(read, PairSupportK)
	for {
		m, _, ok := it.Next()
		if !ok {
			return false
		}
		if kmers[m] {
			if fwd++; fwd >= minMateKmers {
				return true
			}
		}
		if kmers[m.ReverseComplement(PairSupportK)] {
			if rc++; rc >= minMateKmers {
				return true
			}
		}
	}
}

func mapPairSupport(ts []Transcript, graphs []*chrysalis.ComponentGraph, reads []seq.Record) []int {
	pairsByComp := map[int][][2]int32{}
	for _, cg := range graphs {
		if pairs := componentPairs(cg, reads); len(pairs) > 0 {
			pairsByComp[cg.Component.ID] = pairs
		}
	}
	support := make([]int, len(ts))
	for ti := range ts {
		kmers := transcriptKmerSet(ts[ti].Seq)
		for _, p := range pairsByComp[ts[ti].Component] {
			if mateMatches(reads[p[0]].Seq, kmers) && mateMatches(reads[p[1]].Seq, kmers) {
				support[ti]++
			}
		}
	}
	return support
}

// spinePairScenario: a generated paired-end read set (some reads with
// an N, one shorter than k) against transcript sets that share
// k-mers — each gene's isoforms, a chimera of two genes and a
// reverse-complemented isoform per component — with every read
// assigned to every component, so matching and non-matching mates,
// both orientations, both hit thresholds and repeated k-mers all occur.
func spinePairScenario(p rnaseq.Profile) ([]Transcript, []*chrysalis.ComponentGraph, []seq.Record) {
	d := rnaseq.Generate(p)
	rng := rand.New(rand.NewSource(p.Seed))
	reads := d.Reads
	for i := range reads {
		if i%9 == 0 {
			s := append([]byte(nil), reads[i].Seq...)
			s[rng.Intn(len(s))] = 'N'
			reads[i].Seq = s
		}
	}
	reads = append(reads, seq.Record{ID: "tiny/1", Seq: []byte("ACGT")}, seq.Record{ID: "tiny/2", Seq: []byte("ACGT")})
	all := make([]int32, len(reads)+1)
	for i := range all {
		all[i] = int32(i) // the last index is out of range, as componentPairs tolerates
	}
	var ts []Transcript
	var graphs []*chrysalis.ComponentGraph
	for _, ref := range d.Reference {
		if ref.Gene >= len(graphs) {
			graphs = append(graphs, &chrysalis.ComponentGraph{Component: chrysalis.Component{ID: 10 * ref.Gene}, Reads: all})
		}
		ts = append(ts, Transcript{Component: 10 * ref.Gene, Seq: ref.Seq})
	}
	n := len(ts)
	for i := 0; i < n; i += 2 { // out of component order on purpose
		other := ts[(i+3)%n].Seq
		ts = append(ts,
			Transcript{Component: ts[i].Component, Seq: append(append([]byte(nil), ts[i].Seq[:len(ts[i].Seq)/2]...), other[len(other)/2:]...)},
			Transcript{Component: ts[i].Component, Seq: seq.ReverseComplement(ts[i].Seq)},
			Transcript{Component: ts[i].Component, Seq: bytes.Repeat(ts[i].Seq[:40], 3)},
			Transcript{Component: ts[i].Component, Seq: []byte("ACGTNNACGT")})
	}
	ts = append(ts, Transcript{Component: 7, Seq: ts[0].Seq}) // a component with no graph
	graphs = append(graphs, &chrysalis.ComponentGraph{Component: chrysalis.Component{ID: 9999}, Reads: all[:40]})
	return ts, graphs, reads
}

// TestPairSupportMatchesMapOracle: the per-component index must count
// exactly what the per-transcript k-mer sets counted, at any worker
// count.
func TestPairSupportMatchesMapOracle(t *testing.T) {
	small := rnaseq.Sugarbeet(5)
	small.Genes, small.Reads = 8, 800
	for _, p := range []rnaseq.Profile{rnaseq.Tiny(4), small} {
		ts, graphs, reads := spinePairScenario(p)
		want := mapPairSupport(ts, graphs, reads)
		if slices.Max(want) == 0 {
			t.Fatal("scenario has no supported transcript")
		}
		for _, workers := range []int{1, 4} {
			if got := PairSupportParallel(ts, graphs, reads, workers); !slices.Equal(got, want) {
				t.Fatalf("workers=%d: support %v, map oracle %v", workers, got, want)
			}
		}
	}
}

// One mate scan allocates nothing once the index is warm.
func TestMateScanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ts, _, reads := buildPairScenario(t)
	var ix mateIndex
	ix.build(ts, []int{0, 1})
	ix.scan(reads[0].Seq)
	if len(ix.touched) != 2 || !ix.matches(0) {
		t.Fatalf("warm-up scan touched %v", ix.touched)
	}
	if n := testing.AllocsPerRun(100, func() { ix.scan(reads[1].Seq) }); n != 0 {
		t.Errorf("a mate scan allocates %v times", n)
	}
}
