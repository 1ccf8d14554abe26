package butterfly

import (
	"math/rand"
	"testing"

	"gotrinity/internal/chrysalis"
	"gotrinity/internal/dbg"
	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// PairSupport is the serial count PairSupportParallel is checked
// against.
func PairSupport(ts []Transcript, graphs []*chrysalis.ComponentGraph, reads []seq.Record) []int {
	return pairSupport(ts, graphs, reads, 1)
}

func TestSplitMate(t *testing.T) {
	if b, m, ok := splitMate("read9/1"); !ok || b != "read9" || m != 1 {
		t.Errorf("splitMate = %q %d %v", b, m, ok)
	}
	if b, m, ok := splitMate("read9/2"); !ok || b != "read9" || m != 2 {
		t.Errorf("splitMate = %q %d %v", b, m, ok)
	}
	if _, _, ok := splitMate("read9"); ok {
		t.Error("unpaired id accepted")
	}
}

// buildPairScenario: one real transcript and one chimera; pairs drawn
// from the real transcript support only it.
func buildPairScenario(t *testing.T) ([]Transcript, []*chrysalis.ComponentGraph, []seq.Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	real := randDNA(rng, 400)
	chimera := real[:150] + randDNA(rng, 250)

	g, _ := dbg.New(15)
	g.AddSequence([]byte(real), 1)
	cg := &chrysalis.ComponentGraph{Component: chrysalis.Component{ID: 0}, Graph: g}

	var reads []seq.Record
	for i := 0; i+300 <= len(real); i += 25 {
		left := []byte(real[i : i+60])
		right := seq.ReverseComplement([]byte(real[i+240 : i+300]))
		reads = append(reads,
			seq.Record{ID: readID(i) + "/1", Seq: left},
			seq.Record{ID: readID(i) + "/2", Seq: right})
	}
	for ri := range reads {
		cg.Reads = append(cg.Reads, int32(ri))
	}
	ts := []Transcript{
		{Component: 0, ID: "real", Seq: []byte(real)},
		{Component: 0, ID: "chimera", Seq: []byte(chimera)},
	}
	return ts, []*chrysalis.ComponentGraph{cg}, reads
}

func readID(i int) string {
	return "p" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func TestPairSupportDistinguishesChimera(t *testing.T) {
	ts, graphs, reads := buildPairScenario(t)
	support := PairSupport(ts, graphs, reads)
	if len(support) != 2 {
		t.Fatalf("support = %v", support)
	}
	if support[0] == 0 {
		t.Error("real transcript has no pair support")
	}
	if support[1] >= support[0] {
		t.Errorf("chimera support %d >= real support %d", support[1], support[0])
	}
}

func TestFilterByPairSupport(t *testing.T) {
	ts, graphs, reads := buildPairScenario(t)
	support := PairSupport(ts, graphs, reads)
	filtered, fsupport := FilterByPairSupport(ts, support, 1)
	if len(filtered) != len(fsupport) {
		t.Fatalf("filtered %d transcripts but %d support values", len(filtered), len(fsupport))
	}
	for i, tr := range filtered {
		if tr.ID == "chimera" && support[1] == 0 {
			t.Error("unsupported chimera survived the filter")
		}
		if fsupport[i] < 1 {
			t.Errorf("surviving transcript %s kept support %d", tr.ID, fsupport[i])
		}
	}
	if len(filtered) == 0 {
		t.Fatal("filter removed everything")
	}
	// The lockstep-filtered support must equal a fresh recount over the
	// filtered transcripts — the invariant that let the pipeline drop
	// its second PairSupport pass.
	recount := PairSupport(filtered, graphs, reads)
	for i := range recount {
		if recount[i] != fsupport[i] {
			t.Errorf("transcript %d: filtered support %d, recount %d", i, fsupport[i], recount[i])
		}
	}
	// min=0 disables filtering entirely.
	if got, gotS := FilterByPairSupport(ts, support, 0); len(got) != len(ts) || len(gotS) != len(support) {
		t.Error("min=0 must be a no-op")
	}
}

func TestFilterLeavesUnpairedComponentsAlone(t *testing.T) {
	ts := []Transcript{{Component: 5, ID: "x", Seq: []byte("ACGT")}}
	got, _ := FilterByPairSupport(ts, []int{0}, 1)
	if len(got) != 1 {
		t.Error("component without any pair support must be untouched")
	}
}

func TestPairSupportEmptyInputs(t *testing.T) {
	if s := PairSupport(nil, nil, nil); len(s) != 0 {
		t.Errorf("support = %v", s)
	}
}

// PairSupportParallel must count exactly like the serial PairSupport
// for any worker count.
func TestPairSupportParallelMatchesSerial(t *testing.T) {
	ts, graphs, reads := buildPairScenario(t)
	want := PairSupport(ts, graphs, reads)
	for _, workers := range []int{1, 2, 8} {
		got := PairSupportParallel(ts, graphs, reads, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %v vs %v", workers, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: %v vs %v", workers, got, want)
			}
		}
	}
}

// TestMateMatchesEqualsTwoPass pins the one-pass mateMatches against
// the form it replaced: count the read's k-mers, then those of its
// reverse complement.
func TestMateMatchesEqualsTwoPass(t *testing.T) {
	twoPass := func(read []byte, kmers map[kmer.Kmer]bool) bool {
		count := func(s []byte) int {
			n := 0
			it := kmer.NewIterator(s, PairSupportK)
			for {
				m, _, ok := it.Next()
				if !ok {
					return n
				}
				if kmers[m] {
					n++
				}
			}
		}
		return count(read) >= minMateKmers || count(seq.ReverseComplement(read)) >= minMateKmers
	}
	rng := rand.New(rand.NewSource(15))
	tx := []byte(randDNA(rng, 300))
	kmers := transcriptKmerSet(tx)
	withN := func(s []byte, at ...int) []byte {
		s = append([]byte(nil), s...)
		for _, i := range at {
			s[i] = 'N'
		}
		return s
	}
	for _, tc := range []struct {
		name string
		read []byte
		want bool
	}{
		{"forward", tx[40:100], true},
		{"reverse complement", seq.ReverseComplement(tx[40:100]), true},
		{"forward, exactly minMateKmers k-mers", tx[10 : 10+PairSupportK+minMateKmers-1], true},
		{"reverse, one k-mer short", seq.ReverseComplement(tx[10 : 10+PairSupportK+minMateKmers-2]), false},
		{"N in the middle", withN(tx[40:100], 36), true},
		{"Ns leave no whole k-mer", withN(tx[40:100], 15, 30, 45), false},
		{"reverse complement with N", withN(seq.ReverseComplement(tx[40:100]), 5), true},
		{"two forward and two reverse hits do not add up", append(append([]byte(nil), tx[0:PairSupportK+1]...), seq.ReverseComplement(tx[100:100+PairSupportK+1])...), false},
		{"unrelated", []byte(randDNA(rng, 60)), false},
		{"shorter than k", tx[:PairSupportK-1], false},
		{"empty", nil, false},
	} {
		got := mateMatches(tc.read, kmers)
		if ref := twoPass(tc.read, kmers); got != ref || got != tc.want {
			t.Errorf("%s: mateMatches = %v, two-pass = %v, want %v", tc.name, got, ref, tc.want)
		}
	}
	for i := 0; i < 500; i++ {
		start := rng.Intn(len(tx) - 40)
		read := append([]byte(nil), tx[start:start+20+rng.Intn(20)]...)
		for m := rng.Intn(3); m > 0; m-- {
			read[rng.Intn(len(read))] = "ACGTN"[rng.Intn(5)]
		}
		if rng.Intn(2) == 0 {
			read = seq.ReverseComplement(read)
		}
		if got, ref := mateMatches(read, kmers), twoPass(read, kmers); got != ref {
			t.Fatalf("read %q: mateMatches = %v, two-pass = %v", read, got, ref)
		}
	}
}
