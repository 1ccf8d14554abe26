package butterfly

import (
	"math/rand"
	"strings"
	"testing"

	"gotrinity/internal/chrysalis"
	"gotrinity/internal/dbg"
	"gotrinity/internal/seq"
)

// Reconstruct enumerates transcripts for every component graph, one
// after another: the serial reconstruction ReconstructParallel is
// checked against.
func Reconstruct(graphs []*chrysalis.ComponentGraph, opt Options) []Transcript {
	opt.normalize()
	var out []Transcript
	for _, cg := range graphs {
		out = append(out, componentTranscripts(cg, opt)...)
	}
	return out
}

func graphFor(t *testing.T, k int, seqs ...string) *chrysalis.ComponentGraph {
	t.Helper()
	g, err := dbg.New(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs {
		g.AddSequence([]byte(s), 1)
	}
	return &chrysalis.ComponentGraph{Component: chrysalis.Component{ID: 0}, Graph: g}
}

func randDNA(rng *rand.Rand, n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return string(s)
}

func TestReconstructLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randDNA(rng, 300)
	cg := graphFor(t, 15, s)
	ts := Reconstruct([]*chrysalis.ComponentGraph{cg}, Options{})
	if len(ts) != 1 {
		t.Fatalf("transcripts = %d, want 1", len(ts))
	}
	if string(ts[0].Seq) != s {
		t.Errorf("reconstructed %d bases, want the original %d", len(ts[0].Seq), len(s))
	}
	if ts[0].ID != "comp0_seq0" {
		t.Errorf("id = %s", ts[0].ID)
	}
}

func TestReconstructTwoIsoforms(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	prefix := randDNA(rng, 120)
	suffix := randDNA(rng, 120)
	skip := randDNA(rng, 80) // the alternatively spliced exon
	isoA := prefix + skip + suffix
	isoB := prefix + suffix
	cg := graphFor(t, 15, isoA, isoB)
	ts := Reconstruct([]*chrysalis.ComponentGraph{cg}, Options{MaxPathsPerComponent: 8})
	got := map[string]bool{}
	for _, tr := range ts {
		got[string(tr.Seq)] = true
	}
	if !got[isoA] {
		t.Error("isoform with exon not reconstructed")
	}
	if !got[isoB] {
		t.Error("exon-skipped isoform not reconstructed")
	}
}

func TestWeakBranchPruned(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prefix := randDNA(rng, 100)
	suffix := randDNA(rng, 100)
	strong := randDNA(rng, 60)
	weak := randDNA(rng, 60)
	k := 15
	g, _ := dbg.New(k)
	// Strong branch seen 100x, weak (sequencing-noise) branch once.
	g.AddSequence([]byte(prefix+strong+suffix), 100)
	g.AddSequence([]byte(prefix+weak+suffix), 1)
	cg := &chrysalis.ComponentGraph{Component: chrysalis.Component{ID: 3}, Graph: g}
	ts := Reconstruct([]*chrysalis.ComponentGraph{cg}, Options{MinCoverageFrac: 0.1})
	for _, tr := range ts {
		if strings.Contains(string(tr.Seq), weak) {
			t.Error("weak branch survived pruning")
		}
	}
	if len(ts) == 0 {
		t.Fatal("no transcripts at all")
	}
}

func TestMaxPathsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// A chain of bubbles: 2^4 possible paths; cap at 3.
	k := 11
	g, _ := dbg.New(k)
	segs := make([]string, 5)
	for i := range segs {
		segs[i] = randDNA(rng, 60)
	}
	for mask := 0; mask < 16; mask++ {
		s := segs[0]
		for b := 0; b < 4; b++ {
			variant := randDNA(rand.New(rand.NewSource(int64(b*2+((mask>>b)&1)))), 40)
			s += variant + segs[b+1]
		}
		g.AddSequence([]byte(s), 1)
	}
	cg := &chrysalis.ComponentGraph{Component: chrysalis.Component{ID: 0}, Graph: g}
	ts := Reconstruct([]*chrysalis.ComponentGraph{cg}, Options{MaxPathsPerComponent: 3})
	if len(ts) > 3 {
		t.Errorf("cap violated: %d transcripts", len(ts))
	}
}

func TestCycleTerminates(t *testing.T) {
	g, _ := dbg.New(3)
	g.AddSequence([]byte("ATCATCATCATC"), 1) // pure cycle
	cg := &chrysalis.ComponentGraph{Component: chrysalis.Component{ID: 0}, Graph: g}
	ts := Reconstruct([]*chrysalis.ComponentGraph{cg}, Options{MaxDepth: 10, MinTranscriptLen: 1})
	if len(ts) == 0 {
		t.Error("cycle produced nothing")
	}
}

func TestMinTranscriptLenFilter(t *testing.T) {
	cg := graphFor(t, 5, "ACGTACGTAC")
	ts := Reconstruct([]*chrysalis.ComponentGraph{cg}, Options{MinTranscriptLen: 100})
	if len(ts) != 0 {
		t.Errorf("short transcript not filtered: %d", len(ts))
	}
}

func TestEmptyGraph(t *testing.T) {
	g, _ := dbg.New(5)
	cg := &chrysalis.ComponentGraph{Component: chrysalis.Component{ID: 0}, Graph: g}
	if ts := Reconstruct([]*chrysalis.ComponentGraph{cg}, Options{}); len(ts) != 0 {
		t.Errorf("empty graph produced %d transcripts", len(ts))
	}
}

func TestRecords(t *testing.T) {
	ts := []Transcript{{Component: 1, ID: "comp1_seq0", Seq: []byte("ACGT"), Coverage: 2.5}}
	recs := Records(ts)
	if len(recs) != 1 || recs[0].ID != "comp1_seq0" || !strings.Contains(recs[0].Desc, "cov=2.5") {
		t.Errorf("records = %+v", recs)
	}
}

func TestTranscriptsSortedLongestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	prefix := randDNA(rng, 100)
	suffix := randDNA(rng, 100)
	mid := randDNA(rng, 200)
	cg := graphFor(t, 15, prefix+mid+suffix, prefix+suffix)
	ts := Reconstruct([]*chrysalis.ComponentGraph{cg}, Options{MaxPathsPerComponent: 8})
	for i := 1; i < len(ts); i++ {
		if ts[i].Component == ts[i-1].Component && len(ts[i].Seq) > len(ts[i-1].Seq) {
			t.Error("transcripts not sorted longest-first within component")
		}
	}
}

func TestEndToEndFromChrysalisGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randDNA(rng, 400)
	contigs := []seq.Record{{ID: "c0", Seq: []byte(s)}}
	comps := []chrysalis.Component{{ID: 0, Contigs: []int{0}}}
	var reads []seq.Record
	for i := 0; i+60 <= len(s); i += 15 {
		reads = append(reads, seq.Record{ID: "r", Seq: []byte(s[i : i+60])})
	}
	assigns := make([]chrysalis.Assignment, len(reads))
	for i := range reads {
		assigns[i] = chrysalis.Assignment{Read: int32(i), Component: 0, Matches: 1}
	}
	graphs, _, _, err := chrysalis.FastaToDeBruijnParallel(contigs, comps, 15, reads, assigns, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := Reconstruct(graphs, Options{})
	if len(ts) == 0 {
		t.Fatal("no transcripts")
	}
	if string(ts[0].Seq) != s {
		t.Errorf("transcript len %d, want %d", len(ts[0].Seq), len(s))
	}
	if ts[0].Coverage <= 1 {
		t.Errorf("coverage %g should reflect quantified reads", ts[0].Coverage)
	}
}

// ReconstructParallel must flatten to exactly the serial Reconstruct
// output — same transcripts, same ids, same order — for any worker
// count, including graphs of very different sizes (the LPT case).
func TestReconstructParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var graphs []*chrysalis.ComponentGraph
	for id := 0; id < 9; id++ {
		n := 60 + id*40 // skewed component sizes
		cg := graphFor(t, 15, randDNA(rng, n))
		cg.Component.ID = id * 3 // non-dense ids
		graphs = append(graphs, cg)
	}
	opt := Options{MinTranscriptLen: 20}
	serial := Reconstruct(graphs, opt)
	if len(serial) == 0 {
		t.Fatal("serial reconstruction empty")
	}
	for _, workers := range []int{1, 2, 8} {
		par, prof := ReconstructParallel(graphs, opt, workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d transcripts, want %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i].ID != serial[i].ID || string(par[i].Seq) != string(serial[i].Seq) ||
				par[i].Component != serial[i].Component || par[i].Index != serial[i].Index {
				t.Fatalf("workers=%d transcript %d: %+v vs %+v", workers, i, par[i], serial[i])
			}
		}
		if prof.Threads <= 0 {
			t.Errorf("workers=%d: empty profile", workers)
		}
	}
}

func TestReconstructParallelEmpty(t *testing.T) {
	ts, _ := ReconstructParallel(nil, Options{}, 4)
	if len(ts) != 0 {
		t.Errorf("transcripts from no graphs: %v", ts)
	}
}
