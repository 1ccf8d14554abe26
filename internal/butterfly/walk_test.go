package butterfly

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"gotrinity/internal/dbg"
	"gotrinity/internal/rnaseq"
)

// componentSeqs is one component's worth of sequence in the shapes the
// walk special-cases: a gene's isoforms (shared exons, so branches and
// reconvergence), reads over them with substitution errors (bubbles)
// and errors near their ends (tips), a poly-A run (the all-A k-mer, a
// self-loop) and, when cycle is set, a perfect cycle on its own.
func componentSeqs(rng *rand.Rand, k int, cycle bool) [][]byte {
	rnd := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		return s
	}
	if cycle {
		c := rnd(3*k + rng.Intn(4*k))
		return [][]byte{append(append([]byte(nil), c...), c[:k]...)}
	}
	exons := make([][]byte, 2+rng.Intn(4))
	for i := range exons {
		exons[i] = rnd(k + rng.Intn(3*k))
	}
	var seqs [][]byte
	for iso := 0; iso < 1+rng.Intn(4); iso++ {
		var s []byte
		for i, e := range exons {
			if i == 0 || i == len(exons)-1 || rng.Intn(3) > 0 {
				s = append(s, e...)
			}
		}
		seqs = append(seqs, s)
	}
	for r, n := 0, rng.Intn(12); r < n; r++ {
		iso := seqs[rng.Intn(len(seqs))]
		lo := rng.Intn(len(iso))
		read := append([]byte(nil), iso[lo:min(len(iso), lo+2*k+rng.Intn(2*k))]...)
		switch rng.Intn(3) {
		case 0: // a bubble: one substitution mid-read
			read[len(read)/2] = "ACGT"[rng.Intn(4)]
		case 1: // a tip: an error near the end
			read[len(read)-1-rng.Intn(max(1, len(read)/8))] = "ACGT"[rng.Intn(4)]
		}
		seqs = append(seqs, read)
	}
	if rng.Intn(3) == 0 {
		seqs = append(seqs, append(bytes.Repeat([]byte("A"), k+1+rng.Intn(k)), seqs[0][:k]...))
	}
	return seqs
}

func buildGraph(t testing.TB, k int, seqs [][]byte) *dbg.Graph {
	g, err := dbg.New(k)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seqs {
		g.AddSequence(s, uint32(1+i%4))
	}
	return g
}

// samePaths runs the walker (reused, as a pool thread reuses it) and
// the oracle on the same graph and compares their paths — sequence
// byte for byte, coverage bit for bit.
func samePaths(t *testing.T, w *walker, g *dbg.Graph, opt Options) int {
	t.Helper()
	want := oracleReconstructComponent(g, opt)
	w.opt = opt
	got := w.reconstructComponent(g)
	if len(got) != len(want) {
		t.Fatalf("%+v: %d paths, oracle %d", opt, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].seq, want[i].seq) || got[i].coverage != want[i].coverage {
			t.Fatalf("%+v: path %d = %d bases cov %v, oracle %d bases cov %v", opt, i,
				len(got[i].seq), got[i].coverage, len(want[i].seq), want[i].coverage)
		}
	}
	return len(got)
}

// TestReconstructMatchesOracle: the shared-buffer walk emits exactly
// the paths the copy-per-step walk did, in the same order, on random
// components with tips, bubbles, self-loops and pure cycles, at seed 0
// and not, with the path and depth caps binding and not.
func TestReconstructMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var w walker
	capped, deep, cycles, paths := 0, 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		k := 5 + rng.Intn(20)
		cycle := trial%10 == 0
		g := buildGraph(t, k, componentSeqs(rng, k, cycle))
		for _, opt := range []Options{
			{},
			{Seed: 1 + rng.Int63()},
			{MaxPathsPerComponent: 1 + rng.Intn(3), Seed: int64(rng.Intn(2))},
			{MaxDepth: 1 + rng.Intn(4), MinCoverageFrac: 0.3},
			{MaxPathsPerComponent: 1000, MaxDepth: 1000, Seed: 7},
		} {
			opt.normalize()
			n := samePaths(t, &w, g, opt)
			paths += n
			if n == opt.MaxPathsPerComponent {
				capped++
			}
			if opt.MaxDepth < 5 && n > 0 {
				deep++
			}
		}
		if cycle {
			if c := g.Compact(); len(c.AppendSources(nil)) == 0 {
				cycles++
			}
		}
	}
	if capped == 0 || deep == 0 || cycles == 0 || paths == 0 {
		t.Fatalf("scenario too tame: %d capped, %d depth-bound, %d pure cycles, %d paths", capped, deep, cycles, paths)
	}
}

// ReconstructParallel reproduces the oracle's transcripts on a real
// assembly's component graphs, at any worker count and seed.
func TestReconstructParallelMatchesOracle(t *testing.T) {
	graphs := componentGraphs(t, rnaseq.Tiny(5))
	for _, seed := range []int64{0, 3} {
		want := oracleReconstruct(graphs, Options{Seed: seed})
		if len(want) < 10 {
			t.Fatalf("only %d transcripts", len(want))
		}
		for _, workers := range []int{1, 3} {
			got, _ := ReconstructParallel(graphs, Options{Seed: seed}, workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %d workers: %d transcripts differ from the oracle's %d", seed, workers, len(got), len(want))
			}
		}
	}
}

// FuzzReconstruct drives the walker and the oracle with arbitrary
// sequence (bytes >= 252 split it, the rest map to bases) and options.
func FuzzReconstruct(f *testing.F) {
	f.Add([]byte("ACGTTGCAACGGTACCAGT\xffACGTTGCATCGGTACCAGT\xffAAAAAAAAAAAA"), uint8(5), uint8(0), uint8(0), int64(0))
	f.Add([]byte("ACGGTCATTGCAGGATCCTAACGGTCATT"), uint8(7), uint8(2), uint8(3), int64(9))
	f.Add(bytes.Repeat([]byte("ACGTAGCT\xfe"), 9), uint8(3), uint8(1), uint8(200), int64(-4))
	f.Fuzz(func(t *testing.T, data []byte, k, maxPaths, maxDepth uint8, seed int64) {
		var seqs [][]byte
		var s []byte
		for _, b := range data {
			if b >= 252 {
				seqs, s = append(seqs, s), nil
				continue
			}
			s = append(s, "ACGT"[b&3])
		}
		seqs = append(seqs, s)
		g := buildGraph(t, 2+int(k%15), seqs)
		opt := Options{MaxPathsPerComponent: int(maxPaths % 40), MaxDepth: int(maxDepth % 80), Seed: seed}
		opt.normalize()
		var w walker
		samePaths(t, &w, g, opt)
		samePaths(t, &w, g, opt) // a reused walker starts clean
	})
}

// bubbleChain is a component whose one supported path crosses n
// bubbles, each with a weak arm the coverage filter prunes: the walk
// takes about 2n+1 steps and emits one path.
func bubbleChain(t testing.TB, n int) *dbg.Graph {
	rng := rand.New(rand.NewSource(int64(n)))
	const k = 15
	main := make([]byte, (n+1)*3*k)
	for i := range main {
		main[i] = "ACGT"[rng.Intn(4)]
	}
	g, err := dbg.New(k)
	if err != nil {
		t.Fatal(err)
	}
	g.AddSequence(main, 100)
	for b := 1; b <= n; b++ {
		arm := append([]byte(nil), main[b*3*k-k:b*3*k+k]...)
		arm[k] = "ACGT"[(bytes.IndexByte([]byte("ACGT"), arm[k])+1)%4]
		g.AddSequence(arm, 1)
	}
	return g
}

// A walk allocates once per path it emits (the path's copy), however
// many unitigs it steps through: short and long bubble chains each
// emit one path for one allocation.
func TestWalkAllocsPerEmittedPath(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, n := range []int{2, 40} {
		w := walker{opt: Options{}}
		w.opt.normalize()
		g := bubbleChain(t, n)
		if got := w.reconstructComponent(g); len(got) != 1 {
			t.Fatalf("%d bubbles: %d paths, want the one supported path", n, len(got))
		}
		if len(w.c.Unitigs) < 2*n+1 {
			t.Fatalf("%d bubbles: only %d unitigs", n, len(w.c.Unitigs))
		}
		src := w.sources[0]
		allocs := testing.AllocsPerRun(50, func() {
			w.paths = w.paths[:0]
			w.walk(src, 0, 0, 0)
		})
		if len(w.paths) != 1 || allocs != 1 {
			t.Errorf("%d bubbles (%d unitigs): a walk emitting %d path(s) allocates %v times, want 1",
				n, len(w.c.Unitigs), len(w.paths), allocs)
		}
	}
}
