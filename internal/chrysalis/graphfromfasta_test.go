package chrysalis

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/seq"
)

// testScenario builds a tiny synthetic world: two gene families whose
// contigs share a supported 2k welding window, plus an unrelated
// contig, with reads covering everything.
type testScenario struct {
	contigs []seq.Record
	reads   []seq.Record
	kmers   *jellyfish.CountTable
	k       int
}

func buildScenario(t *testing.T, seed int64) *testScenario {
	t.Helper()
	const k = 15
	rng := rand.New(rand.NewSource(seed))
	dna := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		return s
	}
	shared := dna(3 * k) // long shared region: contains full 2k windows
	a := append(append(dna(60), shared...), dna(60)...)
	b := append(append(dna(60), shared...), dna(60)...)
	lone := dna(180)

	contigs := []seq.Record{
		{ID: "A", Seq: a},
		{ID: "B", Seq: b},
		{ID: "L", Seq: lone},
	}
	// Reads: 3x tiling of every contig gives full support.
	var reads []seq.Record
	for _, c := range contigs {
		for rep := 0; rep < 3; rep++ {
			for s := 0; s+50 <= len(c.Seq); s += 10 {
				reads = append(reads, seq.Record{ID: "r", Seq: c.Seq[s : s+50]})
			}
		}
	}
	table, err := jellyfish.Count(reads, jellyfish.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return &testScenario{contigs: contigs, reads: reads, kmers: table, k: k}
}

func TestGraphFromFastaWeldsSharedContigs(t *testing.T) {
	sc := buildScenario(t, 1)
	res, err := GraphFromFasta(sc.contigs, sc.kmers, 1, GFFOptions{K: sc.k, ThreadsPerRank: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Welds) == 0 {
		t.Fatal("no welds harvested")
	}
	// A and B (indices 0,1) must share a component; L (2) must not.
	var compOfA, compOfB, compOfL = -1, -1, -1
	for _, comp := range res.Components {
		for _, ci := range comp.Contigs {
			switch ci {
			case 0:
				compOfA = comp.ID
			case 1:
				compOfB = comp.ID
			case 2:
				compOfL = comp.ID
			}
		}
	}
	if compOfA != compOfB {
		t.Errorf("A and B in different components: %d vs %d", compOfA, compOfB)
	}
	if compOfL == compOfA {
		t.Error("unrelated contig welded into the shared component")
	}
}

func TestGraphFromFastaNoSupportNoWeld(t *testing.T) {
	sc := buildScenario(t, 2)
	// An empty read table ⇒ no window is supported ⇒ no welds.
	empty := jellyfish.NewCountTable(sc.k, 4)
	res, err := GraphFromFasta(sc.contigs, empty, 1, GFFOptions{K: sc.k, ThreadsPerRank: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Welds) != 0 {
		t.Errorf("welds harvested without read support: %d", len(res.Welds))
	}
	if len(res.Components) != len(sc.contigs) {
		t.Errorf("components = %d, want one per contig", len(res.Components))
	}
}

// The hybrid result must be identical for every rank count — the
// paper's validation requirement, made exact by deterministic pooling.
func TestGraphFromFastaRankInvariance(t *testing.T) {
	sc := buildScenario(t, 3)
	base, err := GraphFromFasta(sc.contigs, sc.kmers, 1, GFFOptions{K: sc.k, ThreadsPerRank: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 3, 4, 5, 8, 16} {
		res, err := GraphFromFasta(sc.contigs, sc.kmers, ranks, GFFOptions{K: sc.k, ThreadsPerRank: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Welds) != len(base.Welds) {
			t.Fatalf("ranks=%d: welds %d vs %d", ranks, len(res.Welds), len(base.Welds))
		}
		for i := range base.Welds {
			if res.Welds[i] != base.Welds[i] {
				t.Fatalf("ranks=%d: weld %d differs", ranks, i)
			}
		}
		if len(res.Components) != len(base.Components) {
			t.Fatalf("ranks=%d: components %d vs %d", ranks, len(res.Components), len(base.Components))
		}
		for i := range base.Components {
			a, b := base.Components[i].Contigs, res.Components[i].Contigs
			if len(a) != len(b) {
				t.Fatalf("ranks=%d: component %d sizes differ", ranks, i)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("ranks=%d: component %d member %d differs", ranks, i, j)
				}
			}
		}
	}
}

func TestGraphFromFastaSeedPerturbsButStaysValid(t *testing.T) {
	sc := buildScenario(t, 4)
	opt := GFFOptions{K: sc.k, ThreadsPerRank: 2, MaxWeldsPerContig: 2}
	r1, err := GraphFromFasta(sc.contigs, sc.kmers, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Seed = 99
	r2, err := GraphFromFasta(sc.contigs, sc.kmers, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Both runs must still weld A and B (the shared region is long), but
	// the harvested weld sets may differ under the cap.
	sameComp := func(res *GFFResult) bool {
		for _, comp := range res.Components {
			hasA, hasB := false, false
			for _, ci := range comp.Contigs {
				if ci == 0 {
					hasA = true
				}
				if ci == 1 {
					hasB = true
				}
			}
			if hasA && hasB {
				return true
			}
		}
		return false
	}
	if !sameComp(r1) || !sameComp(r2) {
		t.Error("seeded runs lost the supported weld")
	}
}

func TestGraphFromFastaProfilesMetered(t *testing.T) {
	sc := buildScenario(t, 5)
	res, err := GraphFromFasta(sc.contigs, sc.kmers, 3, GFFOptions{K: sc.k, ThreadsPerRank: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 3 {
		t.Fatalf("profiles = %d", len(res.Profiles))
	}
	var loop1Total float64
	for r, p := range res.Profiles {
		if p.SetupUnits <= 0 {
			t.Errorf("rank %d: setup units %g", r, p.SetupUnits)
		}
		loop1Total += p.Loop1Units
		if p.Comm1.CollectiveOps == 0 {
			t.Errorf("rank %d: no collective metered in loop 1 pooling", r)
		}
	}
	if loop1Total <= 0 {
		t.Error("no loop-1 work metered")
	}
}

func TestGraphFromFastaValidation(t *testing.T) {
	sc := buildScenario(t, 6)
	if _, err := GraphFromFasta(sc.contigs, sc.kmers, 1, GFFOptions{K: 0}); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := GraphFromFasta(sc.contigs, nil, 1, GFFOptions{K: sc.k}); err == nil {
		t.Error("accepted nil read table")
	}
	wrongK := jellyfish.NewCountTable(sc.k+1, 4)
	if _, err := GraphFromFasta(sc.contigs, wrongK, 1, GFFOptions{K: sc.k}); err == nil {
		t.Error("accepted mismatched k tables")
	}
}

func TestHarvestRotationDeterministic(t *testing.T) {
	if harvestRotation(0, 5, 100) != 0 {
		t.Error("seed 0 must not rotate")
	}
	a := harvestRotation(7, 5, 100)
	b := harvestRotation(7, 5, 100)
	if a != b {
		t.Error("rotation not deterministic")
	}
	if a < 0 || a >= 100 {
		t.Errorf("rotation %d out of range", a)
	}
	if harvestRotation(7, 5, 1) != 0 {
		t.Error("length-1 rotation must be 0")
	}
}

// TestGFFNWindowsAreNoWelds pins the N-window rule: a window holding a
// non-ACGT base is not a weld candidate, even where two contigs share
// it base for base (N included) and every k-mer of it is supported.
// Contigs A and B share 3k bases with an N in the middle, so every
// shared 2k window holds the N; C and D share 3k clean bases.
func TestGFFNWindowsAreNoWelds(t *testing.T) {
	const k = 15
	rng := rand.New(rand.NewSource(47))
	dna := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		return s
	}
	withN, clean := dna(3*k), dna(3*k)
	withN[3*k/2] = 'N'
	contigs := []seq.Record{
		{ID: "A", Seq: append(append(dna(60), withN...), dna(60)...)},
		{ID: "B", Seq: append(append(dna(60), withN...), dna(60)...)},
		{ID: "C", Seq: append(append(dna(60), clean...), dna(60)...)},
		{ID: "D", Seq: append(append(dna(60), clean...), dna(60)...)},
	}
	var reads []seq.Record
	for _, c := range contigs {
		for rep := 0; rep < 3; rep++ {
			for s := 0; s+50 <= len(c.Seq); s += 10 {
				reads = append(reads, seq.Record{ID: "r", Seq: c.Seq[s : s+50]})
			}
		}
	}
	table, err := jellyfish.Count(reads, jellyfish.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	sc := &testScenario{contigs: contigs, reads: reads, kmers: table, k: k}
	base := runGFF(t, sc, 1, GFFOptions{K: k, ThreadsPerRank: 1})
	want := []Component{{ID: 0, Contigs: []int{0}}, {ID: 1, Contigs: []int{1}}, {ID: 2, Contigs: []int{2, 3}}}
	if !reflect.DeepEqual(base.Components, want) {
		t.Fatalf("components %v, want %v", base.Components, want)
	}
	if len(base.Welds) == 0 {
		t.Fatal("C and D share no weld")
	}
	for _, w := range base.Welds {
		if strings.ContainsRune(w, 'N') {
			t.Fatalf("weld %q holds an N", w)
		}
	}
	for _, opt := range []GFFOptions{
		{K: k, ThreadsPerRank: 2, Packed: true},
		{K: k, ThreadsPerRank: 2, ShardKmers: true},
	} {
		sameGFF(t, "N windows", runGFF(t, sc, 3, opt), base)
	}
}

// TestGFFAllocsDoNotGrowWithWelds: at a fixed contig count, a run that
// harvests several times the welds allocates no more than a handful
// more times — slice doublings, not an object per weld. Welds are
// values from harvest to output, where one string and one slice hold
// them all.
func TestGFFAllocsDoNotGrowWithWelds(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	var welds []int
	var allocs []float64
	for _, pairs := range []int{2, 14} {
		sc := buildWeldScenario(t, pairs, 32-2*pairs, 3)
		for _, packed := range []bool{false, true} {
			opt := GFFOptions{K: sc.k, ThreadsPerRank: 1, Packed: packed}
			welds = append(welds, len(runGFF(t, sc, 1, opt).Welds))
			allocs = append(allocs, testing.AllocsPerRun(5, func() { runGFF(t, sc, 1, opt) }))
		}
	}
	for i := 0; i < 2; i++ {
		few, many := i, i+2
		if welds[many] < 4*welds[few] {
			t.Fatalf("weld counts %v do not grow", welds)
		}
		if extra := allocs[many] - allocs[few]; extra > 32 {
			t.Errorf("packed=%v: %v welds allocate %.0f times, %v welds %.0f: %.0f more",
				i == 1, welds[few], allocs[few], welds[many], allocs[many], extra)
		}
	}
	t.Logf("welds %v, allocations %v", welds, allocs)
}
