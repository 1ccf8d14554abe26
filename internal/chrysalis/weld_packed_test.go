package chrysalis

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/mpi"
	"gotrinity/internal/seq"
)

// samePackedProfiles asserts the byte-identity contract on the metered
// side: the packed kernels must charge the exact work units of the
// ASCII kernels, rank by rank. Communication stats are exempt — packed
// welds ride the wire as seq.Packed.Encode frames, so byte counts
// legitimately differ.
func samePackedProfiles(t *testing.T, name string, got, want *GFFResult) {
	t.Helper()
	if len(got.Profiles) != len(want.Profiles) {
		t.Fatalf("%s: profile count %d vs %d", name, len(got.Profiles), len(want.Profiles))
	}
	for r := range want.Profiles {
		g, w := got.Profiles[r], want.Profiles[r]
		if g.SetupUnits != w.SetupUnits || g.Loop1Units != w.Loop1Units ||
			g.MidUnits != w.MidUnits || g.Loop2Units != w.Loop2Units ||
			g.OutputUnits != w.OutputUnits {
			t.Errorf("%s rank %d: units differ: packed %+v ascii %+v", name, r, g, w)
		}
		if g.Loop1Imbalance != w.Loop1Imbalance || g.Loop2Imbalance != w.Loop2Imbalance {
			t.Errorf("%s rank %d: imbalance differs", name, r)
		}
		if g.Welds != w.Welds || g.Pairs != w.Pairs {
			t.Errorf("%s rank %d: welds/pairs %d/%d vs %d/%d", name, r, g.Welds, g.Pairs, w.Welds, w.Pairs)
		}
		if g.ResidentKmerBytes <= 0 {
			t.Errorf("%s rank %d: packed resident bytes = %d", name, r, g.ResidentKmerBytes)
		}
	}
}

// TestGFFPackedMatchesASCII is the tentpole acceptance criterion for
// GraphFromFasta: the packed kernels must produce output and metered
// work byte-identical to the ASCII reference at every rank count.
func TestGFFPackedMatchesASCII(t *testing.T) {
	for _, build := range []struct {
		name string
		sc   *testScenario
	}{
		{"small", buildScenario(t, 21)},
		{"welded-pairs", buildFaultScenario(t)},
	} {
		for _, ranks := range []int{1, 2, 4, 8} {
			opt := GFFOptions{K: build.sc.k, ThreadsPerRank: 2}
			base := runGFF(t, build.sc, ranks, opt)
			opt.Packed = true
			res := runGFF(t, build.sc, ranks, opt)
			sameGFF(t, build.name, res, base)
			samePackedProfiles(t, build.name, res, base)

			// Both paths hold the same lookup tables.
			if p, a := res.Profiles[0].ResidentKmerBytes, base.Profiles[0].ResidentKmerBytes; p != a {
				t.Errorf("%s ranks=%d: packed resident %d, ascii %d", build.name, ranks, p, a)
			}
		}
	}
}

// TestGFFPackedPrePackedContigs exercises the pipeline hand-off: a
// caller that packed the contigs once passes them via PackedContigs
// and gets the identical result with no internal re-pack.
func TestGFFPackedPrePackedContigs(t *testing.T) {
	sc := buildScenario(t, 22)
	base := runGFF(t, sc, 3, GFFOptions{K: sc.k, ThreadsPerRank: 2})
	pseqs := make([]seq.Packed, len(sc.contigs))
	for i := range sc.contigs {
		pseqs[i] = seq.Pack(sc.contigs[i].Seq)
	}
	res := runGFF(t, sc, 3, GFFOptions{K: sc.k, ThreadsPerRank: 2, Packed: true, PackedContigs: pseqs})
	sameGFF(t, "pre-packed", res, base)
}

// TestGFFPackedSeedAndStrategy runs the packed path through the seeded
// harvest rotation and the rejected pre-allocated strategy — both must
// keep matching ASCII exactly.
func TestGFFPackedSeedAndStrategy(t *testing.T) {
	sc := buildScenario(t, 23)
	for _, opt := range []GFFOptions{
		{K: sc.k, ThreadsPerRank: 2, Seed: 7, MaxWeldsPerContig: 2},
		{K: sc.k, ThreadsPerRank: 2, Strategy: BlockedContiguous},
	} {
		base := runGFF(t, sc, 4, opt)
		opt.Packed = true
		res := runGFF(t, sc, 4, opt)
		sameGFF(t, "seed/strategy", res, base)
		samePackedProfiles(t, "seed/strategy", res, base)
	}
}

// TestGFFPackedFaultScenarios composes the packed kernels with the
// fault layer: seeded rank kills during loop 1 must recover (survivors
// recompute the dead rank's chunks with the full packed tables) with
// output identical to the fault-free ASCII run.
func TestGFFPackedFaultScenarios(t *testing.T) {
	sc := buildFaultScenario(t)
	const ranks = 4
	baseline := runGFF(t, sc, ranks, gffOpts(sc))
	for seed := int64(1); seed <= 3; seed++ {
		guard(t, 30*time.Second, func() {
			opt := gffOpts(sc)
			opt.Packed = true
			opt.Faults = mpi.RandomKillPlan(seed, ranks, 1, 5)
			res := runGFF(t, sc, ranks, opt)
			sameGFF(t, "packed seeded kill", res, baseline)
			if len(res.Recovery.DeadRanks) != 1 {
				t.Errorf("seed %d: dead ranks = %v, want exactly one", seed, res.Recovery.DeadRanks)
			}
		})
	}
	// Recovery enabled without faults: the checkpointed pooling path.
	opt := gffOpts(sc)
	opt.Packed = true
	opt.Recovery = RecoveryOptions{Enabled: true}
	res := runGFF(t, sc, ranks, opt)
	sameGFF(t, "packed recovery-enabled", res, baseline)
}

// TestGFFPackedShardKmersFallsBack pins the documented interaction:
// Packed is ignored under ShardKmers and the run still matches.
func TestGFFPackedShardKmersFallsBack(t *testing.T) {
	sc := buildScenario(t, 24)
	base := runGFF(t, sc, 4, GFFOptions{K: sc.k, ThreadsPerRank: 2})
	res := runGFF(t, sc, 4, GFFOptions{K: sc.k, ThreadsPerRank: 2, Packed: true, ShardKmers: true})
	sameGFF(t, "packed+sharded", res, base)
}

// TestHarvestWeldsPackedDifferential pins the kernel pair directly on
// adversarial contigs (shared regions, RC-only matches, N bases) —
// identical weld sets and unit charges position by position.
func TestHarvestWeldsPackedDifferential(t *testing.T) {
	sc := buildFaultScenario(t)
	opt := GFFOptions{K: sc.k}
	if err := opt.normalize(); err != nil {
		t.Fatal(err)
	}
	seqs := make([][]byte, len(sc.contigs))
	pseqs := make([]seq.Packed, len(sc.contigs))
	for i := range sc.contigs {
		seqs[i] = sc.contigs[i].Seq
		pseqs[i] = seq.Pack(sc.contigs[i].Seq)
	}
	frozen := sc.kmers.Freeze()
	src, psrc := buildGFFSource(seqs, nil, opt.K, nil), buildGFFSource(nil, pseqs, opt.K, nil)
	if len(src.keys) != len(psrc.keys) {
		t.Fatalf("buildOps %d vs %d", len(psrc.keys), len(src.keys))
	}
	ix, pix := src.occs(0, 0), psrc.occs(0, 0)
	asc, psc := new(weldScratch), new(weldScratch)
	var want, got []weld
	for i := range seqs {
		rot := harvestRotation(3, i, len(seqs[i]))
		var wu, gu float64
		want, wu = harvestWelds(want, seqs[i], i, seqs, ix, frozen, opt, rot, asc)
		got, gu = harvestWeldsPacked(got, pseqs[i], i, pseqs, pix, frozen, opt, rot, psc)
		if wu != gu {
			t.Errorf("contig %d: units %v vs %v", i, gu, wu)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("contig %d: welds %q vs %q", i, weldStrings(got, opt.K), weldStrings(want, opt.K))
		}
	}
	if len(want) == 0 {
		t.Fatal("scenario harvested no welds")
	}

	// Loop 2 differential over the pooled index: the ASCII and the
	// packed frames pool to the same welds.
	pooled := poolWelds([][]byte{appendWeldFrames(nil, want, opt.K, false)}, opt.K, false)
	if pooledP := poolWelds([][]byte{appendWeldFrames(nil, want, opt.K, true)}, opt.K, true); !slices.Equal(pooledP, pooled) {
		t.Fatalf("pooled %v vs %v", pooledP, pooled)
	}
	widx := buildWeldIndex(pooled, opt.K)
	for i := range seqs {
		want, wu := scanContigForWelds(seqs[i], i, widx, asc)
		got, gu := scanContigForWeldsPacked(pseqs[i], i, widx, psc)
		if wu != gu {
			t.Errorf("contig %d: scan units %v vs %v", i, gu, wu)
		}
		if !slices.Equal(got, want) {
			t.Errorf("contig %d: pairs %v vs %v", i, got, want)
		}
	}
}

// TestPackedWeldKernelAllocs is the satellite-1 pin: after warm-up the
// packed welding loops run allocation-free, emitted welds included —
// no per-contig staging, no window materialisation, no scratch churn.
func TestPackedWeldKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dna := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		return s
	}
	const k = 15
	shared := dna(3 * k)
	contigs := make([]seq.Packed, 4)
	reads := make([]seq.Record, 0, 8)
	for i := range contigs {
		b := append(append(dna(100), shared...), dna(100)...)
		if i%2 == 1 {
			b = seq.ReverseComplement(b)
		}
		contigs[i] = seq.Pack(b)
		reads = append(reads, seq.Record{ID: "r", Seq: b}, seq.Record{ID: "r", Seq: b})
	}
	table, err := jellyfish.Count(reads, jellyfish.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	frozen := table.Freeze()
	pix := buildPackedContigIndex(contigs, k)
	opt := GFFOptions{K: k}
	if err := opt.normalize(); err != nil {
		t.Fatal(err)
	}
	sc := new(weldScratch)
	var welds []weld
	harvest := func() {
		welds = welds[:0]
		for i := range contigs {
			welds, _ = harvestWeldsPacked(welds, contigs[i], i, contigs, pix, frozen, opt, 0, sc)
		}
	}
	harvest() // warm up: grows every scratch buffer to steady state
	if len(welds) == 0 {
		t.Fatal("scenario emits no welds")
	}
	if avg := testing.AllocsPerRun(20, harvest); avg > 0 {
		t.Errorf("harvestWeldsPacked allocates %.1f per sweep; want 0", avg)
	}

	widx := buildWeldIndex(poolWelds([][]byte{appendWeldFrames(nil, welds, k, true)}, k, true), k)
	scan := func() {
		for i := range contigs {
			scanContigForWeldsPacked(contigs[i], i, widx, sc)
		}
	}
	scan()
	if avg := testing.AllocsPerRun(20, scan); avg > 0 {
		t.Errorf("scanContigForWeldsPacked allocates %.1f per sweep; want 0", avg)
	}
}
