package chrysalis

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/mpi"
	"gotrinity/internal/seq"
)

// guard fails the test if the scenario hangs — the fault layer's
// contract is "recover or fail with a typed error, never hang".
func guard(t *testing.T, d time.Duration, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("fault scenario hung")
	}
}

// buildFaultScenario generates a world big enough for chunk-level
// faults to be interesting: 8 welded contig pairs plus 4 lone contigs
// (20 contigs → 20 chunks at ChunkSize 1), fully covered by reads.
func buildFaultScenario(t *testing.T) *testScenario {
	t.Helper()
	return buildWeldScenario(t, 8, 4, 3)
}

// buildWeldScenario generates `pairs` welded contig pairs plus `lone`
// unwelded contigs, each tiled `reps` times over by 50-base reads.
func buildWeldScenario(t testing.TB, pairs, lone, reps int) *testScenario {
	t.Helper()
	const k = 15
	rng := rand.New(rand.NewSource(99))
	dna := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		return s
	}
	var contigs []seq.Record
	for p := 0; p < pairs; p++ {
		shared := dna(3 * k)
		a := append(append(dna(60), shared...), dna(60)...)
		b := append(append(dna(60), shared...), dna(60)...)
		contigs = append(contigs,
			seq.Record{ID: "A", Seq: a},
			seq.Record{ID: "B", Seq: b})
	}
	for l := 0; l < lone; l++ {
		contigs = append(contigs, seq.Record{ID: "L", Seq: dna(180)})
	}
	var reads []seq.Record
	for _, c := range contigs {
		for rep := 0; rep < reps; rep++ {
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

func gffOpts(sc *testScenario) GFFOptions {
	return GFFOptions{K: sc.k, ThreadsPerRank: 2, ChunkSize: 1}
}

func runGFF(t *testing.T, sc *testScenario, ranks int, opt GFFOptions) *GFFResult {
	t.Helper()
	res, err := GraphFromFasta(sc.contigs, sc.kmers, ranks, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameGFF(t *testing.T, name string, got, want *GFFResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Components, want.Components) {
		t.Errorf("%s: components differ: %v vs %v", name, got.Components, want.Components)
	}
	if !reflect.DeepEqual(got.Welds, want.Welds) {
		t.Errorf("%s: pooled welds differ (%d vs %d)", name, len(got.Welds), len(want.Welds))
	}
	if got.NumPairs != want.NumPairs {
		t.Errorf("%s: NumPairs = %d, want %d", name, got.NumPairs, want.NumPairs)
	}
}

// TestGFFFaultScenarios is the ISSUE's scenario table: rank death
// mid-GraphFromFasta, a dropped collective contribution, and a 10×
// straggler must all recover with output identical to the fault-free
// run.
func TestGFFFaultScenarios(t *testing.T) {
	sc := buildFaultScenario(t)
	const ranks = 4
	baseline := runGFF(t, sc, ranks, gffOpts(sc))

	scenarios := []struct {
		name      string
		plan      func() *mpi.FaultPlan
		recovery  RecoveryOptions
		wantDead  []int
		wantDrops bool
	}{
		{
			name: "rank death mid-loop1",
			plan: func() *mpi.FaultPlan {
				return mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultKill, Rank: 1, AtCall: 2})
			},
			wantDead: []int{1},
		},
		{
			name: "rank death mid-loop2",
			plan: func() *mpi.FaultPlan {
				// Each rank owns 5 chunks (calls 0–4 are loop-1 probes);
				// call 8 lands inside the loop-2 probe sequence.
				return mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultKill, Rank: 3, AtCall: 8})
			},
			wantDead: []int{3},
		},
		{
			name: "two rank deaths",
			plan: func() *mpi.FaultPlan {
				return mpi.NewFaultPlan(
					mpi.Fault{Kind: mpi.FaultKill, Rank: 0, AtCall: 1},
					mpi.Fault{Kind: mpi.FaultKill, Rank: 2, AtCall: 3})
			},
			wantDead: []int{0, 2},
		},
		{
			name: "dropped pooling contribution",
			plan: func() *mpi.FaultPlan {
				// Collective 1 is the loop-1 weld Allgatherv.
				return mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultDropContribution, Rank: 1, AtCall: 1})
			},
			wantDrops: true,
		},
		{
			name: "straggler rank 10x slower",
			plan: func() *mpi.FaultPlan {
				// Rank 2 sleeps 1s per MPI call; peers evict it after 100ms
				// at the pooling barrier, ~10× faster than it moves.
				return mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultSlow, Rank: 2, AtCall: 0, Delay: time.Second})
			},
			recovery: RecoveryOptions{RankTimeout: 100 * time.Millisecond},
			wantDead: []int{2},
		},
	}
	for _, tc := range scenarios {
		t.Run(tc.name, func(t *testing.T) {
			guard(t, 30*time.Second, func() {
				opt := gffOpts(sc)
				opt.Faults = tc.plan()
				opt.Recovery = tc.recovery
				res := runGFF(t, sc, ranks, opt)
				sameGFF(t, tc.name, res, baseline)
				if res.Recovery == nil {
					t.Fatal("no recovery report")
				}
				if tc.wantDead != nil {
					if !reflect.DeepEqual(res.Recovery.DeadRanks, tc.wantDead) {
						t.Errorf("dead ranks = %v, want %v", res.Recovery.DeadRanks, tc.wantDead)
					}
					if res.Recovery.Rounds == 0 || len(res.Recovery.ReassignedChunks) == 0 {
						t.Errorf("no recovery happened: %+v", res.Recovery)
					}
				}
				if tc.wantDrops && res.Recovery.DroppedContribs == 0 {
					t.Errorf("dropped contribution not detected: %+v", res.Recovery)
				}
			})
		})
	}
}

// TestGFFSeededKillMatchesFaultFree is the acceptance criterion: a
// seeded FaultPlan killing one of 4 ranks during GraphFromFasta yields
// results identical to the fault-free run.
func TestGFFSeededKillMatchesFaultFree(t *testing.T) {
	sc := buildFaultScenario(t)
	const ranks = 4
	baseline := runGFF(t, sc, ranks, gffOpts(sc))
	for seed := int64(1); seed <= 5; seed++ {
		guard(t, 30*time.Second, func() {
			opt := gffOpts(sc)
			opt.Faults = mpi.RandomKillPlan(seed, ranks, 1, 5) // dies during loop 1
			res := runGFF(t, sc, ranks, opt)
			sameGFF(t, "seeded kill", res, baseline)
			if len(res.Recovery.DeadRanks) != 1 {
				t.Errorf("seed %d: dead ranks = %v, want exactly one", seed, res.Recovery.DeadRanks)
			}
		})
	}
}

func TestGFFRecoveryEnabledWithoutFaultsIsIdentical(t *testing.T) {
	sc := buildFaultScenario(t)
	for _, ranks := range []int{1, 2, 4} {
		baseline := runGFF(t, sc, ranks, gffOpts(sc))
		opt := gffOpts(sc)
		opt.Recovery = RecoveryOptions{Enabled: true}
		res := runGFF(t, sc, ranks, opt)
		sameGFF(t, "recovery-enabled", res, baseline)
		if res.Recovery.Rounds != 0 || len(res.Recovery.DeadRanks) != 0 {
			t.Errorf("ranks=%d: clean run reported recovery: %+v", ranks, res.Recovery)
		}
	}
}

func TestGFFAllRanksDeadFailsTyped(t *testing.T) {
	sc := buildFaultScenario(t)
	guard(t, 30*time.Second, func() {
		plan := mpi.NewFaultPlan(
			mpi.Fault{Kind: mpi.FaultKill, Rank: 0, AtCall: 0},
			mpi.Fault{Kind: mpi.FaultKill, Rank: 1, AtCall: 0})
		opt := gffOpts(sc)
		opt.Faults = plan
		_, err := GraphFromFasta(sc.contigs, sc.kmers, 2, opt)
		if err == nil {
			t.Fatal("no error with every rank dead")
		}
		var fe *mpi.FaultError
		var ue *UnrecoverableError
		if !errors.As(err, &fe) && !errors.As(err, &ue) {
			t.Fatalf("error %v (%T) is not a typed fault error", err, err)
		}
	})
}

func TestRecoverChunksExhaustsRoundsTyped(t *testing.T) {
	guard(t, 30*time.Second, func() {
		w := mpi.NewWorld(2)
		w.SetFaults(mpi.NewFaultPlan())
		rankErrs := make([]error, 2)
		w.RunE(func(c *mpi.Comm) error {
			rep := &recReport{}
			// A chunk that never completes: compute checkpoints nothing.
			rankErrs[c.Rank()] = recoverChunks(c, "stuck", RecoveryOptions{MaxRounds: 2}, rep, nil,
				func() []int { return []int{7} },
				func(ch int) ([]byte, float64) { return nil, 0 })
			return nil
		})
		for r, err := range rankErrs {
			var ue *UnrecoverableError
			if !errors.As(err, &ue) {
				t.Fatalf("rank %d err = %v, want *UnrecoverableError", r, err)
			}
			if ue.Rounds != 2 || !reflect.DeepEqual(ue.MissingChunks, []int{7}) {
				t.Errorf("rank %d report = %+v", r, ue)
			}
		}
	})
}

// TestRecoverChunksExactMultipleCoverage pins the reassignment rule at
// its boundary: when the missing-chunk count is an exact multiple of
// the survivor count, missing[i] goes to alive[i mod len(alive)], every
// chunk is recomputed exactly once, and no survivor is skipped.
func TestRecoverChunksExactMultipleCoverage(t *testing.T) {
	guard(t, 30*time.Second, func() {
		const ranks, chunks = 4, 8 // 8 % 4 == 0
		w := mpi.NewWorld(ranks)
		w.SetFaults(mpi.NewFaultPlan())
		store := newChunkStore[int](chunks)
		var mu sync.Mutex
		computedBy := map[int][]int{}
		rankErrs := make([]error, ranks)
		w.RunE(func(c *mpi.Comm) error {
			rep := &recReport{}
			rankErrs[c.Rank()] = recoverChunks(c, "boundary", RecoveryOptions{MaxRounds: 3}, rep, nil,
				store.missing,
				func(ch int) ([]byte, float64) {
					mu.Lock()
					computedBy[ch] = append(computedBy[ch], c.Rank())
					mu.Unlock()
					store.put(ch, []int{ch}, []float64{1})
					return []byte{byte(ch)}, 1
				})
			return nil
		})
		for r, err := range rankErrs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		for ch := 0; ch < chunks; ch++ {
			if got := computedBy[ch]; len(got) != 1 || got[0] != ch%ranks {
				t.Errorf("chunk %d computed by %v, want exactly [%d]", ch, got, ch%ranks)
			}
		}
	})
}

// TestRecoverChunksExactMultipleAfterDeath repeats the boundary with a
// rank killed during the agreement: the missing count is then an exact
// multiple of the shrunken survivor set, and the modular reassignment
// must still cover every chunk exactly once.
func TestRecoverChunksExactMultipleAfterDeath(t *testing.T) {
	guard(t, 30*time.Second, func() {
		const ranks, chunks = 4, 6 // survivors = 3 after one death; 6 % 3 == 0
		w := mpi.NewWorld(ranks)
		w.SetFaults(mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultKill, Rank: 1, AtCall: 0}))
		store := newChunkStore[int](chunks)
		var mu sync.Mutex
		computedBy := map[int][]int{}
		_, worldErrs := w.RunE(func(c *mpi.Comm) error {
			rep := &recReport{}
			return recoverChunks(c, "boundary", RecoveryOptions{MaxRounds: 4}, rep, nil,
				store.missing,
				func(ch int) ([]byte, float64) {
					mu.Lock()
					computedBy[ch] = append(computedBy[ch], c.Rank())
					mu.Unlock()
					store.put(ch, []int{ch}, []float64{1})
					return []byte{byte(ch)}, 1
				})
		})
		for r, err := range worldErrs {
			if r == 1 {
				var fe *mpi.FaultError
				if !errors.As(err, &fe) || !fe.Killed {
					t.Errorf("killed rank 1 err = %v, want a killed *mpi.FaultError", err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("survivor rank %d: %v", r, err)
			}
		}
		alive := []int{0, 2, 3}
		for ch := 0; ch < chunks; ch++ {
			want := alive[ch%len(alive)]
			if got := computedBy[ch]; len(got) != 1 || got[0] != want {
				t.Errorf("chunk %d computed by %v, want exactly [%d]", ch, got, want)
			}
		}
	})
}

func r2tOpts(sc *testScenario) R2TOptions {
	return R2TOptions{K: sc.k, ThreadsPerRank: 2, MaxMemReads: 50}
}

func runR2T(t *testing.T, sc *testScenario, comps []Component, ranks int, opt R2TOptions) *R2TResult {
	t.Helper()
	res, err := ReadsToTranscripts(sc.reads, sc.contigs, comps, ranks, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestR2TFaultScenarios mirrors the GFF table for ReadsToTranscripts:
// rank death mid-assignment and a dropped Gatherv contribution must
// both recover with identical read assignments.
func TestR2TFaultScenarios(t *testing.T) {
	sc := buildFaultScenario(t)
	const ranks = 4
	gff := runGFF(t, sc, ranks, gffOpts(sc))
	baseline := runR2T(t, sc, gff.Components, ranks, r2tOpts(sc))
	if len(baseline.Assignments) == 0 {
		t.Fatal("baseline assigned no reads")
	}

	scenarios := []struct {
		name      string
		plan      *mpi.FaultPlan
		recovery  RecoveryOptions
		wantDead  []int
		wantDrops bool
	}{
		{
			name:     "rank death mid-assignment",
			plan:     mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultKill, Rank: 2, AtCall: 1}),
			wantDead: []int{2},
		},
		{
			name: "dropped Gatherv contribution",
			// Collective 2 is the output Gatherv (0 = barrier, 1 = size
			// exchange).
			plan:      mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultDropContribution, Rank: 1, AtCall: 2}),
			wantDrops: true,
		},
		{
			name: "straggler rank 10x slower",
			plan: mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultSlow, Rank: 3, AtCall: 0, Delay: time.Second}),
			recovery: RecoveryOptions{
				RankTimeout: 100 * time.Millisecond,
			},
			wantDead: []int{3},
		},
	}
	for _, tc := range scenarios {
		t.Run(tc.name, func(t *testing.T) {
			guard(t, 30*time.Second, func() {
				opt := r2tOpts(sc)
				opt.Faults = tc.plan
				opt.Recovery = tc.recovery
				res := runR2T(t, sc, gff.Components, ranks, opt)
				if !reflect.DeepEqual(res.Assignments, baseline.Assignments) {
					t.Errorf("assignments differ: %d vs %d", len(res.Assignments), len(baseline.Assignments))
				}
				if res.Recovery == nil {
					t.Fatal("no recovery report")
				}
				if tc.wantDead != nil && !reflect.DeepEqual(res.Recovery.DeadRanks, tc.wantDead) {
					t.Errorf("dead ranks = %v, want %v", res.Recovery.DeadRanks, tc.wantDead)
				}
				if tc.wantDrops && res.Recovery.DroppedContribs == 0 {
					t.Errorf("dropped contribution not detected: %+v", res.Recovery)
				}
			})
		})
	}
}

// TestR2TRootDeathStillProducesOutput kills rank 0 (the gather root):
// the output must be rebuilt from the checkpoint store by the caller.
func TestR2TRootDeathStillProducesOutput(t *testing.T) {
	sc := buildFaultScenario(t)
	const ranks = 4
	gff := runGFF(t, sc, ranks, gffOpts(sc))
	baseline := runR2T(t, sc, gff.Components, ranks, r2tOpts(sc))
	guard(t, 30*time.Second, func() {
		opt := r2tOpts(sc)
		opt.Faults = mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultKill, Rank: 0, AtCall: 1})
		res := runR2T(t, sc, gff.Components, ranks, opt)
		if !reflect.DeepEqual(res.Assignments, baseline.Assignments) {
			t.Errorf("assignments differ after root death: %d vs %d",
				len(res.Assignments), len(baseline.Assignments))
		}
		if !reflect.DeepEqual(res.Recovery.DeadRanks, []int{0}) {
			t.Errorf("dead ranks = %v, want [0]", res.Recovery.DeadRanks)
		}
	})
}
