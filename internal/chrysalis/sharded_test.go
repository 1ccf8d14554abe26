package chrysalis

import (
	"runtime"
	"testing"
	"time"

	"gotrinity/internal/mpi"
)

// TestGFFShardKmersMatchesReplicated is the sharding acceptance
// criterion: for every rank count, ShardKmers must produce output
// byte-identical to the replicated path while each rank holds only a
// fraction of the lookup state.
func TestGFFShardKmersMatchesReplicated(t *testing.T) {
	for _, build := range []struct {
		name string
		sc   *testScenario
	}{
		{"small", buildScenario(t, 11)},
		{"welded-pairs", buildFaultScenario(t)},
	} {
		for _, ranks := range []int{1, 2, 3, 4, 8} {
			opt := GFFOptions{K: build.sc.k, ThreadsPerRank: 2}
			base := runGFF(t, build.sc, ranks, opt)
			opt.ShardKmers = true
			res := runGFF(t, build.sc, ranks, opt)
			sameGFF(t, build.name, res, base)

			// Every rank of the replicated run holds the full tables;
			// a sharded rank holds its ~1/R shard plus the ~1/R partial
			// replica its loops queried, so resident state scales like
			// 2/R: at R=2 it about breaks even (hash-table rounding can
			// push it a little over), and from R=4 every rank must hold
			// strictly less than the replicated full size.
			full := base.Profiles[0].ResidentKmerBytes
			if full <= 0 {
				t.Fatalf("%s ranks=%d: replicated resident = %d", build.name, ranks, full)
			}
			for r, p := range res.Profiles {
				if ranks >= 4 && p.ResidentKmerBytes >= full {
					t.Errorf("%s ranks=%d rank=%d: sharded resident %d >= replicated %d",
						build.name, ranks, r, p.ResidentKmerBytes, full)
				}
				// At ranks=1 the one rank is its own remote: it holds the
				// whole table as the shard AND as the fetched replica
				// (~2× full + rounding) — the flag only pays off with
				// real partitioning.
				bound := full * 3 / 2
				if ranks == 1 {
					bound = full * 3
				}
				if p.ResidentKmerBytes > bound {
					t.Errorf("%s ranks=%d rank=%d: sharded resident %d blew past replicated %d",
						build.name, ranks, r, p.ResidentKmerBytes, full)
				}
				if ranks == 1 && p.ShardExchangeBytes != 0 {
					t.Errorf("%s: single rank moved %d exchange bytes", build.name, p.ShardExchangeBytes)
				}
				if ranks > 1 && p.ShardExchangeBytes == 0 {
					t.Errorf("%s ranks=%d rank=%d: no exchange bytes metered", build.name, ranks, r)
				}
				if base.Profiles[r].ShardExchangeBytes != 0 {
					t.Errorf("%s: replicated path metered exchange bytes", build.name)
				}
			}
		}
	}
}

// TestGFFShardKmersResidentShrinks pins the memory claim at a rank
// count where it is unambiguous: with 8 ranks the mean per-rank
// resident k-mer state must be well under half the replicated size.
func TestGFFShardKmersResidentShrinks(t *testing.T) {
	sc := buildFaultScenario(t)
	const ranks = 8
	opt := GFFOptions{K: sc.k, ThreadsPerRank: 2}
	base := runGFF(t, sc, ranks, opt)
	opt.ShardKmers = true
	res := runGFF(t, sc, ranks, opt)
	sameGFF(t, "resident-shrink", res, base)
	full := base.Profiles[0].ResidentKmerBytes
	var sum int64
	for _, p := range res.Profiles {
		sum += p.ResidentKmerBytes
	}
	mean := sum / ranks
	if mean*2 >= full {
		t.Errorf("mean sharded resident %d not < half of replicated %d", mean, full)
	}
}

// TestGFFShardKmersFaultScenarios composes sharding with the fault
// layer: ranks killed during the tile pipeline's fetches or the welding
// loops, and a dropped fetch frame, must all recover with output
// identical to the fault-free replicated run — the dead rank's shard is
// rebuilt by an adopting survivor from the shared source, and the lost
// frames are re-requested by the blocking cleanup pass.
func TestGFFShardKmersFaultScenarios(t *testing.T) {
	sc := buildFaultScenario(t)
	const ranks = 4
	baseline := runGFF(t, sc, ranks, gffOpts(sc))

	scenarios := []struct {
		name       string
		plan       *mpi.FaultPlan
		timeout    time.Duration // RankTimeout, for faults only a receive timeout reveals
		wantShards bool          // a survivor must have adopted the victim's shard
		wantRounds bool          // the fetch loop must have needed a retry round
	}{
		{
			// Dies at its very first MPI call — tile 0's first send — so
			// every frame it owed defers to the cleanup pass.
			name:       "kill at first fetch agreement",
			plan:       mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultKill, Rank: 1, AtCall: 0}),
			wantShards: true,
		},
		{
			// Dies inside tile 0's lookup round: its answers are lost and
			// the survivors need a retry round under the shrunken owner
			// map.
			name:       "kill mid fetch round",
			plan:       mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultKill, Rank: 2, AtCall: 1}),
			wantShards: true,
			wantRounds: true,
		},
		{
			// Dies a few calls into the loop-1 pipeline: chunk recovery
			// recomputes its chunks and the survivors adopt its shard.
			name:       "kill mid loop1 chunks",
			plan:       mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultKill, Rank: 3, AtCall: 6}),
			wantShards: true,
		},
		{
			// One dropped tile frame (rank 1's first message to rank 2):
			// the receive times out, the tile defers, and the cleanup
			// pass re-requests the lost frames.
			name:       "dropped fetch frame",
			plan:       mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultDropMsg, Rank: 1, Dst: 2, AtCall: 0}),
			timeout:    200 * time.Millisecond,
			wantRounds: true,
		},
	}
	for _, tc := range scenarios {
		t.Run(tc.name, func(t *testing.T) {
			guard(t, 30*time.Second, func() {
				opt := gffOpts(sc)
				opt.ShardKmers = true
				opt.Faults = tc.plan
				opt.Recovery.RankTimeout = tc.timeout
				res := runGFF(t, sc, ranks, opt)
				sameGFF(t, tc.name, res, baseline)
				if res.Recovery == nil {
					t.Fatal("no recovery report")
				}
				if tc.wantShards && len(res.Recovery.ReassignedShards) == 0 {
					t.Errorf("no shard adoption recorded: %+v", res.Recovery)
				}
				if tc.wantRounds && res.Recovery.ShardRounds == 0 {
					t.Errorf("no fetch retry round recorded: %+v", res.Recovery)
				}
			})
		})
	}
}

// TestGFFShardKmersSeededKills sweeps seeded one-rank kill plans over
// the sharded path — whatever call the death lands on, the output must
// match the fault-free replicated baseline.
func TestGFFShardKmersSeededKills(t *testing.T) {
	sc := buildFaultScenario(t)
	const ranks = 4
	baseline := runGFF(t, sc, ranks, gffOpts(sc))
	for seed := int64(1); seed <= 5; seed++ {
		guard(t, 30*time.Second, func() {
			opt := gffOpts(sc)
			opt.ShardKmers = true
			opt.Faults = mpi.RandomKillPlan(seed, ranks, 1, 12)
			res := runGFF(t, sc, ranks, opt)
			sameGFF(t, "sharded seeded kill", res, baseline)
			if len(res.Recovery.DeadRanks) != 1 {
				t.Errorf("seed %d: dead ranks = %v, want exactly one", seed, res.Recovery.DeadRanks)
			}
		})
	}
}

// TestRecoverChunksEvictionPropagates pins the fixed error path of the
// recovery exchange: a rank evicted as a straggler inside
// recoverChunks' TryAllgatherv must surface its eviction instead of
// swallowing it and looping on as a zombie.
func TestRecoverChunksEvictionPropagates(t *testing.T) {
	guard(t, 30*time.Second, func() {
		const ranks = 4
		w := mpi.NewWorld(ranks)
		// Rank 1 sleeps 1s per MPI call from its third call on — late
		// enough to survive the first AgreeDead, so the eviction lands
		// inside the recovery loop's own collectives.
		w.SetFaults(mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultSlow, Rank: 1, AtCall: 2, Delay: time.Second}))
		w.SetBarrierTimeout(100 * time.Millisecond)
		w.SetRecvTimeout(100 * time.Millisecond)
		store := newChunkStore[int](4)
		_, errs := w.RunE(func(c *mpi.Comm) error {
			rep := &recReport{}
			return recoverChunks(c, "evict", RecoveryOptions{MaxRounds: 8}, rep, nil,
				store.missing,
				func(ch int) ([]byte, float64) {
					store.put(ch, []int{ch}, []float64{1})
					return []byte{byte(ch)}, 1
				})
		})
		if fe, ok := mpi.AsFault(errs[1]); !ok || !fe.Evicted {
			t.Errorf("straggler rank 1 err = %v, want an evicted *mpi.FaultError", errs[1])
		}
		for r, err := range errs {
			if r != 1 && err != nil {
				t.Errorf("survivor rank %d: %v", r, err)
			}
		}
		if miss := store.missing(); len(miss) != 0 {
			t.Errorf("survivors left chunks unrecovered: %v", miss)
		}
	})
}

// shardedFetchRun runs GraphFromFasta and ReadsToTranscripts over sc
// on four ranks with sharded tables and returns how many distinct
// k-mers their tiles looked up.
func shardedFetchRun(tb testing.TB, sc *testScenario) (queries int) {
	tb.Helper()
	const ranks = 4
	gopt := gffOpts(sc)
	gopt.ShardKmers = true
	gff, err := GraphFromFasta(sc.contigs, sc.kmers, ranks, gopt)
	if err != nil {
		tb.Fatal(err)
	}
	ropt := r2tOpts(sc)
	ropt.ShardKmers = true
	r2t, err := ReadsToTranscripts(sc.reads, sc.contigs, gff.Components, ranks, ropt)
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range gff.Profiles {
		for _, m := range append(p.Overlap1, p.Overlap2...) {
			queries += m.Queries
		}
	}
	for _, p := range r2t.Profiles {
		for _, m := range p.Overlap {
			queries += m.Queries
		}
	}
	return queries
}

// maxBytesPerFetchedQuery bounds what a sharded GFF+R2T run allocates
// per k-mer its tiles look up: the run over the tile scenario allocates
// about 115 bytes per query (about 133 under the race detector), with
// count shards served from the count table in place, tile replicas
// built over the tiles' dedup sets and answers located by offset; the
// bound keeps the 80-byte margin it had over the 160 bytes per query of
// the re-hashed replicas and per-query frame tables. Per-owner append
// routing and both-strand R2T queries before those took about 310 bytes
// per query over 35 % more queries — 420 per query of today's count.
const maxBytesPerFetchedQuery = 195

// TestShardedFetchAllocs guards the sharded fetch path's allocation per
// query: routing, collection, the wire buffers and the replicas must
// stay proportional to what a tile holds.
func TestShardedFetchAllocs(t *testing.T) {
	sc := buildTileScenario(t)
	shardedFetchRun(t, sc) // warm the sync.Pools and the lazily built tables
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	queries := shardedFetchRun(t, sc)
	runtime.ReadMemStats(&after)
	if queries == 0 {
		t.Fatal("no queries fetched")
	}
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / float64(queries)
	t.Logf("%d queries, %.0f bytes allocated per query", queries, perQuery)
	if perQuery > maxBytesPerFetchedQuery {
		t.Errorf("%.0f bytes allocated per fetched query, bound %d", perQuery, maxBytesPerFetchedQuery)
	}
}

// BenchmarkShardedFetch times one sharded GFF+R2T run over the tile
// scenario on four ranks and reports its allocation per fetched query.
func BenchmarkShardedFetch(b *testing.B) {
	sc := buildTileScenario(b)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	queries := 0
	for i := 0; i < b.N; i++ {
		queries += shardedFetchRun(b, sc)
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(queries), "B/query")
}
