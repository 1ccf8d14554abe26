package chrysalis

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"gotrinity/internal/kmer"
	"gotrinity/internal/mpi"
	"gotrinity/internal/shard"
)

// Determinism battery for the sharded fetch pipeline: rank counts ×
// clean and faulted seeds, each compared against the replicated
// baseline. The pipeline reorders only the arrival of answers, so any
// divergence is a bug in the overlap layer, not the workload.
//
// The fault scenario's 20 GFF chunks and 15 R2T chunks fit one tile per
// rank; the *TilePipeline* tests below run the same checks on a scenario
// deep enough for several tiles per rank, so Start(t+1) before Wait(t),
// the per-tile tags and the empty-tile padding all carry traffic.

// TestGFFOverlapDeterminismBattery: clean runs over every rank count.
func TestGFFOverlapDeterminismBattery(t *testing.T) {
	sc := buildFaultScenario(t)
	for _, ranks := range []int{1, 4, 16} {
		baseline := runGFF(t, sc, ranks, gffOpts(sc))
		opt := gffOpts(sc)
		opt.ShardKmers = true
		res := runGFF(t, sc, ranks, opt)
		sameGFF(t, "overlap-vs-replicated", res, baseline)
		for r, p := range res.Profiles {
			if len(p.Overlap1) == 0 || len(p.Overlap2) == 0 {
				t.Errorf("ranks=%d rank=%d: overlap meters missing (%d, %d tiles)",
					ranks, r, len(p.Overlap1), len(p.Overlap2))
			}
			for _, m := range append(append([]TileMeter{}, p.Overlap1...), p.Overlap2...) {
				if m.Deferred {
					t.Errorf("ranks=%d rank=%d: clean run deferred a tile", ranks, r)
				}
			}
		}
	}
}

// TestGFFOverlapFaultedBattery: seeded one-rank kill plans over the
// overlapped pipeline — deaths landing on the nonblocking tile ops must
// defer through the cleanup pass and still match the fault-free
// replicated baseline.
func TestGFFOverlapFaultedBattery(t *testing.T) {
	sc := buildFaultScenario(t)
	for _, ranks := range []int{4, 16} {
		baseline := runGFF(t, sc, ranks, gffOpts(sc))
		for seed := int64(1); seed <= 3; seed++ {
			guard(t, 60*time.Second, func() {
				opt := gffOpts(sc)
				opt.ShardKmers = true
				opt.Faults = mpi.RandomKillPlan(seed, ranks, 1, 12)
				res := runGFF(t, sc, ranks, opt)
				sameGFF(t, "overlap faulted", res, baseline)
				if res.Recovery == nil || len(res.Recovery.DeadRanks) != 1 {
					t.Errorf("ranks=%d seed=%d: recovery report %+v, want one dead rank",
						ranks, seed, res.Recovery)
				}
			})
		}
	}
}

// TestR2TOverlapDeterminismBattery mirrors the GFF battery for the
// sharded ReadsToTranscripts bundle tables: the tile pipeline must
// reproduce the replicated assignments.
func TestR2TOverlapDeterminismBattery(t *testing.T) {
	sc := buildFaultScenario(t)
	gff := runGFF(t, sc, 4, gffOpts(sc))
	for _, ranks := range []int{1, 4, 16} {
		baseline := runR2T(t, sc, gff.Components, ranks, r2tOpts(sc))
		if len(baseline.Assignments) == 0 {
			t.Fatal("baseline assigned no reads")
		}
		full := baseline.Profiles[0].ResidentKmerBytes
		if full <= 0 {
			t.Fatalf("ranks=%d: replicated resident = %d", ranks, full)
		}
		opt := r2tOpts(sc)
		opt.ShardKmers = true
		res := runR2T(t, sc, gff.Components, ranks, opt)
		if !reflect.DeepEqual(res.Assignments, baseline.Assignments) {
			t.Errorf("ranks=%d: sharded assignments differ from replicated", ranks)
		}
		for r, p := range res.Profiles {
			if len(p.Overlap) == 0 {
				t.Errorf("ranks=%d rank=%d: no overlap meters", ranks, r)
			}
			// The sharded rank holds its ~1/R shard plus one transient
			// tile replica; from 4 ranks up that must undercut the
			// replicated full table.
			if ranks >= 4 && p.ResidentKmerBytes >= full {
				t.Errorf("ranks=%d rank=%d: sharded resident %d >= replicated %d",
					ranks, r, p.ResidentKmerBytes, full)
			}
			if ranks > 1 && p.ShardExchangeBytes == 0 {
				t.Errorf("ranks=%d rank=%d: no exchange bytes metered", ranks, r)
			}
		}
	}
}

// TestR2TOverlapFaultedBattery: seeded kills over the overlapped
// sharded R2T path.
func TestR2TOverlapFaultedBattery(t *testing.T) {
	sc := buildFaultScenario(t)
	gff := runGFF(t, sc, 4, gffOpts(sc))
	for _, ranks := range []int{4, 16} {
		baseline := runR2T(t, sc, gff.Components, ranks, r2tOpts(sc))
		for seed := int64(1); seed <= 3; seed++ {
			guard(t, 60*time.Second, func() {
				opt := r2tOpts(sc)
				opt.ShardKmers = true
				opt.Faults = mpi.RandomKillPlan(seed, ranks, 1, 12)
				res := runR2T(t, sc, gff.Components, ranks, opt)
				if !reflect.DeepEqual(res.Assignments, baseline.Assignments) {
					t.Errorf("ranks=%d seed=%d: assignments differ from fault-free baseline", ranks, seed)
				}
				if res.Recovery == nil || len(res.Recovery.DeadRanks) != 1 {
					t.Errorf("ranks=%d seed=%d: recovery report %+v, want one dead rank",
						ranks, seed, res.Recovery)
				}
			})
		}
	}
}

// TestR2TShardKmersBlockingFaults kills an owner early in the tile
// pipeline (the labels name where the same call index landed before the
// fetch was pipelined): the lost frames defer their tiles and the run
// must converge through the blocking cleanup pass — a retry round and an
// adopted shard — with the fault-free assignments.
func TestR2TShardKmersBlockingFaults(t *testing.T) {
	sc := buildFaultScenario(t)
	const ranks = 4
	gff := runGFF(t, sc, ranks, gffOpts(sc))
	baseline := runR2T(t, sc, gff.Components, ranks, r2tOpts(sc))
	for _, tc := range []struct {
		name string
		plan *mpi.FaultPlan
	}{
		{"kill at first fetch agreement",
			mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultKill, Rank: 1, AtCall: 0})},
		{"kill mid fetch round",
			mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultKill, Rank: 2, AtCall: 1})},
		{"kill after fetch",
			mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultKill, Rank: 3, AtCall: 6})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			guard(t, 30*time.Second, func() {
				opt := r2tOpts(sc)
				opt.ShardKmers = true
				opt.Faults = tc.plan
				res := runR2T(t, sc, gff.Components, ranks, opt)
				if !reflect.DeepEqual(res.Assignments, baseline.Assignments) {
					t.Errorf("assignments differ from fault-free baseline")
				}
				if res.Recovery == nil {
					t.Fatal("no recovery report")
				}
				if res.Recovery.ShardRounds == 0 || len(res.Recovery.ReassignedShards) == 0 {
					t.Errorf("did not go through the blocking cleanup pass: %+v", res.Recovery)
				}
			})
		})
	}
}

// buildTileScenario is the multi-tile world: 134 contigs (134 GFF chunks
// at ChunkSize 1) and 6496 reads (130 R2T chunks at MaxMemReads 50).
// Round-robin over 4 ranks that is 33–34 (GFF) and 32–33 (R2T) chunks
// per rank — five tiles of fetchTileChunks, the last one short or, for
// R2T ranks 2 and 3, empty; over 16 ranks it is 8–9 per rank, so the
// first few ranks run two tiles and the rest pad the second.
func buildTileScenario(t testing.TB) *testScenario {
	t.Helper()
	return buildWeldScenario(t, 63, 8, 4)
}

// wantTileShape checks one rank count's tile layout against the chunk
// arithmetic: every rank's meters span the world-wide tile count, that
// count is at least two, and (when wantPadding) some rank's last tile is
// an empty padding tile. perRank[r] is rank r's chunk count.
func wantTileShape(t *testing.T, what string, perRank []int, meters func(rank int) []TileMeter, wantPadding bool) int {
	t.Helper()
	tiles := tileCount(func(r int) int { return perRank[r] }, len(perRank))
	if tiles < 2 {
		t.Fatalf("%s: %d tile(s) per rank, the scenario must give at least 2", what, tiles)
	}
	padded := false
	for r, n := range perRank {
		if got := len(meters(r)); got != tiles {
			t.Errorf("%s rank=%d: %d tile meters, want %d", what, r, got, tiles)
		}
		if n <= (tiles-1)*fetchTileChunks {
			padded = true
		}
	}
	if padded != wantPadding {
		t.Errorf("%s: padding tile present = %v, want %v (chunks per rank %v)", what, padded, wantPadding, perRank)
	}
	return tiles
}

// roundRobinCounts returns how many of n chunks each rank owns.
func roundRobinCounts(n, ranks int) []int {
	out := make([]int, ranks)
	for ch := 0; ch < n; ch++ {
		out[ch%ranks]++
	}
	return out
}

// deferredLaterTile reports whether any rank deferred a tile other than
// the first — a frame lost while the pipeline was already past tile 0.
func deferredLaterTile(meters ...[]TileMeter) bool {
	for _, ms := range meters {
		for t, m := range ms {
			if t > 0 && m.Deferred {
				return true
			}
		}
	}
	return false
}

// deferredMiddleTile reports whether some rank deferred a tile t ≥ 1
// and still had chunks in tile t+2 — the tile that takes over the
// deferred one's slot of the two-state ring while it waits for the
// cleanup. perRank[r] is rank r's chunk count.
func deferredMiddleTile(perRank []int, meters func(rank int) []TileMeter) bool {
	for r, n := range perRank {
		for t, m := range meters(r) {
			if t > 0 && m.Deferred && n > (t+2)*fetchTileChunks {
				return true
			}
		}
	}
	return false
}

// tileFault is one fault aimed at a pipeline with tiles in flight.
type tileFault struct {
	name    string
	plan    *mpi.FaultPlan
	timeout time.Duration // RankTimeout, for the drops only a receive timeout reveals
	later   bool          // must defer a tile past the first
	middle  bool          // must defer a middle tile (deferredMiddleTile)
}

// tileFaultCases builds the faulted half of the tile batteries. A tile
// costs a rank 2(ranks-1) operations to Start and 2(ranks-1) to Wait,
// and the pipeline opens Start(0), Start(1), Wait(0): call 4(ranks-1)+1
// is the second reply send of Wait(0), with tile 1's queries already
// posted. A rank's messages to one peer go query 0, query 1, reply 0, …,
// so message 1 is tile 1's query and message 2 is tile 0's reply sent
// under tile 1. The seeded kills land anywhere in the first phase's
// pipeline.
func tileFaultCases(ranks, tiles int) []tileFault {
	cases := []tileFault{
		{name: "kill in Wait(0) with tile 1 in flight", later: true,
			plan: mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultKill, Rank: 1, AtCall: 4*(ranks-1) + 1})},
		// With four or more tiles, rank 1 defers tile 1 and runs tiles 2
		// and 3 on the ring before the cleanup answers it.
		{name: "dropped tile-1 query", later: true, middle: tiles >= 4, timeout: 300 * time.Millisecond,
			plan: mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultDropMsg, Rank: 1, Dst: 2, AtCall: 1})},
		{name: "dropped tile-0 reply under tile 1", timeout: 300 * time.Millisecond,
			plan: mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultDropMsg, Rank: 1, Dst: 2, AtCall: 2})},
	}
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases, tileFault{name: fmt.Sprintf("seeded kill %d", seed),
			plan: mpi.RandomKillPlan(seed, ranks, 1, tiles*4*(ranks-1))})
	}
	return cases
}

// TestGFFTilePipelineBattery runs both welding loops through several
// tiles per rank, clean and faulted, against the replicated baseline.
func TestGFFTilePipelineBattery(t *testing.T) {
	sc := buildTileScenario(t)
	for _, ranks := range []int{4, 16} {
		baseline := runGFF(t, sc, ranks, gffOpts(sc))
		opt := gffOpts(sc)
		opt.ShardKmers = true
		res := runGFF(t, sc, ranks, opt)
		sameGFF(t, "tile pipeline vs replicated", res, baseline)
		perRank := roundRobinCounts(len(sc.contigs), ranks)
		tiles := wantTileShape(t, "loop 1", perRank,
			func(r int) []TileMeter { return res.Profiles[r].Overlap1 }, ranks == 16)
		wantTileShape(t, "loop 2", perRank,
			func(r int) []TileMeter { return res.Profiles[r].Overlap2 }, ranks == 16)
		for r, p := range res.Profiles {
			if deferredLaterTile(p.Overlap1, p.Overlap2) || p.Overlap1[0].Deferred || p.Overlap2[0].Deferred {
				t.Errorf("ranks=%d rank=%d: clean run deferred a tile", ranks, r)
			}
		}
		for _, tc := range tileFaultCases(ranks, tiles) {
			guard(t, 60*time.Second, func() {
				opt := gffOpts(sc)
				opt.ShardKmers = true
				opt.Faults = tc.plan
				opt.Recovery.RankTimeout = tc.timeout
				res := runGFF(t, sc, ranks, opt)
				sameGFF(t, tc.name, res, baseline)
				if res.Recovery == nil || res.Recovery.ShardRounds == 0 {
					t.Errorf("ranks=%d %s: no cleanup round recorded: %+v", ranks, tc.name, res.Recovery)
				}
				if tc.later {
					var all [][]TileMeter
					for _, p := range res.Profiles {
						all = append(all, p.Overlap1)
					}
					if !deferredLaterTile(all...) {
						t.Errorf("ranks=%d %s: no tile past the first was deferred", ranks, tc.name)
					}
				}
				if tc.middle && !deferredMiddleTile(perRank, func(r int) []TileMeter { return res.Profiles[r].Overlap1 }) {
					t.Errorf("ranks=%d %s: no rank deferred a middle tile with two more behind it", ranks, tc.name)
				}
			})
		}
	}
}

// TestR2TTilePipelineBattery is the same for the sharded bundle tables.
func TestR2TTilePipelineBattery(t *testing.T) {
	sc := buildTileScenario(t)
	gff := runGFF(t, sc, 4, gffOpts(sc))
	for _, ranks := range []int{4, 16} {
		baseline := runR2T(t, sc, gff.Components, ranks, r2tOpts(sc))
		if len(baseline.Assignments) == 0 {
			t.Fatal("baseline assigned no reads")
		}
		opt := r2tOpts(sc)
		opt.ShardKmers = true
		res := runR2T(t, sc, gff.Components, ranks, opt)
		if !reflect.DeepEqual(res.Assignments, baseline.Assignments) {
			t.Errorf("ranks=%d: sharded assignments differ from replicated", ranks)
		}
		nChunks := (len(sc.reads) + opt.MaxMemReads - 1) / opt.MaxMemReads
		perRank := roundRobinCounts(nChunks, ranks)
		tiles := wantTileShape(t, "r2t", perRank,
			func(r int) []TileMeter { return res.Profiles[r].Overlap }, true)
		for r, p := range res.Profiles {
			if deferredLaterTile(p.Overlap) || p.Overlap[0].Deferred {
				t.Errorf("ranks=%d rank=%d: clean run deferred a tile", ranks, r)
			}
		}
		for _, tc := range tileFaultCases(ranks, tiles) {
			guard(t, 60*time.Second, func() {
				opt := r2tOpts(sc)
				opt.ShardKmers = true
				opt.Faults = tc.plan
				opt.Recovery.RankTimeout = tc.timeout
				res := runR2T(t, sc, gff.Components, ranks, opt)
				if !reflect.DeepEqual(res.Assignments, baseline.Assignments) {
					t.Errorf("ranks=%d %s: assignments differ from fault-free baseline", ranks, tc.name)
				}
				if res.Recovery == nil || res.Recovery.ShardRounds == 0 {
					t.Errorf("ranks=%d %s: no cleanup round recorded: %+v", ranks, tc.name, res.Recovery)
				}
				if tc.later {
					var all [][]TileMeter
					for _, p := range res.Profiles {
						all = append(all, p.Overlap)
					}
					if !deferredLaterTile(all...) {
						t.Errorf("ranks=%d %s: no tile past the first was deferred", ranks, tc.name)
					}
				}
				if tc.middle && !deferredMiddleTile(perRank, func(r int) []TileMeter { return res.Profiles[r].Overlap }) {
					t.Errorf("ranks=%d %s: no rank deferred a middle tile with two more behind it", ranks, tc.name)
				}
			})
		}
	}
}

// TestTileHelpers pins the tile arithmetic the pipeline's world-wide
// alignment depends on.
func TestTileHelpers(t *testing.T) {
	n := func(counts ...int) func(int) int { return func(r int) int { return counts[r] } }
	if got := tileCount(n(0, 0), 2); got != 1 {
		t.Errorf("tileCount all-empty = %d, want 1", got)
	}
	if got := tileCount(n(3, 17, 8), 3); got != 3 {
		t.Errorf("tileCount = %d, want 3 (ceil(17/8))", got)
	}
	chunks := []int{2, 5, 8, 11, 14, 17, 20, 23, 26, 29}
	if got := tileSlice(chunks, 0); !reflect.DeepEqual(got, chunks[:8]) {
		t.Errorf("tile 0 = %v", got)
	}
	if got := tileSlice(chunks, 1); !reflect.DeepEqual(got, []int{26, 29}) {
		t.Errorf("tile 1 = %v", got)
	}
	if got := tileSlice(chunks, 2); got != nil {
		t.Errorf("tile 2 = %v, want nil", got)
	}
}

// TestOverlapHiddenSeconds pins the hidden-fetch model: tile 0 is
// always exposed, later fetches hide up to the previous tile's compute,
// and deferred tiles hide nothing.
func TestOverlapHiddenSeconds(t *testing.T) {
	comm := func(s mpi.Stats) float64 { return float64(s.BytesSent) }
	work := func(u float64) float64 { return u }
	meters := []TileMeter{
		{Fetch: mpi.Stats{BytesSent: 10}, ComputeUnits: 8},
		{Fetch: mpi.Stats{BytesSent: 6}, ComputeUnits: 100, Deferred: true},
		{Fetch: mpi.Stats{BytesSent: 9}, ComputeUnits: 1},
	}
	hidden, total := OverlapHiddenSeconds(meters, comm, work)
	if total != 25 {
		t.Errorf("total = %v, want 25", total)
	}
	// Tile 1's fetch (6) hides under tile 0's compute (8) → min = 6.
	// Tile 2 follows a deferred tile → exposed.
	if hidden != 6 {
		t.Errorf("hidden = %v, want 6", hidden)
	}
}

// TestOverlapFetcherDeferredTileKeepsState drives the fetcher directly
// with a dropped tile-1 query, so rank 1 defers the middle tile of its
// four while tiles 2 and 3 cycle through the two-state ring. Every
// tile, deferred or not, must compute once, on exactly the distinct
// queries it collected in first-seen order, each answered with its own
// value, and on its own dedup set: the set must map query i to id i and
// hold nothing else, and a replica built over it must answer every
// query with its value and no other tile's k-mer at all. A deferred
// tile whose state a later tile reused would compute on that tile's
// queries or set.
func TestOverlapFetcherDeferredTileKeepsState(t *testing.T) {
	guard(t, 60*time.Second, func() {
		const ranks, tiles = 3, 4
		plan := mpi.NewFaultPlan(mpi.Fault{Kind: mpi.FaultDropMsg, Rank: 1, Dst: 2, AtCall: 1})
		env := newLoopEnv(ranks, 1, 1, false, plan, RecoveryOptions{RankTimeout: 300 * time.Millisecond}, nil)
		led := newFetchLedger(ranks)
		value := func(m kmer.Kmer) uint64 { return uint64(m)*31 + 7 }
		// Tile t of rank r probes 40 k-mers of its own, each twice, then
		// 10 that every tile of the rank probes.
		probes := func(r, t int, add func(kmer.Kmer)) {
			for j := 0; j < 40; j++ {
				m := kmer.Kmer(r<<20 | t<<10 | j)
				add(m)
				add(m)
			}
			for j := 0; j < 10; j++ {
				add(kmer.Kmer(1<<30 | r<<20 | j))
			}
		}
		computed := make([][]int, ranks)
		meters := make([][]TileMeter, ranks)
		sets := make([][tiles]*kmer.FlatSet, ranks) // the dedup set each tile computed on
		_, errs := env.world.RunE(func(c *Comm) error {
			r := c.Rank()
			var exchanged int64
			f := &overlapFetcher{
				c: c, env: env, stage: "test/fetch", exchanged: &exchanged, led: led,
				tagBase: overlapTagLoop1, tiles: tiles, bound: 90, state: &fetchState{},
				collect: func(t int, add func(kmer.Kmer)) { probes(r, t, add) },
				answer: func(m kmer.Kmer, dst []byte) []byte {
					return binary.LittleEndian.AppendUint64(dst, value(m))
				},
				compute: func(t int, set *kmer.FlatSet, queries []kmer.Kmer, b *shard.Batch) (float64, error) {
					var want []kmer.Kmer
					var err error
					seen := map[kmer.Kmer]bool{}
					probes(r, t, func(m kmer.Kmer) {
						if !seen[m] {
							seen[m] = true
							want = append(want, m)
						}
					})
					if !reflect.DeepEqual(queries, want) {
						return 0, fmt.Errorf("rank %d tile %d computed on %d other queries", r, t, len(queries))
					}
					if set.Len() != len(queries) {
						return 0, fmt.Errorf("rank %d tile %d: dedup set holds %d k-mers for %d queries", r, t, set.Len(), len(queries))
					}
					replica := kmer.RowsOver[uint64](set, len(queries))
					for i, m := range queries {
						if id, ok := set.Lookup(m); !ok || int(id) != i {
							return 0, fmt.Errorf("rank %d tile %d: dedup set gives query %d id %d (%v)", r, t, i, id, ok)
						}
						body := b.Body(i)
						if len(body) != 8 || binary.LittleEndian.Uint64(body) != value(m) {
							return 0, fmt.Errorf("rank %d tile %d: answer to %v is %x", r, t, m, body)
						}
						replica.Push(binary.LittleEndian.Uint64(body))
						replica.EndRow()
					}
					for other := 0; other < tiles; other++ {
						probes(r, other, func(m kmer.Kmer) {
							row := replica.Row(m)
							own := seen[m]
							if own && (len(row) != 1 || row[0] != value(m)) || !own && row != nil {
								err = fmt.Errorf("rank %d tile %d: replica answers tile %d's %v with %v", r, t, other, m, row)
							}
						})
					}
					if err != nil {
						return 0, err
					}
					sets[r][t] = set
					computed[r] = append(computed[r], t)
					return float64(len(queries)), nil
				},
			}
			var err error
			meters[r], err = f.run()
			return err
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
			got := slices.Clone(computed[r])
			slices.Sort(got)
			if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
				t.Errorf("rank %d computed tiles %v, want each of 0..3 once", r, computed[r])
			}
			for tile, m := range meters[r] {
				if m.Queries != 50 {
					t.Errorf("rank %d tile %d: %d queries metered, want 50", r, tile, m.Queries)
				}
			}
		}
		if m := meters[1]; !m[1].Deferred || m[2].Deferred || m[3].Deferred {
			t.Errorf("rank 1 deferred %v, want the middle tile 1 alone", []bool{m[0].Deferred, m[1].Deferred, m[2].Deferred, m[3].Deferred})
		}
		if !reflect.DeepEqual(computed[1], []int{0, 2, 3, 1}) {
			t.Errorf("rank 1 computed tiles in order %v, want the deferred tile 1 last", computed[1])
		}
		if s := sets[1]; s[1] == s[3] || s[0] != s[2] {
			t.Errorf("rank 1: deferred tile 1 shares its set with tile 3 (%v), or tiles 0 and 2 do not share the ring's (%v)",
				s[1] == s[3], s[0] == s[2])
		}
	})
}
