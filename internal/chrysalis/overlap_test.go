package chrysalis

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"gotrinity/internal/mpi"
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
func buildTileScenario(t *testing.T) *testScenario {
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

// tileFault is one fault aimed at a pipeline with tiles in flight.
type tileFault struct {
	name    string
	plan    *mpi.FaultPlan
	timeout time.Duration // RankTimeout, for the drops only a receive timeout reveals
	later   bool          // must defer a tile past the first
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
		{name: "dropped tile-1 query", later: true, timeout: 300 * time.Millisecond,
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
		tiles := wantTileShape(t, "r2t", roundRobinCounts(nChunks, ranks),
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
