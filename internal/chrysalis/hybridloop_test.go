package chrysalis

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"gotrinity/internal/kmer"
	"gotrinity/internal/mpi"
)

// The scheme pinned once, independent of welds: a toy loop whose items
// are their own indices, whose item cost is the index, and whose kernel
// looks every item up in a toy table — replicated, or sharded behind the
// real tile pipeline.

type toyTable map[kmer.Kmer]uint64

func toyValue(i int) uint64 { return uint64(i)*7 + 3 }

// toyMiss is what the kernel emits for an item whose lookup came back
// wrong, so a broken replica shows up in the pooled items.
const toyMiss = int64(-1)

func newToyLoop(env *loopEnv, dist Distribution, sharded bool) *hybridLoop[int64, toyTable] {
	slice := func(ranks, s int) toyTable {
		t := toyTable{}
		for i := 0; i < dist.N; i++ {
			if m := kmer.Kmer(i); ranks == 0 || kmer.OwnerRank(m, ranks) == s {
				t[m] = toyValue(i)
			}
		}
		return t
	}
	lp := hybridLoop[int64, toyTable]{
		env: env, stage: "toy/items", dist: dist, encode: packInt64s,
		kernel: func(lo, hi int, look toyTable, costs []float64, items []int64) []int64 {
			for i := lo; i < hi; i++ {
				costs[i-lo] = float64(i)
				if v, ok := look[kmer.Kmer(i)]; ok && v == toyValue(i) {
					items = append(items, int64(i))
				} else {
					items = append(items, toyMiss)
				}
			}
			return items
		},
		full: func() toyTable { return slice(0, 0) },
	}
	if sharded {
		lp.sharded = &shardedLookup[toyTable]{
			label: "toy/fetch", tagBase: overlapTagLoop1,
			iterate: func(i int, add func(kmer.Kmer)) { add(kmer.Kmer(i)) },
			build: func(s int) tableShard {
				rows := slice(dist.Ranks, s)
				return tableShard{bytes: int64(16 * len(rows)), answer: func(m kmer.Kmer, dst []byte) []byte {
					return binary.LittleEndian.AppendUint64(dst, rows[m])
				}}
			},
			cache: func(queries []kmer.Kmer, bodies [][]byte) (toyTable, int64, error) {
				t := toyTable{}
				for i, m := range queries {
					if len(bodies[i]) != 8 {
						return nil, 0, fmt.Errorf("toy answer for %v is %d bytes", m, len(bodies[i]))
					}
					t[m] = binary.LittleEndian.Uint64(bodies[i])
				}
				return t, int64(16 * len(t)), nil
			},
		}
	}
	return newHybridLoop(lp)
}

// toyOutcome is what one rank of the toy stage ends with.
type toyOutcome struct {
	pooled   []int64
	makespan float64
	run      loopRun[int64]
}

// runToyStage drives the loop the way GraphFromFasta's pair pooling
// does: run, exchange (before settling under the fault layer, after it
// on a clean run), then pool from the store or from the gathered parts.
func runToyStage(lp *hybridLoop[int64, toyTable]) ([]*toyOutcome, []error) {
	env := lp.env
	outs := make([]*toyOutcome, lp.dist.Ranks)
	_, errs := env.world.RunE(func(c *Comm) error {
		r, err := lp.run(c)
		if err != nil {
			return err
		}
		var parts [][]int64
		if env.active {
			c.TryAllgatherInt(len(r.mine))
			c.TryAllgathervInt64(r.mine)
		}
		if err := lp.settle(c); err != nil {
			return err
		}
		if !env.active {
			c.AllgatherInt(len(r.mine))
			parts = c.AllgathervInt64(r.mine)
		}
		if chunks, ok := lp.checkpointed(); ok {
			parts = chunks
		}
		out := &toyOutcome{run: r}
		for _, p := range parts {
			out.pooled = append(out.pooled, p...)
		}
		sort.Slice(out.pooled, func(i, j int) bool { return out.pooled[i] < out.pooled[j] })
		out.makespan, _, _ = lp.makespan(c.Rank())
		outs[c.Rank()] = out
		return nil
	})
	return outs, errs
}

// toyRecord is what a toy-stage run must reproduce at every worker
// count: each rank's items in the order its chunks produced them, its
// pooled items and replayed makespan, the item costs, the chunks each
// rank started and the recovery report, its reassigned chunks sorted
// (survivors record them concurrently). When a sharded run loses a
// rank, whether the dying rank's fetch frames arrived before its death
// was seen decides the tile order, the shard cleanup rounds and the
// adoptions at any worker count, so those are left out: tiles compare
// as sorted items.
type toyRecord struct {
	mine     [][]int64
	pooled   [][]int64
	makespan []float64
	costs    []float64
	ran      []int
	report   *RecoveryReport
}

func recordToy(lp *hybridLoop[int64, toyTable], outs []*toyOutcome, shardFaults bool) toyRecord {
	rec := toyRecord{costs: lp.itemCosts(), ran: lp.ran, report: lp.env.report("toy")}
	for _, out := range outs {
		if out == nil {
			out = &toyOutcome{makespan: -1}
		}
		if shardFaults {
			slices.Sort(out.run.mine)
		}
		rec.mine = append(rec.mine, out.run.mine)
		rec.pooled = append(rec.pooled, out.pooled)
		rec.makespan = append(rec.makespan, out.makespan)
	}
	if rec.report != nil {
		sort.Ints(rec.report.ReassignedChunks)
		if shardFaults {
			rec.report.ShardRounds, rec.report.ReassignedShards = 0, nil
		}
	}
	return rec
}

// TestHybridLoop runs every scenario with 1, 2 and 4 workers per rank:
// the OpenMP level must not change what a rank computes, records or
// replays.
func TestHybridLoop(t *testing.T) {
	const chunkSize, threads, victim = 2, 2, 1
	for _, ranks := range []int{1, 3, 4, 16} {
		sizes := map[string]int{
			"N=0": 0,
			"N=1": 1,
			// 9 chunks per rank: an exact multiple of chunks × ranks, and
			// two tiles of the fetch pipeline.
			"exact multiple":          chunkSize * ranks * (fetchTileChunks + 1),
			"fewer chunks than ranks": chunkSize * (ranks - 1),
		}
		for sizeName, n := range sizes {
			for _, sharded := range []bool{false, true} {
				// Call ordinals on the victim: a replicated rank's first
				// calls are its chunk Probes; a sharded rank first posts
				// Start(0) [and Start(1)] and serves Wait(0), 2(ranks-1)
				// calls each, before its first Probe.
				tiles := 1
				if n > chunkSize*ranks*fetchTileChunks {
					tiles = 2
				}
				firstProbe, firstColl := 0, 0
				if sharded {
					firstProbe, firstColl = 2*(ranks-1)*(tiles+1), 1 // AgreeDead of the fetch cleanup is collective 0
				}
				faults := map[string][]mpi.Fault{"clean": nil}
				if ranks > 1 {
					faults["recovery enabled"] = []mpi.Fault{}
					faults["kill between chunks"] = []mpi.Fault{{Kind: mpi.FaultKill, Rank: victim, AtCall: firstProbe + 1}}
					faults["dropped contribution"] = []mpi.Fault{{Kind: mpi.FaultDropContribution, Rank: victim, AtCall: firstColl + 1}}
					if sharded {
						faults["kill with a tile in flight"] = []mpi.Fault{{Kind: mpi.FaultKill, Rank: victim, AtCall: 4*(ranks-1) + 1}}
					}
				}
				for faultName, fs := range faults {
					name := fmt.Sprintf("ranks=%d/%s/sharded=%v/%s", ranks, sizeName, sharded, faultName)
					t.Run(name, func(t *testing.T) {
						var first toyRecord
						for _, workers := range []int{1, 2, 4} {
							var plan *mpi.FaultPlan
							if fs != nil {
								plan = mpi.NewFaultPlan(fs...)
							}
							dist := Distribution{N: n, Ranks: ranks, ChunkSize: chunkSize}
							env := newLoopEnv(ranks, threads, 1, false, plan, RecoveryOptions{}, nil)
							env.workers = workers
							lp := newToyLoop(env, dist, sharded)
							var outs []*toyOutcome
							var errs []error
							guard(t, 30*time.Second, func() { outs, errs = runToyStage(lp) })

							want := make([]float64, n)
							for i := range want {
								want[i] = float64(i)
							}
							survivors := 0
							for rank, out := range outs {
								if out == nil {
									if rank != victim || plan == nil {
										t.Fatalf("rank %d failed: %v", rank, errs[rank])
									}
									continue
								}
								survivors++
								if len(out.pooled) != n {
									t.Fatalf("rank %d pooled %d items, want %d: %v", rank, len(out.pooled), n, out.pooled)
								}
								for i, item := range out.pooled {
									if item != int64(i) {
										t.Fatalf("rank %d: pooled[%d] = %d, want every item exactly once", rank, i, item)
									}
								}
								direct, _, _ := replicatedMakespan(dist, want, nil, rank, 1, threads, false)
								if out.makespan != direct {
									t.Errorf("rank %d: replayed makespan %v, want %v", rank, out.makespan, direct)
								}
								if sharded && len(out.run.meters) != tiles {
									t.Errorf("rank %d: %d tile meters, want %d", rank, len(out.run.meters), tiles)
								}
							}
							if survivors < ranks-1 {
								t.Fatalf("%d of %d ranks survived", survivors, ranks)
							}
							// On the large input every scheduled kill lands inside
							// the victim's loop, so the scenario is what its name says.
							if killed := len(fs) > 0 && fs[0].Kind == mpi.FaultKill; killed &&
								sizeName == "exact multiple" && outs[victim] != nil {
								t.Errorf("victim rank %d survived its kill", victim)
							}
							if rec := recordToy(lp, outs, sharded && len(fs) > 0); workers == 1 {
								first = rec
							} else if !reflect.DeepEqual(rec, first) {
								t.Errorf("workers=%d: %+v %+v\nworkers=1: %+v %+v", workers, rec, rec.report, first, first.report)
							}
						}
					})
				}
			}
		}
	}
}

// TestStagesIdenticalAcrossWorkers runs GraphFromFasta and
// ReadsToTranscripts with one worker per rank and with four — the
// rank's ThreadsPerRank is 4 and GOMAXPROCS is set to ranks × workers,
// the only input the worker count is derived from — and requires the
// identical result: replicated (ASCII and packed) and sharded, clean
// runs field for field including profiles, and a run that loses a rank
// in its output.
func TestStagesIdenticalAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	gff := buildWeldScenario(t, 40, 20, 2)
	r2t := buildR2TScenario(t, 44, 2000)
	for _, tc := range []struct {
		name          string
		ranks         int
		packed, shard bool
		kill          bool
	}{
		{"ascii", 1, false, false, false},
		{"packed", 1, true, false, false},
		{"packed ranks=2", 2, true, false, false},
		{"sharded ranks=2", 2, false, true, false},
		{"packed ranks=3 kill", 3, true, false, true},
	} {
		var gffs []*GFFResult
		var r2ts []*R2TResult
		for _, workers := range []int{1, 4} {
			runtime.GOMAXPROCS(tc.ranks * workers)
			var faults1, faults2 *mpi.FaultPlan
			if tc.kill {
				faults1, faults2 = mpi.RandomKillPlan(5, tc.ranks, 1, 5), mpi.RandomKillPlan(5, tc.ranks, 1, 5)
			}
			var g *GFFResult
			var r *R2TResult
			guard(t, 30*time.Second, func() {
				var err error
				if g, err = GraphFromFasta(gff.contigs, gff.kmers, tc.ranks, GFFOptions{
					K: gff.k, ThreadsPerRank: 4, Packed: tc.packed, ShardKmers: tc.shard, Faults: faults1}); err != nil {
					t.Error(err)
					return
				}
				r, err = ReadsToTranscripts(r2t.reads, r2t.contigs, r2t.comps, tc.ranks, R2TOptions{
					K: r2t.k, ThreadsPerRank: 4, MaxMemReads: 200, Packed: tc.packed, ShardKmers: tc.shard, Faults: faults2})
				if err != nil {
					t.Error(err)
				}
			})
			if g == nil || r == nil {
				t.Fatalf("%s workers=%d: no result", tc.name, workers)
			}
			gffs, r2ts = append(gffs, g), append(r2ts, r)
		}
		if len(gffs[0].Welds) == 0 || len(r2ts[0].Assignments) == 0 {
			t.Fatalf("%s: the scenario welded or assigned nothing", tc.name)
		}
		if tc.kill {
			sameGFF(t, tc.name, gffs[1], gffs[0])
			if !reflect.DeepEqual(r2ts[1].Assignments, r2ts[0].Assignments) {
				t.Errorf("%s: assignments differ", tc.name)
			}
			continue
		}
		if !reflect.DeepEqual(gffs[1], gffs[0]) {
			t.Errorf("%s: GraphFromFasta at 4 workers differs from 1 worker", tc.name)
		}
		if !reflect.DeepEqual(r2ts[1], r2ts[0]) {
			t.Errorf("%s: ReadsToTranscripts at 4 workers differs from 1 worker", tc.name)
		}
	}
}

// TestShardFetchExhaustsRoundsTyped is the sharded counterpart of
// TestRecoverChunksExhaustsRoundsTyped: every message from rank 1 to
// rank 2 is lost, so rank 2 never gets rank 1's answers and rank 1's
// queries never reach rank 2. Both stay alive (only receives time out,
// nobody is evicted), the fetch cleanup cannot converge, and it must
// give up after exactly the documented budget with a typed error.
func TestShardFetchExhaustsRoundsTyped(t *testing.T) {
	guard(t, 30*time.Second, func() {
		const ranks, budget = 3, 2
		plan := mpi.NewFaultPlan()
		for msg := 0; msg < 32; msg++ {
			plan.Add(mpi.Fault{Kind: mpi.FaultDropMsg, Rank: 1, Dst: 2, AtCall: msg})
		}
		env := newLoopEnv(ranks, 2, 1, false, plan, RecoveryOptions{MaxRounds: budget}, nil)
		env.world.SetRecvTimeout(50 * time.Millisecond)
		lp := newToyLoop(env, Distribution{N: 60, Ranks: ranks, ChunkSize: 2}, true)
		_, errs := runToyStage(lp)
		for rank, err := range errs {
			var ue *UnrecoverableError
			if !errors.As(err, &ue) {
				t.Fatalf("rank %d err = %v, want *UnrecoverableError", rank, err)
			}
			if ue.Rounds != budget || ue.Stage != "toy/fetch" {
				t.Errorf("rank %d gave up with %+v, want Rounds = MaxRounds = %d in toy/fetch", rank, ue, budget)
			}
		}
		if got := env.report("toy").ShardRounds; got != budget {
			t.Errorf("ShardRounds = %d, want %d", got, budget)
		}
	})
}
