package chrysalis

import (
	"fmt"
	"runtime"

	"gotrinity/internal/kmer"
	"gotrinity/internal/mpi"
	"gotrinity/internal/omp"
	"gotrinity/internal/trace"
)

// The hybrid loop — the paper's one parallelisation scheme, written once.
//
// §III applies the same scheme to GraphFromFasta loop 1 (weld harvest),
// loop 2 (pair finding) and ReadsToTranscripts: the index range is cut
// into chunks dealt round-robin to the MPI ranks (Fig. 3), each rank
// runs its chunks over its OpenMP threads, and the per-rank results are
// pooled. A stage describes one such loop as data — the Distribution, a
// chunk kernel, the lookup tables the kernel probes (replicated, or
// sharded behind batched lookup rounds) and a payload codec — and the
// loop owns everything the three applications have in common: each
// rank's chunk list, the fault point before every chunk, the per-item
// cost record, the checkpoint store and chunk recovery of the fault
// layer, the tile pipeline over sharded tables with its meters, and the
// cost replay that turns item costs into a per-rank makespan.
//
// The clean and the checkpointed run execute the same kernel; they
// differ only in where a chunk's result is recorded (a shared cost
// array vs the checkpoint store) and in how the ranks settle afterwards
// (a barrier vs recovery rounds).
//
// The OpenMP level is real: a chunk's items run as contiguous blocks
// over the rank's workers under a dynamic schedule (contig lengths are
// heavy-tailed, §III-B), and the blocks' outputs are appended in block
// order, so a chunk's output is the serial kernel's bit for bit. The
// cost replay still spreads item costs over the logical threads, so
// profiles and traces do not depend on the host.
//
// Invariant: the loop makes exactly the MPI calls and Probe points the
// three hand-written loops made, in the same per-rank order, all on the
// rank's own goroutine — the workers only run the kernel. Seeded fault
// plans address operations by per-rank call ordinal, so moving a call
// would silently retarget every recorded fault scenario.

// loopEnv is what the loops of one stage execution share: the world
// they run in, the cost-replay parameters, and the fault layer's
// switches and report.
type loopEnv struct {
	world    *mpi.World
	threads  int  // OpenMP threads per rank in the cost replay
	replicas int  // statistical copies in the cost replay (replicate.go)
	static   bool // OpenMP static schedule in the cost replay (ablation)
	// workers is how many goroutines run one chunk's items: the rank's
	// threads, capped at its share of the host's cores, so ranks that
	// already fill the cores keep one worker each.
	workers int

	// active turns on the fault layer: chunks checkpoint, collectives
	// are the Try* forms, and settle runs recovery rounds. A fault plan
	// implies it.
	active  bool
	ro      RecoveryOptions
	rep     *recReport
	rec     *trace.Recorder
	adopted []map[int]bool // per rank: shards it has rebuilt for a dead owner
}

func newLoopEnv(ranks, threads, replicas int, static bool, faults *mpi.FaultPlan,
	recovery RecoveryOptions, rec *trace.Recorder) *loopEnv {
	e := &loopEnv{
		world: mpi.NewWorld(ranks), threads: threads, replicas: replicas, static: static,
		workers: min(threads, max(1, runtime.GOMAXPROCS(0)/ranks)),
		active:  faults != nil || recovery.Enabled, ro: recovery.withDefaults(),
		rep: &recReport{}, rec: rec, adopted: make([]map[int]bool, ranks),
	}
	for r := range e.adopted {
		e.adopted[r] = map[int]bool{}
	}
	if faults != nil {
		e.world.SetFaults(faults)
	}
	if e.active && e.ro.RankTimeout > 0 {
		e.world.SetBarrierTimeout(e.ro.RankTimeout)
		e.world.SetRecvTimeout(e.ro.RankTimeout)
	}
	if rec != nil {
		e.world.SetObserver(rec)
	}
	return e
}

// noteAdoption records that rank rebuilt shard s for a dead owner, once
// per rank and shard however many of the stage's tables it covers.
func (e *loopEnv) noteAdoption(rank, s int) {
	if e.adopted[rank][s] {
		return
	}
	e.adopted[rank][s] = true
	e.rep.addShard(s)
	e.rec.Event("shard", "shard_adopted", rank, fmt.Sprintf("shard=%d", s))
}

// report is the stage's RecoveryReport, nil when the fault layer was off.
func (e *loopEnv) report(stage string) *RecoveryReport {
	if !e.active {
		return nil
	}
	return e.rep.snapshot(stage, e.world.DeadRanks())
}

// overlapLanes exports one rank's tile pipeline as the modelled
// double-buffered fetch/compute lanes and returns where they end.
func (e *loopEnv) overlapLanes(cat, name string, rank int, start float64, meters []TileMeter) float64 {
	var fetch, comp []float64
	for _, m := range meters {
		fetch = append(fetch, e.rec.CommSeconds(m.Fetch))
		comp = append(comp, e.rec.WorkSeconds(m.ComputeUnits/float64(e.threads)))
	}
	return e.rec.OverlapLanes(cat, name, rank, start, fetch, comp)
}

// stageResult picks the stage output: any completing rank holds the
// identical result (without the fault layer that is always rank 0). No
// result at all folds the per-rank errors into the most informative one.
func stageResult[R any](stage string, results []*R, errs []error) (*R, error) {
	for _, r := range results {
		if r != nil {
			return r, nil
		}
	}
	return nil, stageError(stage, errs)
}

// hybridLoop is one application of the scheme. The first block is the
// stage's description; newHybridLoop adds the state the loop owns.
// T is the item a chunk produces (a weld, a pair, an assignment), L the
// lookup structure its kernel probes.
type hybridLoop[T, L any] struct {
	env   *loopEnv
	stage string       // recovery-phase label, e.g. "graphfromfasta/welds"
	dist  Distribution // items → chunks → ranks (Fig. 3)
	// kernel computes items [lo, hi) of one chunk against look, writes
	// costs[i-lo] for every item and appends what the chunk produced to
	// dst. It is the checkpoint unit: a deterministic function of lo, hi
	// and look, so any rank may recompute any chunk.
	kernel func(lo, hi int, look L, costs []float64, dst []T) []T
	// full returns the complete replicated tables. A replicated run
	// probes them directly; a sharded run builds them only if recovery
	// must recompute a foreign chunk, whose k-mers no local tile fetched.
	full    func() L
	sharded *shardedLookup[L]   // nil: every rank holds the full tables
	encode  func([]T) []byte    // a chunk's payload on the wire (recovery exchange)
	scan    func(i int) float64 // optional: cost of streaming past item i of another rank's chunk

	costs  []float64      // clean run: per-item costs, each written by its chunk's owner
	store  *chunkStore[T] // fault layer: items and costs per chunk, first writer wins
	led    *fetchLedger   // sharded: the fetch phase's completion ledger
	ran    []int          // per rank: chunks started
	blocks [][][]T        // per rank: the workers' block outputs, reused chunk to chunk
}

// newHybridLoop allocates the world-shared state of a described loop.
// Only the clean run shares one cost array: the fault layer keeps costs
// in the checkpoint store, so an evicted straggler's late writes cannot
// race with the survivors' replay.
func newHybridLoop[T, L any](lp hybridLoop[T, L]) *hybridLoop[T, L] {
	lp.ran = make([]int, lp.dist.Ranks)
	lp.blocks = make([][][]T, lp.dist.Ranks)
	if lp.env.active {
		lp.store = newChunkStore[T](lp.dist.Chunks())
	} else {
		lp.costs = make([]float64, lp.dist.N)
	}
	if lp.sharded != nil {
		lp.led = newFetchLedger(lp.dist.Ranks)
	}
	return &lp
}

// loopRun is what one rank takes out of its chunks.
type loopRun[T any] struct {
	mine []T // the rank's items, in chunk order
	// Sharded runs only: one meter per tile of the fetch pipeline, the
	// largest tile replica that was resident, the rank's shard store
	// (own plus adopted), and the addressed bytes its lookups moved.
	meters     []TileMeter
	peakTile   int64
	shardBytes int64
	exchanged  int64
}

// runChunk runs the kernel over one of rank's chunks, records the
// result where the run keeps it, and returns dst extended by the chunk's
// items plus the units spent. A clean run's kernel appends straight onto
// dst and writes the shared cost array; the fault layer needs the
// chunk's items and costs on their own, for the store.
func (lp *hybridLoop[T, L]) runChunk(rank, ch int, look L, dst []T) ([]T, float64) {
	lo, hi := lp.dist.ChunkRange(ch)
	var costs []float64
	if lp.store == nil {
		costs = lp.costs[lo:hi]
		dst = lp.parallelKernel(rank, lo, hi, look, costs, dst)
	} else {
		costs = make([]float64, hi-lo)
		items := lp.parallelKernel(rank, lo, hi, look, costs, nil)
		lp.store.put(ch, items, costs)
		dst = append(dst, items...)
	}
	var units float64
	for _, u := range costs {
		units += u
	}
	return dst, units
}

// blocksPerWorker is how many contiguous blocks a chunk is cut into per
// worker: enough for the dynamic schedule to even out heavy-tailed item
// costs, few enough that a block amortises its kernel call.
const blocksPerWorker = 8

// parallelKernel runs the kernel over items [lo, hi) on the env's
// workers and appends the items to dst in item order. Each block writes
// its own slots of costs and its own reused output buffer of rank's, so
// the result is the serial kernel's exactly.
func (lp *hybridLoop[T, L]) parallelKernel(rank, lo, hi int, look L, costs []float64, dst []T) []T {
	n := hi - lo
	if lp.env.workers <= 1 || n <= 1 {
		return lp.kernel(lo, hi, look, costs, dst)
	}
	nb := min(n, blocksPerWorker*lp.env.workers)
	if k := nb - len(lp.blocks[rank]); k > 0 {
		lp.blocks[rank] = append(lp.blocks[rank], make([][]T, k)...)
	}
	bufs := lp.blocks[rank][:nb]
	omp.ParallelFor(nb, lp.env.workers, omp.Schedule{Kind: omp.Dynamic}, func(b, _ int) {
		blo, bhi := lo+b*n/nb, lo+(b+1)*n/nb
		bufs[b] = lp.kernel(blo, bhi, look, costs[blo-lo:bhi-lo], bufs[b][:0])
	})
	for _, buf := range bufs {
		dst = append(dst, buf...)
	}
	return dst
}

// run executes this rank's chunks: straight through against the full
// tables, or — over sharded tables — tile by tile, tile t+1's lookup
// round in flight while tile t's chunks compute on its just-built
// partial replica (overlap.go). The meters are returned even with an
// error.
func (lp *hybridLoop[T, L]) run(c *Comm) (loopRun[T], error) {
	rank := c.Rank()
	var out loopRun[T]
	compute := func(chunks []int, look L) (units float64) {
		for _, ch := range chunks {
			lp.ran[rank]++
			c.Probe() // fault point: a rank can die between chunks
			var u float64
			out.mine, u = lp.runChunk(rank, ch, look, out.mine)
			units += u
		}
		return units
	}
	mine := lp.dist.RankChunks(rank)
	sh := lp.sharded
	if sh == nil {
		compute(mine, lp.full())
		return out, nil
	}
	set := &shardSet{env: lp.env, ranks: lp.dist.Ranks, rank: rank, build: sh.build, held: map[int]tableShard{}}
	set.shard(rank)
	f := &overlapFetcher{
		c: c, env: lp.env, stage: sh.label, exchanged: &out.exchanged, led: lp.led, tagBase: sh.tagBase,
		tiles: tileCount(func(r int) int { return len(lp.dist.RankChunks(r)) }, lp.dist.Ranks),
		collect: func(t int) []kmer.Kmer {
			return collectQueryKmers(lp.dist, tileSlice(mine, t), sh.iterate)
		},
		answer: set.answer,
		compute: func(t int, queries []kmer.Kmer, bodies [][]byte) (float64, error) {
			chunks := tileSlice(mine, t)
			if len(chunks) == 0 {
				return 0, nil
			}
			look, bytes, err := sh.cache(queries, bodies)
			if err != nil {
				return 0, err
			}
			// Tile replicas are transient: only the largest was ever resident.
			if bytes > out.peakTile {
				out.peakTile = bytes
			}
			return compute(chunks, look), nil
		},
	}
	var err error
	out.meters, err = f.run()
	out.shardBytes = set.bytes()
	return out, err
}

// settle brings every live rank to the point where all chunks' results
// and costs are visible. A clean run needs one barrier (the owners have
// all written the shared cost array); under the fault layer the
// survivors recompute whatever a dead rank or a lost contribution left
// missing from the checkpoint store.
func (lp *hybridLoop[T, L]) settle(c *Comm) error {
	if lp.store == nil {
		c.Barrier()
		return nil
	}
	return recoverChunks(c, lp.stage, lp.env.ro, lp.env.rep, lp.env.rec, lp.store.missing,
		func(ch int) ([]byte, float64) {
			items, units := lp.runChunk(c.Rank(), ch, lp.full(), nil)
			return lp.encode(items), units
		})
}

// itemCosts returns every item's recorded cost; call after settle (or
// after the world has completed).
func (lp *hybridLoop[T, L]) itemCosts() []float64 {
	if lp.store != nil {
		return lp.store.itemCosts(lp.dist.N, lp.dist.ChunkRange)
	}
	return lp.costs
}

// makespan replays the settled item costs through the rank's logical
// threads: the loop makespan, the thread imbalance (max/min), and —
// with a scan cost — the units spent streaming past other ranks' chunks.
func (lp *hybridLoop[T, L]) makespan(rank int) (loop, imbalance, stream float64) {
	return replicatedMakespan(lp.dist, lp.itemCosts(), lp.scan, rank, lp.env.replicas, lp.env.threads, lp.env.static)
}

// checkpointed returns every chunk's items in chunk order once the
// checkpoint store is complete — what a fault-layer run pools from in
// place of the gathered parts, so a killed rank or a dropped
// contribution cannot lose items. ok is false on a clean run or while
// chunks are missing.
func (lp *hybridLoop[T, L]) checkpointed() (parts [][]T, ok bool) {
	if lp.store == nil || len(lp.store.missing()) > 0 {
		return nil, false
	}
	parts = make([][]T, lp.dist.Chunks())
	for ch := range parts {
		parts[ch] = lp.store.chunk(ch)
	}
	return parts, true
}
