package chrysalis

import (
	"fmt"
	"sync"

	"gotrinity/internal/cluster"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/kmer"
	"gotrinity/internal/mpi"
	"gotrinity/internal/seq"
	"gotrinity/internal/trace"
)

// GFFOptions configures GraphFromFasta.
type GFFOptions struct {
	K                 int   // weld seed k-mer length (Trinity: 24/25)
	MinWeldSupport    int   // read occurrences required for every window k-mer (default 2)
	MaxWeldsPerContig int   // harvest cap per contig; the tie-break point that makes output run-dependent (default 100)
	ThreadsPerRank    int   // simulated OpenMP threads per MPI rank (default 16)
	ChunkSize         int   // chunked round-robin chunk size; 0 derives the paper default
	Seed              int64 // run seed perturbing harvest order (0 = fixed order)

	// Replicas evaluates loop timings as if the chunked round-robin
	// stream contained this many statistical copies of the contig
	// population (see replicate.go); it affects metered makespans only,
	// never results. Default 1 (raw scaled-data granularity).
	Replicas int

	// Strategy selects the chunk→rank mapping: the paper's chunked
	// round-robin (default) or the pre-allocated contiguous blocks it
	// rejected; kept for ablations. The clustering result is identical
	// either way — only the metered load balance changes.
	Strategy Strategy

	// StaticSchedule uses the OpenMP static schedule inside each rank
	// instead of the paper's dynamic one (ablation; timing only).
	StaticSchedule bool

	// ShardKmers partitions the k-mer lookup state (read counts, contig
	// occurrence index, weld index) across the ranks by kmer.OwnerRank
	// instead of replicating it on every rank: each rank holds ~1/ranks
	// of the tables and fetches the k-mers its welding loops will probe
	// in batched lookup rounds (see sharded.go), pipelined against
	// compute: the rank's chunks are cut into tiles and tile t+1's round
	// is in flight over nonblocking sends while tile t computes
	// (overlap.go). Results are byte-identical to the replicated path —
	// only per-rank memory and communication change, metered via
	// GFFRankProfile.
	ShardKmers bool

	// Packed runs the welding loops on 2-bit packed contigs
	// (weld_packed.go): word-wise window compares, packed k-mer
	// extraction, and packed welds on the wire. Results, work units,
	// and profiles are byte-identical to the ASCII kernels. Ignored
	// under ShardKmers — the sharded lookup exchange is byte-slice
	// based, and its results are identical either way, so normalize
	// falls back to the ASCII kernels there.
	Packed bool

	// PackedContigs optionally supplies the contigs already packed
	// (index-aligned with the contig records), so a pipeline that packs
	// reads and contigs once can hand them to every stage. When nil and
	// Packed is set, GraphFromFasta packs internally.
	PackedContigs []seq.Packed

	// LoopOpWeight is the cost-model weight of one welding-loop
	// operation relative to one setup operation (default 20). Trinity's
	// inner loops extract, hash and compare string k-mers with poor
	// cache locality, while setup streams the contig file once; the
	// weight is calibrated so the serial-fraction profile matches the
	// paper's Fig. 8 (see EXPERIMENTS.md). It scales metered time only,
	// never results.
	LoopOpWeight float64

	// ScaffoldPairs are contig pairs contributed by the Bowtie
	// alignment step (mate pairs spanning two contigs); they are
	// "combined with welding pairs ... for full construction of
	// Inchworm bundles" (§III-A).
	ScaffoldPairs [][2]int32

	// Faults injects a deterministic failure schedule into the run's
	// MPI world (see mpi.FaultPlan). A non-nil plan implies the
	// recovery layer even if Recovery.Enabled is false.
	Faults *mpi.FaultPlan

	// Recovery configures chunk checkpointing, dead-rank chunk
	// reassignment and the straggler policy (see recovery.go).
	Recovery RecoveryOptions

	// Trace, when non-nil, receives per-rank phase spans in virtual
	// cluster time, per-chunk work observations, MPI traffic (as the
	// world's observer) and fault/recovery events. Purely additive:
	// results and metered profiles are identical with or without it.
	Trace *trace.Recorder
}

func (o *GFFOptions) normalize() error {
	if o.K <= 0 || o.K > kmer.MaxK {
		return fmt.Errorf("chrysalis: weld k=%d out of range", o.K)
	}
	if o.MinWeldSupport <= 0 {
		o.MinWeldSupport = 2
	}
	if o.MaxWeldsPerContig <= 0 {
		o.MaxWeldsPerContig = 100
	}
	if o.ThreadsPerRank <= 0 {
		o.ThreadsPerRank = 16
	}
	if o.LoopOpWeight <= 0 {
		o.LoopOpWeight = 20
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.ShardKmers {
		o.Packed = false
	}
	return nil
}

// Component is one cluster of welded Inchworm contigs — an "Inchworm
// bundle".
type Component struct {
	ID      int
	Contigs []int // indices into the contig set, ascending
}

// GFFRankProfile meters what one rank did, in raw work units and
// communication stats; the cluster cost model converts it to seconds.
type GFFRankProfile struct {
	SetupUnits     float64   // non-parallel: contig k-mer index build
	Loop1Units     float64   // makespan over this rank's logical threads
	Loop1Imbalance float64   // thread load imbalance (max/min) in loop 1
	Comm1          mpi.Stats // weld pooling traffic (including recovery rounds)
	MidUnits       float64   // non-parallel: pooled weld index build
	Loop2Units     float64   // makespan over this rank's logical threads
	Loop2Imbalance float64   // thread load imbalance (max/min) in loop 2
	Comm2          mpi.Stats // pair pooling traffic (including recovery rounds)
	OutputUnits    float64   // non-parallel: union-find + component output
	Welds          int       // welds this rank harvested
	Pairs          int       // weld incidences this rank found

	// ResidentKmerBytes is the rank's peak resident k-mer lookup state:
	// the full replicated tables, or — under ShardKmers — the rank's
	// shards plus the largest single tile's partial replica.
	ResidentKmerBytes int64
	// ShardExchangeBytes counts the addressed bytes this rank moved
	// through sharded lookup rounds (0 unless ShardKmers).
	ShardExchangeBytes int64

	// Overlap1/Overlap2 meter the sharded fetch pipeline's tiles for
	// the two welding loops (nil unless ShardKmers); the
	// experiments layer replays them to estimate hidden fetch time.
	Overlap1 []TileMeter
	Overlap2 []TileMeter
}

// GFFResult is the full GraphFromFasta output.
type GFFResult struct {
	Components []Component
	Welds      []string         // pooled, deduplicated welding subsequences
	Profiles   []GFFRankProfile // one per rank
	NumPairs   int              // total weld incidences pooled
	Recovery   *RecoveryReport  // non-nil when the fault layer was active
}

// GraphFromFasta clusters contigs into components using `ranks` MPI
// processes, each simulating opt.ThreadsPerRank OpenMP threads — the
// paper's hybrid implementation. ranks=1 reproduces the original
// OpenMP-only behaviour: the algorithm and its result are identical
// for every rank count (verified by tests), only the work distribution
// changes.
//
// With a fault plan or Recovery.Enabled, every chunk's welds and pairs
// are checkpointed as they complete and dead ranks' chunks are
// recomputed by the survivors; the clustering result of a recovered
// run is identical to the fault-free run (see recovery.go).
//
// readKmers must be a stranded (non-canonical) count table over the
// input reads with the same k.
func GraphFromFasta(contigs []seq.Record, readKmers *jellyfish.CountTable,
	ranks int, opt GFFOptions) (*GFFResult, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if readKmers == nil {
		return nil, fmt.Errorf("chrysalis: nil read k-mer table")
	}
	if readKmers.K != opt.K {
		return nil, fmt.Errorf("chrysalis: read table k=%d, want %d", readKmers.K, opt.K)
	}
	// Stage the contig payloads once. Packed mode carries seq.Packed
	// end-to-end and skips the per-contig []byte staging entirely; the
	// ASCII kernels keep their byte-slice views.
	var seqs [][]byte
	var pseqs []seq.Packed
	if opt.Packed {
		pseqs = opt.PackedContigs
		if len(pseqs) != len(contigs) {
			pseqs = make([]seq.Packed, len(contigs))
			for i := range contigs {
				pseqs[i] = seq.Pack(contigs[i].Seq)
			}
		}
	} else {
		seqs = make([][]byte, len(contigs))
		for i := range contigs {
			seqs[i] = contigs[i].Seq
		}
	}
	contigLen := func(i int) int {
		if opt.Packed {
			return pseqs[i].Len()
		}
		return len(seqs[i])
	}
	// Freeze the read k-mer table once, before the world starts: every
	// rank goroutine then probes the immutable flat table lock-free.
	// On a real cluster each rank holds its own copy anyway; the freeze
	// is not metered, matching the unmetered jellyfish load it replaces.
	frozenReads := readKmers.Freeze()
	dist, err := NewDistribution(len(contigs), ranks, opt.ThreadsPerRank, opt.ChunkSize)
	if err != nil {
		return nil, err
	}
	dist.Strategy = opt.Strategy

	ro := opt.Recovery.withDefaults()
	active := opt.Faults != nil || opt.Recovery.Enabled

	profiles := make([]GFFRankProfile, ranks)
	results := make([]*GFFResult, ranks)

	// In a real cluster every rank builds these identical read-only
	// structures independently; here they are built once and shared,
	// while each rank is still charged the full build cost. Under
	// ShardKmers the full tables are built lazily — only if chunk
	// recovery needs to recompute a foreign chunk whose k-mers the local
	// partial replica never queried.
	var ixOnce, widxOnce, pooledOnce sync.Once
	var ix *contigKmerIndex
	var pix *packedContigIndex
	var widx *weldIndex
	var pwidx *packedWeldIndex
	var pooledShared []string
	var pooledPacked []seq.Packed
	fullIx := func() *contigKmerIndex {
		ixOnce.Do(func() { ix = buildContigKmerIndex(seqs, opt.K) })
		return ix
	}
	fullPix := func() *packedContigIndex {
		ixOnce.Do(func() { pix = buildPackedContigIndex(pseqs, opt.K) })
		return pix
	}
	fullWidx := func() *weldIndex {
		widxOnce.Do(func() { widx = buildWeldIndex(pooledShared, opt.K) })
		return widx
	}
	fullPwidx := func() *packedWeldIndex {
		widxOnce.Do(func() { pwidx = buildPackedWeldIndex(pooledPacked, opt.K) })
		return pwidx
	}
	// Sharded-lookup shared state: the source data every shard is
	// rebuilt from, and the per-phase completion ledgers.
	var srcOnce sync.Once
	var source *gffSource
	var led1, led2 *fetchLedger
	if opt.ShardKmers {
		led1 = newFetchLedger(ranks)
		led2 = newFetchLedger(ranks)
	}
	// Per-contig loop costs, written by the owning rank, read by every
	// rank after a barrier for the replicated timing replay. Only the
	// fault-free path uses the shared arrays; the fault layer keeps
	// costs in the checkpoint store so an evicted straggler's late
	// writes cannot race with survivors.
	costs1 := make([]float64, len(contigs))
	costs2 := make([]float64, len(contigs))

	var store1 *chunkStore[string] // checkpointed welds per chunk
	var store2 *chunkStore[int64]  // checkpointed encoded pairs per chunk
	rep := &recReport{}
	if active {
		store1 = newChunkStore[string](dist.Chunks())
		store2 = newChunkStore[int64](dist.Chunks())
	}

	// weldChunk and pairChunk compute one chunk's partial result — the
	// checkpoint unit of the recovery layer. The lookup structures are
	// parameters: a rank's normal loops pass its local (replicated or
	// partial) replicas, while recovery recompute passes the full tables
	// so a survivor can recompute any dead rank's chunk.
	// In packed mode the weld strings are wire frames (Packed.Encode
	// bytes); the framing, checkpoint stores, and exchange below are
	// content-agnostic, so only the kernels differ.
	weldChunk := func(ch int, kix *contigKmerIndex, pkix *packedContigIndex, reads *jellyfish.Frozen) (welds []string, chCosts []float64, units float64) {
		lo, hi := dist.ChunkRange(ch)
		chCosts = make([]float64, hi-lo)
		if opt.Packed {
			sc := packedWeldScratchPool.Get().(*packedWeldScratch)
			defer packedWeldScratchPool.Put(sc)
			for i := lo; i < hi; i++ {
				rot := harvestRotation(opt.Seed, i, contigLen(i))
				ws, u := harvestWeldsPacked(pseqs[i], i, pkix, reads, opt, rot, sc)
				chCosts[i-lo] = u * opt.LoopOpWeight
				units += chCosts[i-lo]
				welds = append(welds, encodeWeldFrames(ws)...)
			}
			return welds, chCosts, units
		}
		sc := weldScratchPool.Get().(*weldScratch)
		defer weldScratchPool.Put(sc)
		for i := lo; i < hi; i++ {
			rot := harvestRotation(opt.Seed, i, len(seqs[i]))
			ws, u := harvestWelds(seqs[i], i, kix, reads, opt, rot, sc)
			chCosts[i-lo] = u * opt.LoopOpWeight
			units += chCosts[i-lo]
			welds = append(welds, ws...)
		}
		return welds, chCosts, units
	}
	pairChunk := func(ch int, wix *weldIndex, pwix *packedWeldIndex) (encs []int64, chCosts []float64, units float64) {
		lo, hi := dist.ChunkRange(ch)
		chCosts = make([]float64, hi-lo)
		if opt.Packed {
			sc := packedWeldScratchPool.Get().(*packedWeldScratch)
			defer packedWeldScratchPool.Put(sc)
			for i := lo; i < hi; i++ {
				pairs, u := scanContigForWeldsPacked(pseqs[i], i, pwix, sc)
				chCosts[i-lo] = u * opt.LoopOpWeight
				units += chCosts[i-lo]
				for _, p := range pairs {
					encs = append(encs, int64(p[0])<<32|int64(uint32(p[1])))
				}
			}
			return encs, chCosts, units
		}
		sc := weldScratchPool.Get().(*weldScratch)
		defer weldScratchPool.Put(sc)
		for i := lo; i < hi; i++ {
			pairs, u := scanContigForWelds(seqs[i], i, wix, sc)
			chCosts[i-lo] = u * opt.LoopOpWeight
			units += chCosts[i-lo]
			for _, p := range pairs {
				encs = append(encs, int64(p[0])<<32|int64(uint32(p[1])))
			}
		}
		return encs, chCosts, units
	}

	world := mpi.NewWorld(ranks)
	if opt.Faults != nil {
		world.SetFaults(opt.Faults)
	}
	if active && ro.RankTimeout > 0 {
		world.SetBarrierTimeout(ro.RankTimeout)
		world.SetRecvTimeout(ro.RankTimeout)
	}
	if opt.Trace != nil {
		world.SetObserver(opt.Trace)
	}
	_, errs := world.RunE(func(c *Comm) error {
		rank := c.Rank()
		prof := &profiles[rank]

		// --- Non-parallel setup: every rank loads the contig file and
		// builds the k-mer occurrence index (GraphFromFasta "reads the
		// entire file into memory", §III-C). Under ShardKmers the rank
		// instead builds only its own shard of the distributed tables,
		// then fetches, tile by tile, the k-mers loop 1 will probe over
		// its contigs (and their reverse complements, which cover the
		// RC-seed and weld-support probes) in batched lookup rounds,
		// materialising partial replicas the unchanged loop kernels run on.
		var rs *rankShards
		var lIx *contigKmerIndex // loop-1 lookup structures of this rank
		var lPix *packedContigIndex
		var lReads *jellyfish.Frozen
		var myWelds []string
		var peakTile int64 // largest per-tile partial replica (sharded runs)
		myChunks := dist.RankChunks(rank)
		tiles := 0
		if opt.ShardKmers {
			tiles = tileCount(func(r int) int { return len(dist.RankChunks(r)) }, ranks)
			srcOnce.Do(func() { source = buildGFFSource(seqs, opt.K, frozenReads) })
			rs = newRankShards(source, ranks, rank, rep, opt.Trace)
			rs.ensureLoop1(rank)
			prof.SetupUnits = float64(len(source.keys))
		} else if opt.Packed {
			lPix, lReads = fullPix(), frozenReads
			prof.SetupUnits = float64(lPix.buildOps)
		} else {
			ixOnce.Do(func() { ix = buildContigKmerIndex(seqs, opt.K) })
			lIx, lReads = ix, frozenReads
			prof.SetupUnits = float64(ix.buildOps)
		}

		// --- Loop 1: harvest welds over this rank's chunks, dividing
		// each chunk across the logical OpenMP threads dynamically.
		// Under a sharded run the fetch and the harvest fuse into the
		// tile pipeline: tile t+1's lookup round is in flight while tile
		// t's chunks weld on its just-built partial replica.
		if opt.ShardKmers {
			var sc *weldScratch
			if !active {
				sc = weldScratchPool.Get().(*weldScratch)
			}
			f := &overlapFetcher{
				c: c, stage: "graphfromfasta/loop1", rep: rep, rec: opt.Trace,
				exchanged: &rs.exchanged, led: led1, ro: ro,
				tagBase: overlapTagLoop1, tiles: tiles,
				collect: func(t int) []kmer.Kmer {
					return collectTileQueryKmers(seqs, dist, tileSlice(myChunks, t), opt.K, true)
				},
				answer: rs.answerLoop1,
				compute: func(t int, queries []kmer.Kmer, bodies [][]byte) (float64, error) {
					chunks := tileSlice(myChunks, t)
					if len(chunks) == 0 {
						return 0, nil
					}
					tIx, tReads, berr := buildLoop1Cache(seqs, opt.K, queries, bodies)
					if berr != nil {
						return 0, berr
					}
					if m := tReads.MemBytes() + tIx.memBytes(); m > peakTile {
						peakTile = m
					}
					var units float64
					for _, ch := range chunks {
						if active {
							c.Probe() // fault point: a rank can die between chunks
							ws, chCosts, u := weldChunk(ch, tIx, nil, tReads)
							store1.put(ch, ws, chCosts)
							myWelds = append(myWelds, ws...)
							units += u
						} else {
							lo, hi := dist.ChunkRange(ch)
							for i := lo; i < hi; i++ {
								rot := harvestRotation(opt.Seed, i, len(seqs[i]))
								ws, u := harvestWelds(seqs[i], i, tIx, tReads, opt, rot, sc)
								costs1[i] = u * opt.LoopOpWeight
								units += costs1[i]
								myWelds = append(myWelds, ws...)
							}
						}
					}
					return units, nil
				},
			}
			meters, ferr := f.run()
			prof.Overlap1 = meters
			if sc != nil {
				weldScratchPool.Put(sc)
			}
			if ferr != nil {
				return ferr
			}
		} else if active {
			for _, ch := range dist.RankChunks(rank) {
				c.Probe() // fault point: a rank can die between chunks
				ws, chCosts, _ := weldChunk(ch, lIx, lPix, lReads)
				store1.put(ch, ws, chCosts)
				myWelds = append(myWelds, ws...)
			}
		} else if opt.Packed {
			sc := packedWeldScratchPool.Get().(*packedWeldScratch)
			dist.ForEachRankItem(rank, func(i int) {
				rot := harvestRotation(opt.Seed, i, contigLen(i))
				welds, units := harvestWeldsPacked(pseqs[i], i, lPix, lReads, opt, rot, sc)
				costs1[i] = units * opt.LoopOpWeight
				myWelds = append(myWelds, encodeWeldFrames(welds)...)
			})
			packedWeldScratchPool.Put(sc)
		} else {
			sc := weldScratchPool.Get().(*weldScratch)
			dist.ForEachRankItem(rank, func(i int) {
				rot := harvestRotation(opt.Seed, i, len(seqs[i]))
				welds, units := harvestWelds(seqs[i], i, lIx, lReads, opt, rot, sc)
				costs1[i] = units * opt.LoopOpWeight
				myWelds = append(myWelds, welds...)
			})
			weldScratchPool.Put(sc)
		}
		prof.Welds = len(myWelds)

		// --- Pool welds on every rank (pack → size exchange →
		// Allgatherv), as §III-B describes. Under the fault layer the
		// pooled list is rebuilt from the checkpoint store instead of
		// the gathered parts, so killed ranks and dropped contributions
		// cannot lose welds; recovery rounds recompute missing chunks.
		before := c.Stats
		packed := packWelds(myWelds)
		if active {
			counts, _ := c.TryAllgatherInt(len(packed))
			parts, _ := c.TryAllgatherv(packed)
			if rank == 0 {
				countDrops(rep, counts, parts)
			}
			if err := recoverChunks(c, "graphfromfasta/welds", ro, rep, opt.Trace, store1.missing,
				func(ch int) ([]byte, float64) {
					// Recompute with the full tables: a dead rank's chunk
					// probes k-mers outside this rank's partial replica.
					var ws []string
					var chCosts []float64
					var units float64
					if opt.Packed {
						ws, chCosts, units = weldChunk(ch, nil, fullPix(), frozenReads)
					} else {
						ws, chCosts, units = weldChunk(ch, fullIx(), nil, frozenReads)
					}
					store1.put(ch, ws, chCosts)
					return packWelds(ws), units
				}); err != nil {
				return err
			}
			prof.Comm1 = cluster.StatsDelta(before, c.Stats)
			myCosts := store1.itemCosts(len(contigs), dist.ChunkRange)
			prof.Loop1Units, prof.Loop1Imbalance = replicatedMakespan(dist, myCosts, rank, opt.Replicas, opt.ThreadsPerRank, opt.StaticSchedule)
			pooledOnce.Do(func() {
				chunkParts := make([][]byte, dist.Chunks())
				for ch := range chunkParts {
					chunkParts[ch] = packWelds(store1.chunk(ch))
				}
				if opt.Packed {
					pooledPacked = poolWeldsPacked(chunkParts)
					pooledShared = decodeWelds(pooledPacked)
				} else {
					pooledShared = poolWelds(chunkParts)
				}
			})
		} else {
			c.Barrier() // all per-contig costs visible to every rank
			prof.Loop1Units, prof.Loop1Imbalance = replicatedMakespan(dist, costs1, rank, opt.Replicas, opt.ThreadsPerRank, opt.StaticSchedule)
			c.AllgatherInt(len(packed))
			parts := c.Allgatherv(packed)
			prof.Comm1 = cluster.StatsDelta(before, c.Stats)
			pooledOnce.Do(func() {
				if opt.Packed {
					pooledPacked = poolWeldsPacked(parts)
					pooledShared = decodeWelds(pooledPacked)
				} else {
					pooledShared = poolWelds(parts)
				}
			})
		}

		// --- Non-parallel middle: build the pooled weld index. The
		// pooled weld list is identical on every rank by construction.
		// Under ShardKmers each rank builds only its shard of the index;
		// loop 2 fetches the rows it will probe (forward contig k-mers
		// only — the index itself is keyed under both orientations of
		// each weld core).
		pooled := pooledShared
		var lWidx *weldIndex
		var lPwidx *packedWeldIndex
		if opt.ShardKmers {
			rs.pooled = pooled
			rs.ensureLoop2(rank)
		} else if opt.Packed {
			lPwidx = fullPwidx()
		} else {
			lWidx = fullWidx()
		}
		prof.MidUnits = float64(len(pooled)) * 2 // core + rc-core hash inserts

		// --- Loop 2: find (weld, contig) incidences over this rank's
		// chunks with the same chunked round-robin distribution. A
		// sharded run pipelines its weld-index fetches exactly like
		// loop 1, on the loop-2 tag range.
		var myPairs []int64
		if opt.ShardKmers {
			var sc *weldScratch
			if !active {
				sc = weldScratchPool.Get().(*weldScratch)
			}
			f := &overlapFetcher{
				c: c, stage: "graphfromfasta/loop2", rep: rep, rec: opt.Trace,
				exchanged: &rs.exchanged, led: led2, ro: ro,
				tagBase: overlapTagLoop2, tiles: tiles,
				collect: func(t int) []kmer.Kmer {
					return collectTileQueryKmers(seqs, dist, tileSlice(myChunks, t), opt.K, false)
				},
				answer: rs.answerLoop2,
				compute: func(t int, queries []kmer.Kmer, bodies [][]byte) (float64, error) {
					chunks := tileSlice(myChunks, t)
					if len(chunks) == 0 {
						return 0, nil
					}
					tWidx, berr := buildLoop2Cache(pooled, opt.K, queries, bodies)
					if berr != nil {
						return 0, berr
					}
					if m := tWidx.memBytes(); m > peakTile {
						peakTile = m
					}
					var units float64
					for _, ch := range chunks {
						if active {
							c.Probe()
							encs, chCosts, u := pairChunk(ch, tWidx, nil)
							store2.put(ch, encs, chCosts)
							myPairs = append(myPairs, encs...)
							units += u
						} else {
							lo, hi := dist.ChunkRange(ch)
							for i := lo; i < hi; i++ {
								pairs, u := scanContigForWelds(seqs[i], i, tWidx, sc)
								costs2[i] = u * opt.LoopOpWeight
								units += costs2[i]
								for _, p := range pairs {
									myPairs = append(myPairs, int64(p[0])<<32|int64(uint32(p[1])))
								}
							}
						}
					}
					return units, nil
				},
			}
			meters, ferr := f.run()
			prof.Overlap2 = meters
			if sc != nil {
				weldScratchPool.Put(sc)
			}
			if ferr != nil {
				return ferr
			}
		} else if active {
			for _, ch := range dist.RankChunks(rank) {
				c.Probe()
				encs, chCosts, _ := pairChunk(ch, lWidx, lPwidx)
				store2.put(ch, encs, chCosts)
				myPairs = append(myPairs, encs...)
			}
		} else if opt.Packed {
			sc := packedWeldScratchPool.Get().(*packedWeldScratch)
			dist.ForEachRankItem(rank, func(i int) {
				pairs, units := scanContigForWeldsPacked(pseqs[i], i, lPwidx, sc)
				costs2[i] = units * opt.LoopOpWeight
				for _, p := range pairs {
					myPairs = append(myPairs, int64(p[0])<<32|int64(uint32(p[1])))
				}
			})
			packedWeldScratchPool.Put(sc)
		} else {
			sc := weldScratchPool.Get().(*weldScratch)
			dist.ForEachRankItem(rank, func(i int) {
				pairs, units := scanContigForWelds(seqs[i], i, lWidx, sc)
				costs2[i] = units * opt.LoopOpWeight
				for _, p := range pairs {
					myPairs = append(myPairs, int64(p[0])<<32|int64(uint32(p[1])))
				}
			})
			weldScratchPool.Put(sc)
		}
		prof.Pairs = len(myPairs)

		// --- Pool the pairing indices (integer arrays: "substantially
		// less communication compared to the first loop").
		before = c.Stats
		var allPairs [][]int64
		if active {
			c.TryAllgatherInt(len(myPairs))
			c.TryAllgathervInt64(myPairs)
			if err := recoverChunks(c, "graphfromfasta/pairs", ro, rep, opt.Trace, store2.missing,
				func(ch int) ([]byte, float64) {
					var encs []int64
					var chCosts []float64
					var units float64
					if opt.Packed {
						encs, chCosts, units = pairChunk(ch, nil, fullPwidx())
					} else {
						encs, chCosts, units = pairChunk(ch, fullWidx(), nil)
					}
					store2.put(ch, encs, chCosts)
					return packInt64s(encs), units
				}); err != nil {
				return err
			}
			prof.Comm2 = cluster.StatsDelta(before, c.Stats)
			myCosts := store2.itemCosts(len(contigs), dist.ChunkRange)
			prof.Loop2Units, prof.Loop2Imbalance = replicatedMakespan(dist, myCosts, rank, opt.Replicas, opt.ThreadsPerRank, opt.StaticSchedule)
			allPairs = make([][]int64, dist.Chunks())
			for ch := range allPairs {
				allPairs[ch] = store2.chunk(ch)
			}
		} else {
			c.Barrier()
			prof.Loop2Units, prof.Loop2Imbalance = replicatedMakespan(dist, costs2, rank, opt.Replicas, opt.ThreadsPerRank, opt.StaticSchedule)
			c.AllgatherInt(len(myPairs))
			allPairs = c.AllgathervInt64(myPairs)
			prof.Comm2 = cluster.StatsDelta(before, c.Stats)
		}

		// --- Non-parallel output: weld-sharing contigs → union-find →
		// components. Every rank computes the identical result (the
		// union-find's groups are canonical, so the pooled pair order —
		// rank-major or chunk-major — does not matter).
		byWeld := map[int32][]int32{}
		total := 0
		for _, part := range allPairs {
			for _, enc := range part {
				w := int32(enc >> 32)
				ci := int32(uint32(enc))
				byWeld[w] = append(byWeld[w], ci)
				total++
			}
		}
		uf := newUnionFind(len(contigs))
		for _, members := range byWeld {
			for i := 1; i < len(members); i++ {
				uf.union(int(members[0]), int(members[i]))
			}
		}
		for _, p := range opt.ScaffoldPairs {
			a, b := int(p[0]), int(p[1])
			if a >= 0 && a < len(contigs) && b >= 0 && b < len(contigs) {
				uf.union(a, b)
			}
		}
		var comps []Component
		for _, g := range uf.groups() {
			comps = append(comps, Component{ID: len(comps), Contigs: g})
		}
		prof.OutputUnits = float64(total) + float64(len(contigs))
		if opt.ShardKmers {
			// Tile replicas are transient — only the largest one was ever
			// resident at once.
			prof.ResidentKmerBytes = peakTile + rs.residentBytes()
			prof.ShardExchangeBytes = rs.exchanged
		} else if opt.Packed {
			prof.ResidentKmerBytes = lReads.MemBytes() + lPix.memBytes() + lPwidx.memBytes()
		} else {
			prof.ResidentKmerBytes = lReads.MemBytes() + lIx.memBytes() + lWidx.memBytes()
		}

		results[rank] = &GFFResult{Components: comps, Welds: pooled, NumPairs: total}
		return nil
	})

	// Any completing rank holds the (identical) result; without the
	// fault layer that is always rank 0.
	var res *GFFResult
	for _, r := range results {
		if r != nil {
			res = r
			break
		}
	}
	if res == nil {
		return nil, stageError("graphfromfasta", errs)
	}
	res.Profiles = profiles
	if active {
		res.Recovery = rep.snapshot("graphfromfasta", world.DeadRanks())
	}
	traceGFF(opt, dist, profiles, costs1, costs2, store1, store2, len(contigs))
	return res, nil
}

// traceGFF converts the metered per-rank profiles into virtual-time
// phase spans and per-chunk work observations. Emitted after the world
// completes, from the (deterministic) profiles, so the trace is
// byte-stable regardless of goroutine interleaving.
func traceGFF(opt GFFOptions, dist Distribution, profiles []GFFRankProfile,
	costs1, costs2 []float64, store1 *chunkStore[string], store2 *chunkStore[int64], nItems int) {
	rec := opt.Trace
	if rec == nil {
		return
	}
	base := rec.Base()
	for rank := range profiles {
		p := &profiles[rank]
		cur := base
		for _, ph := range []struct {
			name string
			dur  float64
			arg  string
		}{
			{"setup", rec.WorkSeconds(p.SetupUnits), ""},
			{"loop1", rec.WorkSeconds(p.Loop1Units), fmt.Sprintf("welds=%d imbalance=%.3f", p.Welds, p.Loop1Imbalance)},
			{"comm1", rec.CommSeconds(p.Comm1), fmt.Sprintf("bytes=%d ops=%d", p.Comm1.BytesSent+p.Comm1.BytesRecv, p.Comm1.CollectiveOps)},
			{"mid", rec.WorkSeconds(p.MidUnits), ""},
			{"loop2", rec.WorkSeconds(p.Loop2Units), fmt.Sprintf("pairs=%d imbalance=%.3f", p.Pairs, p.Loop2Imbalance)},
			{"comm2", rec.CommSeconds(p.Comm2), fmt.Sprintf("bytes=%d ops=%d", p.Comm2.BytesSent+p.Comm2.BytesRecv, p.Comm2.CollectiveOps)},
			{"output", rec.WorkSeconds(p.OutputUnits), ""},
		} {
			rec.Span("graphfromfasta", ph.name, rank, cur, ph.dur, ph.arg)
			cur += ph.dur
		}
	}
	if store1 != nil {
		costs1 = store1.itemCosts(nItems, dist.ChunkRange)
		costs2 = store2.itemCosts(nItems, dist.ChunkRange)
	}
	for ch := 0; ch < dist.Chunks(); ch++ {
		lo, hi := dist.ChunkRange(ch)
		var u1, u2 float64
		for i := lo; i < hi; i++ {
			u1 += costs1[i]
			u2 += costs2[i]
		}
		rec.Observe("gff_weld_chunk_units", u1)
		rec.Observe("gff_pair_chunk_units", u2)
	}
	// Sharded-lookup meters, gated so replicated-path traces stay
	// byte-identical to earlier versions.
	if opt.ShardKmers {
		for rank := range profiles {
			rec.Observe("gff_shard_resident_bytes", float64(profiles[rank].ResidentKmerBytes))
			rec.Observe("gff_shard_exchange_bytes", float64(profiles[rank].ShardExchangeBytes))
		}
	}
	// Overlap lanes: the modelled double-buffered schedule of each
	// rank's tile pipeline, in its own category so the phase spans
	// above are untouched.
	for rank := range profiles {
		p := &profiles[rank]
		if len(p.Overlap1) == 0 {
			continue
		}
		lane := func(meters []TileMeter) (fetch, comp []float64) {
			for _, m := range meters {
				fetch = append(fetch, rec.CommSeconds(m.Fetch))
				comp = append(comp, rec.WorkSeconds(m.ComputeUnits/float64(opt.ThreadsPerRank)))
			}
			return fetch, comp
		}
		f1, c1 := lane(p.Overlap1)
		cur := rec.OverlapLanes("gff-overlap", "loop1", rank, base, f1, c1)
		f2, c2 := lane(p.Overlap2)
		rec.OverlapLanes("gff-overlap", "loop2", rank, cur, f2, c2)
	}
	rec.AdvanceBase()
}

// Comm aliases mpi.Comm for readability inside this package.
type Comm = mpi.Comm

// harvestRotation derives the scan-start rotation for contig i from
// the run seed: seed 0 keeps the natural order; other seeds rotate
// each contig's scan deterministically-per-seed, so repeated runs with
// different seeds produce the slightly different weld sets the paper
// observes between repeated Trinity runs.
func harvestRotation(seed int64, contig, length int) int {
	if seed == 0 || length <= 1 {
		return 0
	}
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(contig)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return int(h % uint64(length))
}
