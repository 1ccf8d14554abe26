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
	ThreadsPerRank    int   // OpenMP threads per MPI rank: the cost replay's, and the cap on a rank's chunk workers (default 16)
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

// weldLookup is what loop 1's kernel probes: the contig k-mer
// occurrence index and the read counts.
type weldLookup struct {
	occs  *kmer.Multimap[occurrence]
	reads *jellyfish.Frozen
}

func (l weldLookup) memBytes() int64 { return l.reads.MemBytes() + l.occs.MemBytes() }

// pairLookup is what loop 2's kernel probes: the pooled weld index, in
// the form the run's kernels take.
type pairLookup struct {
	ix  *weldIndex[string]     // ASCII kernels
	pix *weldIndex[seq.Packed] // packed kernels
}

func (l pairLookup) memBytes() int64 {
	if l.pix != nil {
		return l.pix.memBytes(seq.Packed.MemBytes)
	}
	return l.ix.memBytes(func(w string) int { return len(w) })
}

// encodePair packs one (weld id, contig id) incidence into the int64
// the pair pooling moves; decodePair reverses it.
func encodePair(p [2]int32) int64 { return int64(p[0])<<32 | int64(uint32(p[1])) }

func decodePair(enc int64) (weld, contig int32) { return int32(enc >> 32), int32(uint32(enc)) }

// GraphFromFasta clusters contigs into components using `ranks` MPI
// processes, each running its chunks over up to opt.ThreadsPerRank
// OpenMP threads (as many as its share of GOMAXPROCS allows; the cost
// replay always uses opt.ThreadsPerRank) — the paper's hybrid
// implementation. ranks=1 reproduces the original
// OpenMP-only behaviour: the algorithm and its result are identical
// for every rank count (verified by tests), only the work distribution
// changes.
//
// Both welding loops are hybrid loops (hybridloop.go): this function
// supplies their chunk kernels and lookup tables and pools what they
// produce. With a fault plan or Recovery.Enabled, every chunk's welds
// and pairs are checkpointed as they complete and dead ranks' chunks
// are recomputed by the survivors; the clustering result of a recovered
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
	dist, err := NewDistribution(len(contigs), ranks, opt.ThreadsPerRank, opt.ChunkSize)
	if err != nil {
		return nil, err
	}
	dist.Strategy = opt.Strategy
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
	// Freeze the read k-mer table once, before the world starts: every
	// rank goroutine then probes the immutable flat table lock-free.
	// On a real cluster each rank holds its own copy anyway; the freeze
	// is not metered, matching the unmetered jellyfish load it replaces.
	frozenReads := readKmers.Freeze()

	// In a real cluster every rank builds these identical read-only
	// structures independently; here they are built once and shared,
	// while each rank is still charged the full build cost. The pooled
	// weld list is identical on every rank by construction.
	var pooledOnce sync.Once
	var pooled []string
	var pooledPacked []seq.Packed
	source := buildGFFSource(seqs, pseqs, opt.K, frozenReads)
	setupUnits := float64(len(source.keys))
	look1 := sync.OnceValue(func() weldLookup {
		return weldLookup{occs: source.occs(0, 0), reads: frozenReads}
	})
	look2 := sync.OnceValue(func() pairLookup {
		if opt.Packed {
			return pairLookup{pix: buildPackedWeldIndex(pooledPacked, opt.K)}
		}
		return pairLookup{ix: buildWeldIndex(pooled, opt.K)}
	})
	// Under ShardKmers every rank holds one shard of those tables,
	// rebuilt from the shared source, and the full ones above are built
	// only if chunk recovery needs them.
	var shards1 *shardedLookup[weldLookup]
	var shards2 *shardedLookup[pairLookup]
	if opt.ShardKmers {
		shards1 = weldShards(source, ranks)
		shards2 = pairShards(source, ranks, func() []string { return pooled })
	}

	// The two chunk kernels. In packed mode the weld strings are wire
	// frames (Packed.Encode bytes); checkpointing and the exchanges are
	// content-agnostic, so only the kernels differ.
	weldChunk := func(lo, hi int, look weldLookup, costs []float64, welds []string) []string {
		if opt.Packed {
			sc := packedWeldScratchPool.Get().(*packedWeldScratch)
			defer packedWeldScratchPool.Put(sc)
			for i := lo; i < hi; i++ {
				rot := harvestRotation(opt.Seed, i, pseqs[i].Len())
				ws, u := harvestWeldsPacked(pseqs[i], i, pseqs, look.occs, look.reads, opt, rot, sc)
				costs[i-lo] = u * opt.LoopOpWeight
				welds = append(welds, encodeWeldFrames(ws)...)
			}
			return welds
		}
		sc := weldScratchPool.Get().(*weldScratch)
		defer weldScratchPool.Put(sc)
		for i := lo; i < hi; i++ {
			rot := harvestRotation(opt.Seed, i, len(seqs[i]))
			ws, u := harvestWelds(seqs[i], i, seqs, look.occs, look.reads, opt, rot, sc)
			costs[i-lo] = u * opt.LoopOpWeight
			welds = append(welds, ws...)
		}
		return welds
	}
	pairChunk := func(lo, hi int, look pairLookup, costs []float64, encs []int64) []int64 {
		var psc *packedWeldScratch
		var sc *weldScratch
		if opt.Packed {
			psc = packedWeldScratchPool.Get().(*packedWeldScratch)
			defer packedWeldScratchPool.Put(psc)
		} else {
			sc = weldScratchPool.Get().(*weldScratch)
			defer weldScratchPool.Put(sc)
		}
		for i := lo; i < hi; i++ {
			var pairs [][2]int32
			var u float64
			if opt.Packed {
				pairs, u = scanContigForWeldsPacked(pseqs[i], i, look.pix, psc)
			} else {
				pairs, u = scanContigForWelds(seqs[i], i, look.ix, sc)
			}
			costs[i-lo] = u * opt.LoopOpWeight
			for _, p := range pairs {
				encs = append(encs, encodePair(p))
			}
		}
		return encs
	}

	env := newLoopEnv(ranks, opt.ThreadsPerRank, opt.Replicas, opt.StaticSchedule, opt.Faults, opt.Recovery, opt.Trace)
	loop1 := newHybridLoop(hybridLoop[string, weldLookup]{env: env, stage: "graphfromfasta/welds", dist: dist,
		kernel: weldChunk, full: look1, sharded: shards1, encode: packWelds})
	loop2 := newHybridLoop(hybridLoop[int64, pairLookup]{env: env, stage: "graphfromfasta/pairs", dist: dist,
		kernel: pairChunk, full: look2, sharded: shards2, encode: packInt64s})

	profiles := make([]GFFRankProfile, ranks)
	results := make([]*GFFResult, ranks)
	_, errs := env.world.RunE(func(c *Comm) error {
		rank := c.Rank()
		prof := &profiles[rank]

		// --- Non-parallel setup: every rank loads the contig file and
		// builds the k-mer occurrence index (GraphFromFasta "reads the
		// entire file into memory", §III-C), or scans it for its own
		// shard of the distributed tables.
		prof.SetupUnits = setupUnits

		// --- Loop 1: harvest welds over this rank's chunks.
		r1, err := loop1.run(c)
		prof.Overlap1 = r1.meters
		if err != nil {
			return err
		}
		prof.Welds = len(r1.mine)

		// --- Pool welds on every rank (pack → size exchange →
		// Allgatherv), as §III-B describes. Under the fault layer the
		// exchange comes first — its Try* collectives tolerate dead
		// ranks — and the pooled list is rebuilt from the checkpoint
		// store recovery completes, so killed ranks and dropped
		// contributions cannot lose welds.
		before := c.Stats
		packed := packWelds(r1.mine)
		var parts [][]byte
		if env.active {
			counts, _ := c.TryAllgatherInt(len(packed))
			got, _ := c.TryAllgatherv(packed)
			if rank == 0 {
				countDrops(env.rep, counts, got)
			}
		}
		if err := loop1.settle(c); err != nil {
			return err
		}
		if !env.active {
			c.AllgatherInt(len(packed))
			parts = c.Allgatherv(packed)
		}
		prof.Comm1 = cluster.StatsDelta(before, c.Stats)
		prof.Loop1Units, prof.Loop1Imbalance, _ = loop1.makespan(rank)
		pooledOnce.Do(func() {
			if chunks, ok := loop1.checkpointed(); ok {
				parts = make([][]byte, len(chunks))
				for ch, ws := range chunks {
					parts[ch] = packWelds(ws)
				}
			}
			if opt.Packed {
				pooledPacked = poolWeldsPacked(parts)
				pooled = decodeWelds(pooledPacked)
			} else {
				pooled = poolWelds(parts)
			}
		})

		// --- Non-parallel middle: build the pooled weld index (or this
		// rank's shard of it) — loop 2 does so on its first probe.
		prof.MidUnits = float64(len(pooled)) * 2 // core + rc-core hash inserts

		// --- Loop 2: find (weld, contig) incidences over this rank's
		// chunks with the same chunked round-robin distribution.
		r2, err := loop2.run(c)
		prof.Overlap2 = r2.meters
		if err != nil {
			return err
		}
		prof.Pairs = len(r2.mine)

		// --- Pool the pairing indices (integer arrays: "substantially
		// less communication compared to the first loop").
		before = c.Stats
		var allPairs [][]int64
		if env.active {
			c.TryAllgatherInt(len(r2.mine)) //nolint:errcheck — losses are recovered below
			c.TryAllgathervInt64(r2.mine)   //nolint:errcheck
		}
		if err := loop2.settle(c); err != nil {
			return err
		}
		if !env.active {
			c.AllgatherInt(len(r2.mine))
			allPairs = c.AllgathervInt64(r2.mine)
		}
		prof.Comm2 = cluster.StatsDelta(before, c.Stats)
		prof.Loop2Units, prof.Loop2Imbalance, _ = loop2.makespan(rank)
		if chunks, ok := loop2.checkpointed(); ok {
			allPairs = chunks
		}

		// --- Non-parallel output: weld-sharing contigs → union-find →
		// components. Every rank computes the identical result (the
		// union-find's groups are canonical, so the pooled pair order —
		// rank-major or chunk-major — does not matter).
		byWeld := map[int32][]int32{}
		total := 0
		for _, part := range allPairs {
			for _, enc := range part {
				w, ci := decodePair(enc)
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
			// Peak resident state: both loops' shard stores plus the
			// largest single tile replica (replicas are transient).
			prof.ResidentKmerBytes = max(r1.peakTile, r2.peakTile) + r1.shardBytes + r2.shardBytes
			prof.ShardExchangeBytes = r1.exchanged + r2.exchanged
		} else {
			prof.ResidentKmerBytes = look1().memBytes() + look2().memBytes()
		}

		results[rank] = &GFFResult{Components: comps, Welds: pooled, NumPairs: total}
		return nil
	})

	res, err := stageResult("graphfromfasta", results, errs)
	if err != nil {
		return nil, err
	}
	res.Profiles = profiles
	res.Recovery = env.report("graphfromfasta")
	if opt.Trace != nil {
		traceGFF(opt, env, dist, profiles, loop1.itemCosts(), loop2.itemCosts())
	}
	return res, nil
}

// traceGFF converts the metered per-rank profiles into virtual-time
// phase spans and per-chunk work observations on opt.Trace (non-nil).
// Emitted after the world completes, from the (deterministic) profiles,
// so the trace is byte-stable regardless of goroutine interleaving.
func traceGFF(opt GFFOptions, env *loopEnv, dist Distribution, profiles []GFFRankProfile, costs1, costs2 []float64) {
	rec := opt.Trace
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
		if p := &profiles[rank]; len(p.Overlap1) > 0 {
			cur := env.overlapLanes("gff-overlap", "loop1", rank, base, p.Overlap1)
			env.overlapLanes("gff-overlap", "loop2", rank, cur, p.Overlap2)
		}
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
