package chrysalis

import (
	"fmt"
	"sort"
	"sync"

	"gotrinity/internal/cluster"
	"gotrinity/internal/kmer"
	"gotrinity/internal/mpi"
	"gotrinity/internal/seq"
	"gotrinity/internal/trace"
)

// R2TOptions configures ReadsToTranscripts.
type R2TOptions struct {
	K              int     // k-mer length shared with the bundles (default: GFF's K)
	MaxMemReads    int     // reads uploaded into memory per chunk (the max_mem_reads flag)
	ThreadsPerRank int     // simulated OpenMP threads per rank (default 16)
	MinKmerMatches int     // minimum shared k-mers for an assignment (default 1)
	IOScanFactor   float64 // relative cost of streaming past a discarded chunk (default 0.02)

	// LoopOpWeight is the cost-model weight of one main-loop k-mer
	// probe relative to one setup insertion (default 10), calibrated so
	// the loop/rest split matches §V-B (see EXPERIMENTS.md). It scales
	// metered time only, never results.
	LoopOpWeight float64

	// Replicas evaluates loop timings as if the chunk stream contained
	// this many statistical copies of the read population (see
	// replicate.go); timing only, never results. Default 1.
	Replicas int

	// Packed runs assignment over 2-bit packed reads and builds the
	// k-mer→bundle table from packed contigs (r2t_packed.go).
	// Assignments and metered profiles are byte-identical to the ASCII
	// path; resident sequence bytes shrink 4×.
	Packed bool

	// PackedReads optionally supplies the reads already packed
	// (index-aligned with the read records); when nil and Packed is
	// set, ReadsToTranscripts packs internally. With PackedReads
	// supplied the ASCII payloads of reads are never touched, so they
	// may be nil — the external-memory mode's packed-resident hand-off.
	PackedReads []seq.PackedRecord

	// PackedContigs optionally supplies the contigs already packed.
	PackedContigs []seq.Packed

	// MasterDistribute uses the paper's *first* strategy — a master
	// rank reads every chunk and sends it to the processing rank —
	// instead of the redundant-streaming scheme that replaced it
	// because the master became a bottleneck (§III-C). Kept for the
	// ablation benchmarks; results are identical, only the metered
	// communication and streaming costs change. Forced off under
	// ShardKmers (the shard rounds assume the redundant-streaming
	// scheme where every rank holds the read set).
	MasterDistribute bool

	// ShardKmers partitions the k-mer→bundle table across the ranks by
	// kmer.OwnerRank instead of replicating it on every rank: each rank
	// holds ~1/ranks of the table and fetches the owners of the k-mers
	// its kept chunks' reads will probe in batched shard lookup rounds
	// (r2t_sharded.go), pipelined against compute in tiles of kept
	// chunks with one round of lookahead, exactly as in GFFOptions.
	// Assignments are byte-identical to the replicated path — only
	// per-rank memory and communication change, metered via
	// R2TRankProfile.
	ShardKmers bool

	// Faults injects a deterministic failure schedule into the run's
	// MPI world (see mpi.FaultPlan). A non-nil plan implies the
	// recovery layer even if Recovery.Enabled is false.
	Faults *mpi.FaultPlan

	// Recovery configures chunk checkpointing, dead-rank chunk
	// reassignment and the straggler policy (see recovery.go).
	Recovery RecoveryOptions

	// Trace, when non-nil, receives per-rank setup/chunk/stream/gather
	// spans in virtual cluster time, per-chunk work observations, MPI
	// traffic (as the world's observer) and fault/recovery events.
	// Purely additive: results and profiles are unchanged by it.
	Trace *trace.Recorder
}

func (o *R2TOptions) normalize() error {
	if o.K <= 0 || o.K > kmer.MaxK {
		return fmt.Errorf("chrysalis: r2t k=%d out of range", o.K)
	}
	if o.MaxMemReads <= 0 {
		o.MaxMemReads = 1000
	}
	if o.ThreadsPerRank <= 0 {
		o.ThreadsPerRank = 16
	}
	if o.MinKmerMatches <= 0 {
		o.MinKmerMatches = 1
	}
	if o.IOScanFactor <= 0 {
		o.IOScanFactor = 0.02
	}
	if o.LoopOpWeight <= 0 {
		o.LoopOpWeight = 10
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.ShardKmers {
		o.MasterDistribute = false
	}
	return nil
}

// Assignment links one read to the component sharing the most k-mers.
type Assignment struct {
	Read      int32 // read index
	Component int32 // component id
	Matches   int32 // k-mers shared with the winning component
}

// R2TRankProfile meters one rank's ReadsToTranscripts execution.
type R2TRankProfile struct {
	SetupUnits    float64   // OpenMP k-mer→bundle assignment (replicated per rank)
	LoopUnits     float64   // MPI main loop makespan over logical threads
	LoopImbalance float64   // thread load imbalance (max/min) in the main loop
	StreamUnits   float64   // redundant streaming of discarded chunks
	ConcatUnits   float64   // final output concatenation (root only)
	Comm          mpi.Stats // gather of per-rank outputs
	Chunks        int       // chunks this rank kept
	Assigned      int       // reads this rank assigned

	// ResidentKmerBytes is the rank's peak resident k-mer→bundle state:
	// the full replicated table, or — under ShardKmers — the rank's
	// shards plus the largest single tile's partial table.
	ResidentKmerBytes int64
	// ShardExchangeBytes counts the addressed bytes this rank moved
	// through shard lookup rounds (0 unless ShardKmers).
	ShardExchangeBytes int64
	// Overlap meters the sharded fetch pipeline's tiles (nil unless
	// ShardKmers).
	Overlap []TileMeter
}

// R2TResult is the full ReadsToTranscripts output.
type R2TResult struct {
	Assignments []Assignment // sorted by read index; unassigned reads omitted
	Profiles    []R2TRankProfile
	Recovery    *RecoveryReport // non-nil when the fault layer was active
}

// bundleKmerTable maps k-mers to the component owning them, as a
// frozen flat table: a kmer.FlatSet assigns each distinct k-mer a
// dense id and owner[id] holds the winning component. Ties go to the
// smaller component id so the table is deterministic (min-merge is
// order-independent). The main loop's per-read probes then run
// lock-free against the immutable arrays.
type bundleKmerTable struct {
	k     int
	set   *kmer.FlatSet
	owner []int32
	ncomp int32 // 1 + max component id, for scratch sizing
	ops   int64
}

func buildBundleKmerTable(contigs []seq.Record, comps []Component, k int) *bundleKmerTable {
	var seqs [][]byte
	var compOf []int32
	var ncomp int32
	for _, comp := range comps {
		if int32(comp.ID) >= ncomp {
			ncomp = int32(comp.ID) + 1
		}
		for _, ci := range comp.Contigs {
			seqs = append(seqs, contigs[ci].Seq)
			compOf = append(compOf, int32(comp.ID))
		}
	}
	// The k-mer extraction fans out over real goroutines (each contig
	// fills its own precomputed range of the flat key array); the
	// min-merge insertion stays serial and deterministic.
	keys, _, off := flattenKmers(seqs, k)
	t := &bundleKmerTable{
		k:     k,
		set:   kmer.NewFlatSet(len(keys)),
		ncomp: ncomp,
		ops:   int64(len(keys)),
	}
	owner := make([]int32, 0, len(keys)/2)
	si := 0
	for j, m := range keys {
		for int32(j) >= off[si+1] {
			si++
		}
		id := t.set.Add(m)
		if int(id) == len(owner) {
			owner = append(owner, compOf[si])
		} else if compOf[si] < owner[id] {
			owner[id] = compOf[si]
		}
	}
	t.owner = owner
	return t
}

// lookup returns the owning component of m. Wait-free after the build.
func (t *bundleKmerTable) lookup(m kmer.Kmer) (int32, bool) {
	id, ok := t.set.Lookup(m)
	if !ok {
		return 0, false
	}
	return t.owner[id], true
}

// assignScratch holds the reusable buffers of assignRead: a dense
// per-component match counter reset sparsely via the touched list, and
// a reverse-complement buffer. One scratch serves one goroutine at a
// time.
type assignScratch struct {
	counts  []int32 // per component id; zero except for touched entries
	touched []int32 // component ids with non-zero counts, encounter order
	rcbuf   []byte
	rcp     seq.Packed // packed reverse-complement buffer (assignReadPacked)
}

var assignScratchPool = sync.Pool{New: func() any { return new(assignScratch) }}

// assignRead links one read to the bundle with which it "shares the
// largest number of k-mers" (§II-A), trying both strands. It returns
// the winning component, the match count, and the work units spent.
// The winner is the maximum match count with ties to the smaller
// component id — order-independent, so replacing the map tally with
// the dense scratch counter cannot change any assignment.
func assignRead(read []byte, t *bundleKmerTable, minMatches int, sc *assignScratch) (int32, int32, float64) {
	var units float64
	if len(sc.counts) < int(t.ncomp) {
		sc.counts = make([]int32, t.ncomp)
	}
	tally := func(s []byte) {
		it := kmer.NewIterator(s, t.k)
		for {
			m, _, ok := it.Next()
			if !ok {
				return
			}
			units++
			if comp, ok := t.lookup(m); ok {
				if sc.counts[comp] == 0 {
					sc.touched = append(sc.touched, comp)
				}
				sc.counts[comp]++
			}
		}
	}
	tally(read)
	sc.rcbuf = append(sc.rcbuf[:0], read...)
	seq.ReverseComplementInPlace(sc.rcbuf)
	tally(sc.rcbuf)
	best := int32(-1)
	var bestN int32
	for _, comp := range sc.touched {
		n := sc.counts[comp]
		if n > bestN || (n == bestN && best >= 0 && comp < best) {
			best, bestN = comp, n
		}
	}
	for _, comp := range sc.touched {
		sc.counts[comp] = 0
	}
	sc.touched = sc.touched[:0]
	if bestN < int32(minMatches) {
		return -1, 0, units
	}
	return best, bestN, units
}

// ReadsToTranscripts assigns every read to an Inchworm bundle using
// `ranks` MPI processes. Every rank streams the entire read set in
// chunks of MaxMemReads and keeps only the chunks whose ordinal is
// congruent to its rank — the paper's redundant-read scheme that
// "excludes the necessity of MPI communication" (§III-C). Per-rank
// outputs are gathered at root and concatenated.
func ReadsToTranscripts(reads []seq.Record, contigs []seq.Record, comps []Component,
	ranks int, opt R2TOptions) (*R2TResult, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("chrysalis: rank count %d must be positive", ranks)
	}

	ro := opt.Recovery.withDefaults()
	active := opt.Faults != nil || opt.Recovery.Enabled

	// Packed staging: the assignment loops and the streaming meters read
	// only the packed records from here on.
	var preads []seq.PackedRecord
	if opt.Packed {
		preads = opt.PackedReads
		if len(preads) != len(reads) {
			preads = seq.PackRecords(reads)
		}
	}
	readLen := func(i int) int {
		if opt.Packed {
			return preads[i].Seq.Len()
		}
		return len(reads[i].Seq)
	}
	assign := func(i int, sc *assignScratch, table *bundleKmerTable) (int32, int32, float64) {
		if opt.Packed {
			return assignReadPacked(preads[i].Seq, table, opt.MinKmerMatches, sc)
		}
		return assignRead(reads[i].Seq, table, opt.MinKmerMatches, sc)
	}

	profiles := make([]R2TRankProfile, ranks)
	perRank := make([][]Assignment, ranks)

	// Every rank builds the identical read-only k-mer→bundle table on a
	// real cluster; here it is built once and shared while each rank is
	// charged its full (thread-divided) cost. Under ShardKmers the full
	// table is built lazily — only if chunk recovery must recompute a
	// foreign chunk whose k-mers the local partial table never queried.
	var tableOnce sync.Once
	var table *bundleKmerTable
	fullTable := func() *bundleKmerTable {
		tableOnce.Do(func() {
			if opt.Packed {
				table = buildBundleKmerTablePacked(contigs, opt.PackedContigs, comps, opt.K)
			} else {
				table = buildBundleKmerTable(contigs, comps, opt.K)
			}
		})
		return table
	}
	// Per-read assignment costs, written by the owning rank and read by
	// every rank (after a barrier) for the replicated timing replay.
	// The fault layer keeps costs in the checkpoint store instead, so
	// an evicted straggler's late writes cannot race with survivors.
	readCosts := make([]float64, len(reads))

	nChunks := (len(reads) + opt.MaxMemReads - 1) / opt.MaxMemReads
	chunkRange := func(ch int) (lo, hi int) {
		lo = ch * opt.MaxMemReads
		hi = lo + opt.MaxMemReads
		if hi > len(reads) {
			hi = len(reads)
		}
		return lo, hi
	}

	// Sharded-table shared state: the source every shard is rebuilt from
	// (stands in for the contig set on the shared filesystem) and the
	// world-shared fetch completion ledger.
	var r2tSrcOnce sync.Once
	var r2tSrc *r2tSource
	var r2tLed *fetchLedger
	if opt.ShardKmers {
		r2tLed = newFetchLedger(ranks)
	}
	// keptChunks lists the chunks rank r keeps under the redundant
	// streaming scheme (ordinal congruent to the rank).
	keptChunks := func(r int) []int {
		var out []int
		for ch := r; ch < nChunks; ch += ranks {
			out = append(out, ch)
		}
		return out
	}
	// iterateRead emits read i's forward k-mers and their reverse
	// complements — exactly the probes both strands of the assignment
	// tally make (the RC read's valid windows mirror the forward ones).
	iterateRead := func(i int, add func(kmer.Kmer)) {
		if opt.Packed {
			it := kmer.NewPackedIterator(preads[i].Seq, opt.K)
			for {
				m, _, ok := it.Next()
				if !ok {
					return
				}
				add(m)
				add(m.ReverseComplement(opt.K))
			}
		}
		it := kmer.NewIterator(reads[i].Seq, opt.K)
		for {
			m, _, ok := it.Next()
			if !ok {
				return
			}
			add(m)
			add(m.ReverseComplement(opt.K))
		}
	}

	var store *chunkStore[Assignment] // checkpointed assignments per chunk
	rep := &recReport{}
	if active {
		store = newChunkStore[Assignment](nChunks)
	}

	// assignChunk computes one chunk's assignments against the given
	// table — the checkpoint unit of the recovery layer. Every rank
	// holds the full read set (the redundant-streaming scheme), so any
	// rank can recompute any chunk; recovery recomputes run against the
	// full table (a foreign chunk's reads probe k-mers a sharded rank's
	// partial table never fetched).
	assignChunk := func(ch int, t *bundleKmerTable) (asg []Assignment, chCosts []float64, units float64) {
		sc := assignScratchPool.Get().(*assignScratch)
		defer assignScratchPool.Put(sc)
		lo, hi := chunkRange(ch)
		chCosts = make([]float64, hi-lo)
		for i := lo; i < hi; i++ {
			comp, matches, u := assign(i, sc, t)
			chCosts[i-lo] = u * opt.LoopOpWeight
			units += chCosts[i-lo]
			if comp >= 0 {
				asg = append(asg, Assignment{Read: int32(i), Component: comp, Matches: matches})
			}
		}
		return asg, chCosts, units
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

		// OpenMP-enabled k-mer→bundle assignment, replicated on every
		// rank ("we have not converted this to a hybrid implementation
		// yet", §V-B) — its cost divides across a node's threads but
		// not across ranks. Under ShardKmers the rank instead builds
		// only its shard and fetches the k-mers its kept chunks will
		// probe through the overlapped tile pipeline; the scan of the
		// shared contig set is still charged in full.
		var srs *r2tShards
		var myTable *bundleKmerTable
		var peakTile int64
		myKept := keptChunks(rank)
		if opt.ShardKmers {
			r2tSrcOnce.Do(func() {
				r2tSrc = buildR2TSource(contigs, opt.PackedContigs, comps, opt.K, opt.Packed)
			})
			srs = newR2TShards(r2tSrc, ranks, rank, rep, opt.Trace)
			srs.ensure(rank)
			prof.SetupUnits = float64(len(r2tSrc.keys)) / float64(opt.ThreadsPerRank)
		} else {
			myTable = fullTable()
			prof.SetupUnits = float64(myTable.ops) / float64(opt.ThreadsPerRank)
		}

		var commStart mpi.Stats
		var mine []Assignment
		if opt.ShardKmers {
			// Double-buffered tile pipeline: tile t+1's lookup round is in
			// flight while tile t's chunks assign on its partial replica.
			tiles := tileCount(func(r int) int { return len(keptChunks(r)) }, ranks)
			var sc *assignScratch
			if !active {
				sc = assignScratchPool.Get().(*assignScratch)
			}
			f := &overlapFetcher{
				c: c, stage: "readstotranscripts/table", rep: rep, rec: opt.Trace,
				exchanged: &srs.exchanged, led: r2tLed, ro: ro,
				tagBase: overlapTagR2T, tiles: tiles,
				collect: func(t int) []kmer.Kmer {
					return collectR2TQueryKmers(tileSlice(myKept, t), chunkRange, iterateRead)
				},
				answer: srs.answer,
				compute: func(t int, queries []kmer.Kmer, bodies [][]byte) (float64, error) {
					chunks := tileSlice(myKept, t)
					if len(chunks) == 0 {
						return 0, nil
					}
					tTable, berr := buildR2TCache(opt.K, r2tSrc.ncomp, queries, bodies)
					if berr != nil {
						return 0, berr
					}
					if m := tTable.memBytes(); m > peakTile {
						peakTile = m
					}
					var units float64
					for _, ch := range chunks {
						prof.Chunks++
						if active {
							c.Probe() // fault point: a rank can die between chunks
							asg, chCosts, u := assignChunk(ch, tTable)
							store.put(ch, asg, chCosts)
							mine = append(mine, asg...)
							units += u
						} else {
							lo, hi := chunkRange(ch)
							for i := lo; i < hi; i++ {
								comp, matches, u := assign(i, sc, tTable)
								readCosts[i] = u * opt.LoopOpWeight
								units += readCosts[i]
								if comp >= 0 {
									mine = append(mine, Assignment{Read: int32(i), Component: comp, Matches: matches})
								}
							}
						}
					}
					return units, nil
				},
			}
			meters, ferr := f.run()
			prof.Overlap = meters
			if sc != nil {
				assignScratchPool.Put(sc)
			}
			if ferr != nil {
				return ferr
			}
			// The pipeline's traffic is metered per tile; the gather meter
			// below starts after it.
			commStart = c.Stats
		} else {
			commStart = c.Stats
			for chunk := 0; chunk < nChunks; chunk++ {
				lo, hi := chunkRange(chunk)
				owner := chunk % ranks
				if opt.MasterDistribute && ranks > 1 {
					// Paper's first strategy: rank 0 reads the chunk and
					// ships it to the owner; the owner receives it. The
					// payload is real read bytes so the comm meter sees the
					// true volume.
					if rank == 0 {
						for i := lo; i < hi; i++ {
							prof.StreamUnits += float64(readLen(i))
						}
						if owner != 0 {
							if opt.Packed {
								c.Send(owner, chunk, packedStreamPayload(preads[lo:hi]))
							} else {
								c.Send(owner, chunk, packReads(reads[lo:hi]))
							}
						}
					} else if owner == rank {
						if active {
							// A dead master cannot ship the chunk; tolerable,
							// because every rank holds the read set anyway.
							c.TryRecv(0, chunk, 0) //nolint:errcheck
						} else {
							c.Recv(0, chunk)
						}
					}
				}
				if owner != rank {
					// "the MPI process simply discards the uploaded input
					// reads" — charged as streaming I/O in the replay below.
					continue
				}
				prof.Chunks++
				// The kept chunk's reads are distributed over the OpenMP
				// threads.
				if active {
					c.Probe() // fault point: a rank can die between chunks
					asg, chCosts, _ := assignChunk(chunk, myTable)
					store.put(chunk, asg, chCosts)
					mine = append(mine, asg...)
				} else {
					sc := assignScratchPool.Get().(*assignScratch)
					for i := lo; i < hi; i++ {
						comp, matches, units := assign(i, sc, myTable)
						readCosts[i] = units * opt.LoopOpWeight
						if comp >= 0 {
							mine = append(mine, Assignment{Read: int32(i), Component: comp, Matches: matches})
						}
					}
					assignScratchPool.Put(sc)
				}
			}
		}
		lookupCost := func(i int) float64 { return readCosts[i] }
		if active {
			c.TryBarrier() //nolint:errcheck — dead ranks are recovered below
			if err := recoverChunks(c, "readstotranscripts", ro, rep, opt.Trace, store.missing,
				func(ch int) ([]byte, float64) {
					asg, chCosts, units := assignChunk(ch, fullTable())
					store.put(ch, asg, chCosts)
					return encodeAssignments(asg), units
				}); err != nil {
				return err
			}
			myCosts := store.itemCosts(len(reads), chunkRange)
			lookupCost = func(i int) float64 { return myCosts[i] }
		} else {
			c.Barrier() // all per-read costs visible to every rank
		}
		loop, stream, imbalance := replicatedChunkStream(
			len(reads), opt.MaxMemReads, ranks, rank, opt.Replicas, opt.ThreadsPerRank,
			lookupCost,
			func(i int) float64 { return opt.IOScanFactor * float64(readLen(i)) })
		prof.LoopUnits = loop
		prof.LoopImbalance = imbalance
		if opt.MasterDistribute && ranks > 1 {
			// Master-distribute pays no redundant streaming on workers,
			// but rank 0 streams everything (already metered above) and
			// every chunk crosses the network (metered in Comm).
		} else {
			prof.StreamUnits = stream
		}
		prof.Assigned = len(mine)
		if opt.ShardKmers {
			// Peak resident table state: the shard store plus the largest
			// single tile's partial replica (tile replicas are transient).
			prof.ResidentKmerBytes = peakTile + srs.residentBytes()
			prof.ShardExchangeBytes = srs.exchanged
		} else {
			prof.ResidentKmerBytes = myTable.memBytes()
		}

		// Gather per-rank output files at root; root concatenates
		// ("a simple cat command", §III-C). Under the fault layer the
		// root rebuilds the output from the checkpoint store, so a lost
		// contribution (dead rank, dropped payload) cannot lose reads.
		if active {
			counts, _ := c.TryAllgatherInt(len(encodeAssignments(mine)))
			parts, _ := c.TryGatherv(0, encodeAssignments(mine))
			prof.Comm = cluster.StatsDelta(commStart, c.Stats)
			if rank == 0 {
				countDrops(rep, counts, parts)
				all := assignmentsFromStore(store, nChunks)
				prof.ConcatUnits = float64(len(all))
				perRank[0] = all
			}
			return nil
		}
		parts := c.Gatherv(0, encodeAssignments(mine))
		prof.Comm = cluster.StatsDelta(commStart, c.Stats)
		if rank == 0 {
			var all []Assignment
			for _, p := range parts {
				all = append(all, decodeAssignments(p)...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i].Read < all[j].Read })
			prof.ConcatUnits = float64(len(all))
			perRank[0] = all
		}
		return nil
	})

	res := &R2TResult{Assignments: perRank[0], Profiles: profiles}
	if active {
		// Rank 0 may have died after recovery completed; any complete
		// store yields the identical output.
		if res.Assignments == nil {
			if len(store.missing()) > 0 {
				return nil, stageError("readstotranscripts", errs)
			}
			res.Assignments = assignmentsFromStore(store, nChunks)
		}
		res.Recovery = rep.snapshot("readstotranscripts", world.DeadRanks())
	}
	traceR2T(opt, ranks, nChunks, chunkRange, profiles, readCosts, store)
	return res, nil
}

// traceR2T converts the metered per-rank profiles into virtual-time
// spans: per-rank setup, one span per kept chunk (its reads spread over
// the rank's logical threads), the redundant-streaming tail, the output
// gather, and the root's concatenation. Emitted after the world
// completes, from deterministic data only.
func traceR2T(opt R2TOptions, ranks, nChunks int, chunkRange func(ch int) (lo, hi int),
	profiles []R2TRankProfile, readCosts []float64, store *chunkStore[Assignment]) {
	rec := opt.Trace
	if rec == nil {
		return
	}
	costs := readCosts
	if store != nil {
		costs = store.itemCosts(len(readCosts), chunkRange)
	}
	base := rec.Base()
	cursor := make([]float64, ranks)
	for rank := range profiles {
		cursor[rank] = base + rec.WorkSeconds(profiles[rank].SetupUnits)
		rec.Span("readstotranscripts", "setup", rank, base, cursor[rank]-base, "")
	}
	for ch := 0; ch < nChunks; ch++ {
		lo, hi := chunkRange(ch)
		var units float64
		for i := lo; i < hi; i++ {
			units += costs[i]
		}
		rec.Observe("r2t_chunk_units", units)
		owner := ch % ranks
		// The chunk's reads divide across the rank's logical threads.
		dur := rec.WorkSeconds(units / float64(opt.ThreadsPerRank))
		rec.Span("readstotranscripts", fmt.Sprintf("chunk %d", ch), owner,
			cursor[owner], dur, fmt.Sprintf("reads=%d units=%.0f", hi-lo, units))
		cursor[owner] += dur
	}
	for rank := range profiles {
		p := &profiles[rank]
		for _, ph := range []struct {
			name string
			dur  float64
			arg  string
		}{
			{"stream", rec.WorkSeconds(p.StreamUnits), ""},
			{"gather", rec.CommSeconds(p.Comm), fmt.Sprintf("bytes=%d ops=%d", p.Comm.BytesSent+p.Comm.BytesRecv, p.Comm.CollectiveOps)},
			{"concat", rec.WorkSeconds(p.ConcatUnits), fmt.Sprintf("assigned=%d imbalance=%.3f", p.Assigned, p.LoopImbalance)},
		} {
			if ph.dur == 0 && ph.name == "concat" {
				continue // non-root ranks do not concatenate
			}
			rec.Span("readstotranscripts", ph.name, rank, cursor[rank], ph.dur, ph.arg)
			cursor[rank] += ph.dur
		}
		if p.ResidentKmerBytes > 0 && opt.ShardKmers {
			rec.Observe("r2t_shard_resident_bytes", float64(p.ResidentKmerBytes))
			rec.Observe("r2t_shard_exchange_bytes", float64(p.ShardExchangeBytes))
		}
	}
	// Sharded runs additionally get the tile pipeline's fetch/compute
	// lanes in their own category, so replicated traces stay
	// byte-stable.
	for rank := range profiles {
		p := &profiles[rank]
		if len(p.Overlap) == 0 {
			continue
		}
		var fetch, comp []float64
		for _, m := range p.Overlap {
			fetch = append(fetch, rec.CommSeconds(m.Fetch))
			comp = append(comp, rec.WorkSeconds(m.ComputeUnits/float64(opt.ThreadsPerRank)))
		}
		rec.OverlapLanes("r2t-overlap", "assign", rank, base, fetch, comp)
	}
	rec.AdvanceBase()
}

// assignmentsFromStore concatenates the checkpointed chunks in chunk
// order and sorts by read index — byte-identical to the fault-free
// root's concatenation of the gathered per-rank outputs.
func assignmentsFromStore(store *chunkStore[Assignment], nChunks int) []Assignment {
	var all []Assignment
	for ch := 0; ch < nChunks; ch++ {
		all = append(all, store.chunk(ch)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Read < all[j].Read })
	return all
}

// packReads concatenates read payloads for the master-distribute
// shipment; the content is never parsed (the receiver already holds
// the reads), only its volume matters to the comm meter.
func packReads(reads []seq.Record) []byte {
	n := 0
	for i := range reads {
		n += len(reads[i].Seq) + 1
	}
	buf := make([]byte, 0, n)
	for i := range reads {
		buf = append(buf, reads[i].Seq...)
		buf = append(buf, '\n')
	}
	return buf
}

func encodeAssignments(as []Assignment) []byte {
	buf := make([]byte, 12*len(as))
	for i, a := range as {
		putInt32(buf[12*i:], a.Read)
		putInt32(buf[12*i+4:], a.Component)
		putInt32(buf[12*i+8:], a.Matches)
	}
	return buf
}

func decodeAssignments(buf []byte) []Assignment {
	as := make([]Assignment, len(buf)/12)
	for i := range as {
		as[i] = Assignment{
			Read:      getInt32(buf[12*i:]),
			Component: getInt32(buf[12*i+4:]),
			Matches:   getInt32(buf[12*i+8:]),
		}
	}
	return as
}

func putInt32(b []byte, v int32) {
	u := uint32(v)
	b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
}

func getInt32(b []byte) int32 {
	return int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}
