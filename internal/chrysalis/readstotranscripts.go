package chrysalis

import (
	"cmp"
	"fmt"
	"slices"
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
	ThreadsPerRank int     // OpenMP threads per rank: the cost replay's, and the cap on a rank's chunk workers (default 16)
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
	// shards plus the largest single tile's replica (its dedup set and
	// the owner cells over it).
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

// bundleKmerTable maps k-mers to the components owning them, as a
// frozen flat table keyed by canonical k-mer: a kmer.FlatSet assigns
// each distinct canonical k-mer c a dense id, owner[2·id] holds the
// winning component of c and owner[2·id+1] that of its reverse
// complement, −1 where that orientation occurs in no contig. One probe
// thus answers both strands of a read k-mer. Ties go to the smaller
// component id so the table is deterministic (min-merge is
// order-independent). The main loop's per-read probes then run
// lock-free against the immutable arrays.
type bundleKmerTable struct {
	k     int
	set   *kmer.FlatSet
	owner []int32 // two cells per id: canonical orientation, then its reverse complement
	ncomp int32   // 1 + max component id, for scratch sizing
	ops   int64
}

// cells interns m's canonical k-mer and returns the indices of m's
// owner cells: i twice, or both cells of the id for a k-mer that is its
// own reverse complement (possible at even k only).
func (t *bundleKmerTable) cells(m kmer.Kmer) (i, j int) {
	c, fwd := m.Canonical(t.k)
	id := int(t.set.Add(c))
	if 2*id == len(t.owner) {
		t.owner = append(t.owner, -1, -1)
	}
	switch {
	case m == m.ReverseComplement(t.k):
		return 2 * id, 2*id + 1
	case fwd:
		return 2 * id, 2 * id
	}
	return 2*id + 1, 2*id + 1
}

// lookup2 returns the owning components of m and of its reverse
// complement, −1 for an orientation in no bundle, from one probe.
// Wait-free after the build.
func (t *bundleKmerTable) lookup2(m kmer.Kmer) (fwd, rev int32) {
	c, isFwd := m.Canonical(t.k)
	id, ok := t.set.Lookup(c)
	if !ok {
		return -1, -1
	}
	if isFwd {
		return t.owner[2*id], t.owner[2*id+1]
	}
	return t.owner[2*id+1], t.owner[2*id]
}

// assignScratch holds the reusable tally of assignRead: a dense
// per-component match counter reset sparsely via the touched list. One
// scratch serves one goroutine at a time.
type assignScratch struct {
	counts  []int32 // per component id; zero except for touched entries
	touched []int32 // component ids with non-zero counts, encounter order
}

var assignScratchPool = sync.Pool{New: func() any { return new(assignScratch) }}

// bump counts one shared k-mer for comp (−1: none).
func (sc *assignScratch) bump(comp int32) {
	if comp < 0 {
		return
	}
	if sc.counts[comp] == 0 {
		sc.touched = append(sc.touched, comp)
	}
	sc.counts[comp]++
}

// winner picks the maximum match count with ties to the smaller
// component id — order-independent, so neither the dense counter nor
// the order the strands are tallied in can change an assignment — and
// clears the tally.
func (sc *assignScratch) winner(minMatches int) (int32, int32) {
	best := int32(-1)
	var bestN int32
	for _, comp := range sc.touched {
		n := sc.counts[comp]
		if n > bestN || (n == bestN && best >= 0 && comp < best) {
			best, bestN = comp, n
		}
		sc.counts[comp] = 0
	}
	sc.touched = sc.touched[:0]
	if bestN < int32(minMatches) {
		return -1, 0
	}
	return best, bestN
}

// assignRead links one read to the bundle with which it "shares the
// largest number of k-mers" (§II-A), trying both strands. It returns
// the winning component, the match count, and the work units spent.
// The reverse strand's k-mers are the reverse complements of the
// forward ones, so one canonical probe per forward k-mer tallies both
// strands, and each k-mer is charged as the two probes it answers.
func assignRead(read []byte, t *bundleKmerTable, minMatches int, sc *assignScratch) (int32, int32, float64) {
	if len(sc.counts) < int(t.ncomp) {
		sc.counts = make([]int32, t.ncomp)
	}
	var units float64
	it := kmer.NewIterator(read, t.k)
	for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
		units += 2
		fwd, rev := t.lookup2(m)
		sc.bump(fwd)
		sc.bump(rev)
	}
	best, n := sc.winner(minMatches)
	return best, n, units
}

// ReadsToTranscripts assigns every read to an Inchworm bundle using
// `ranks` MPI processes. Every rank streams the entire read set in
// chunks of MaxMemReads and keeps only the chunks whose ordinal is
// congruent to its rank — the paper's redundant-read scheme that
// "excludes the necessity of MPI communication" (§III-C) — which is the
// hybrid loop (hybridloop.go) over a Distribution with ChunkSize
// MaxMemReads. Per-rank outputs are gathered at root and concatenated.
func ReadsToTranscripts(reads []seq.Record, contigs []seq.Record, comps []Component,
	ranks int, opt R2TOptions) (*R2TResult, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("chrysalis: rank count %d must be positive", ranks)
	}
	dist := Distribution{N: len(reads), Ranks: ranks, ChunkSize: opt.MaxMemReads}
	master := opt.MasterDistribute && ranks > 1

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

	// Every rank builds the identical read-only k-mer→bundle table on a
	// real cluster; here it is built once and shared while each rank is
	// charged its full (thread-divided) cost. Under ShardKmers every rank
	// holds one shard, rebuilt from the shared source (which stands in
	// for the contig set on the shared filesystem), and the full table is
	// built only if chunk recovery needs it.
	var src *r2tSource
	var shards *shardedLookup[*bundleKmerTable]
	if opt.ShardKmers {
		src = buildR2TSource(contigs, opt.PackedContigs, comps, opt.K, opt.Packed)
		// A read k-mer's probe is one canonical lookup2, which answers
		// both strands of the assignment tally — so the query is the
		// canonical form, once per read k-mer.
		shards = bundleShards(src, ranks, func(i int, add func(kmer.Kmer)) {
			if !opt.Packed {
				it := kmer.NewIterator(reads[i].Seq, opt.K)
				for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
					c, _ := m.Canonical(opt.K)
					add(c)
				}
				return
			}
			it := kmer.NewPackedIterator(preads[i].Seq, opt.K)
			for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
				c, _ := m.Canonical(opt.K)
				add(c)
			}
		}, func(i int) int { return windows(readLen(i), opt.K) })
	}
	fullTable := sync.OnceValue(func() *bundleKmerTable {
		if src != nil {
			return src.table(0, 0)
		}
		return buildR2TSource(contigs, opt.PackedContigs, comps, opt.K, opt.Packed).table(0, 0)
	})

	// assignChunk is the chunk kernel: one uploaded chunk's reads,
	// distributed over the OpenMP threads, each assigned against the
	// given table. Every rank holds the full read set (the
	// redundant-streaming scheme), so any rank can recompute any chunk.
	assignChunk := func(lo, hi int, t *bundleKmerTable, costs []float64, asg []Assignment) []Assignment {
		sc := assignScratchPool.Get().(*assignScratch)
		defer assignScratchPool.Put(sc)
		for i := lo; i < hi; i++ {
			var comp, matches int32
			var u float64
			if opt.Packed {
				comp, matches, u = assignReadPacked(preads[i].Seq, t, opt.MinKmerMatches, sc)
			} else {
				comp, matches, u = assignRead(reads[i].Seq, t, opt.MinKmerMatches, sc)
			}
			costs[i-lo] = u * opt.LoopOpWeight
			if comp >= 0 {
				asg = append(asg, Assignment{Read: int32(i), Component: comp, Matches: matches})
			}
		}
		return asg
	}

	env := newLoopEnv(ranks, opt.ThreadsPerRank, opt.Replicas, false, opt.Faults, opt.Recovery, opt.Trace)
	loop := newHybridLoop(hybridLoop[Assignment, *bundleKmerTable]{env: env, stage: "readstotranscripts", dist: dist,
		kernel: assignChunk, full: fullTable, sharded: shards, encode: encodeAssignments,
		// "the MPI process simply discards the uploaded input reads" of
		// the chunks it does not keep — charged as streaming I/O.
		scan: func(i int) float64 { return opt.IOScanFactor * float64(readLen(i)) }})

	profiles := make([]R2TRankProfile, ranks)
	results := make([]*R2TResult, ranks)
	_, errs := env.world.RunE(func(c *Comm) error {
		rank := c.Rank()
		prof := &profiles[rank]

		// OpenMP-enabled k-mer→bundle assignment, replicated on every
		// rank ("we have not converted this to a hybrid implementation
		// yet", §V-B) — its cost divides across a node's threads but
		// not across ranks. A sharded rank builds only its shard, but
		// the scan of the shared contig set is still charged in full.
		if opt.ShardKmers {
			prof.SetupUnits = float64(len(src.keys)) / float64(opt.ThreadsPerRank)
		} else {
			prof.SetupUnits = float64(fullTable().ops) / float64(opt.ThreadsPerRank)
		}

		commStart := c.Stats
		if master {
			// Paper's first strategy: rank 0 reads every chunk and ships
			// it to the rank that keeps it. The receiver already holds
			// the reads and never parses the shipment, so the payload is
			// just its volume (a byte per base and a separator per read)
			// for the comm meter. Rank 0's streaming is metered here; the
			// workers pay none.
			for ch := 0; ch < dist.Chunks(); ch++ {
				owner := dist.Owner(ch)
				if rank == 0 {
					lo, hi := dist.ChunkRange(ch)
					bytes := hi - lo
					for i := lo; i < hi; i++ {
						prof.StreamUnits += float64(readLen(i))
						bytes += readLen(i)
					}
					if owner != 0 {
						c.Send(owner, ch, make([]byte, bytes))
					}
				} else if owner == rank {
					if env.active {
						// A dead master cannot ship the chunk; tolerable,
						// because every rank holds the read set anyway.
						c.TryRecv(0, ch, 0) //nolint:errcheck
					} else {
						c.Recv(0, ch)
					}
				}
			}
		}
		r, err := loop.run(c)
		prof.Overlap = r.meters
		if err != nil {
			return err
		}
		if opt.ShardKmers {
			// The pipeline's traffic is metered per tile; the gather
			// meter starts after it.
			commStart = c.Stats
		}
		if env.active {
			c.TryBarrier() //nolint:errcheck — dead ranks are recovered below
		}
		if err := loop.settle(c); err != nil {
			return err
		}
		var stream float64
		prof.LoopUnits, prof.LoopImbalance, stream = loop.makespan(rank)
		if !master {
			prof.StreamUnits = stream
		}
		prof.Assigned = len(r.mine)
		if opt.ShardKmers {
			// Peak resident table state: the shard store plus the largest
			// single tile's partial replica (tile replicas are transient).
			prof.ResidentKmerBytes = r.peakTile + r.shardBytes
			prof.ShardExchangeBytes = r.exchanged
		} else {
			prof.ResidentKmerBytes = fullTable().memBytes()
		}

		// Gather per-rank output files at root; root concatenates
		// ("a simple cat command", §III-C). Under the fault layer the
		// root rebuilds the output from the checkpoint store, so a lost
		// contribution (dead rank, dropped payload) cannot lose reads.
		enc := encodeAssignments(r.mine)
		var parts [][]Assignment
		if env.active {
			counts, _ := c.TryAllgatherInt(len(enc))
			got, _ := c.TryGatherv(0, enc)
			if rank == 0 {
				countDrops(env.rep, counts, got)
				parts, _ = loop.checkpointed()
			}
		} else {
			for _, p := range c.Gatherv(0, enc) {
				parts = append(parts, decodeAssignments(p))
			}
		}
		prof.Comm = cluster.StatsDelta(commStart, c.Stats)
		if rank == 0 {
			all := concatAssignments(parts)
			prof.ConcatUnits = float64(len(all))
			results[0] = &R2TResult{Assignments: all}
		}
		return nil
	})

	res, err := stageResult("readstotranscripts", results, errs)
	if err != nil {
		// Rank 0 may have died after recovery completed; any complete
		// store yields the identical output.
		parts, ok := loop.checkpointed()
		if !ok {
			return nil, err
		}
		res = &R2TResult{Assignments: concatAssignments(parts)}
	}
	for rank := range profiles {
		profiles[rank].Chunks = loop.ran[rank]
	}
	res.Profiles = profiles
	res.Recovery = env.report("readstotranscripts")
	if opt.Trace != nil {
		traceR2T(opt, env, dist, profiles, loop.itemCosts())
	}
	return res, nil
}

// traceR2T converts the metered per-rank profiles into virtual-time
// spans: per-rank setup, one span per kept chunk (its reads spread over
// the rank's logical threads), the redundant-streaming tail, the output
// gather, and the root's concatenation, on opt.Trace (non-nil). Emitted
// after the world completes, from deterministic data only.
func traceR2T(opt R2TOptions, env *loopEnv, dist Distribution, profiles []R2TRankProfile, costs []float64) {
	rec := opt.Trace
	base := rec.Base()
	cursor := make([]float64, len(profiles))
	for rank := range profiles {
		cursor[rank] = base + rec.WorkSeconds(profiles[rank].SetupUnits)
		rec.Span("readstotranscripts", "setup", rank, base, cursor[rank]-base, "")
	}
	for ch := 0; ch < dist.Chunks(); ch++ {
		lo, hi := dist.ChunkRange(ch)
		var units float64
		for i := lo; i < hi; i++ {
			units += costs[i]
		}
		rec.Observe("r2t_chunk_units", units)
		owner := dist.Owner(ch)
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
		if p := &profiles[rank]; len(p.Overlap) > 0 {
			env.overlapLanes("r2t-overlap", "assign", rank, base, p.Overlap)
		}
	}
	rec.AdvanceBase()
}

// concatAssignments concatenates per-chunk or per-rank assignment
// lists and sorts by read index: the order of the parts does not
// matter, so the fault layer's chunk-order rebuild is byte-identical to
// the root's concatenation of the gathered per-rank outputs.
func concatAssignments(parts [][]Assignment) []Assignment {
	all := slices.Concat(parts...)
	// A read is assigned at most once, so the order is total.
	slices.SortFunc(all, func(a, b Assignment) int { return cmp.Compare(a.Read, b.Read) })
	return all
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
