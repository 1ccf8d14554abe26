package chrysalis

import (
	"encoding/binary"
	"fmt"
	"sync"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/kmer"
	"gotrinity/internal/mpi"
	"gotrinity/internal/seq"
	"gotrinity/internal/shard"
	"gotrinity/internal/trace"
)

// Sharded k-mer/weld state for GraphFromFasta (GFFOptions.ShardKmers).
//
// The replicated implementation gives every rank the full frozen read
// count table, the full contig k-mer occurrence index, and the full
// pooled weld index — the paper's own memory ceiling. With sharding,
// k-mer space is partitioned by kmer.OwnerRank and each rank holds only
// its shard of those three tables, rebuilt deterministically from the
// shared source data (the contig file and the jellyfish dump, which on
// a real cluster live on the shared filesystem).
//
// Lookups are batched, not chased one by one: for each tile of its
// chunk list (overlap.go) a rank collects the distinct k-mers the
// welding loop will probe over those contigs — for loop 1 every valid
// contig k-mer plus its reverse complement (which provably covers the
// seed probes, RC-seed probes and every weldSupport window probe, since
// window k-mers are contig k-mers), for loop 2 every valid contig
// k-mer — and fetches the answers in one aggregated lookup round. The
// answers materialise a partial replica of the same flat structures
// the replicated path uses (contigKmerIndex, jellyfish.Frozen,
// weldIndex), so the hot loops run unchanged and
// their results, probe counts and work units are byte-identical to the
// replicated reference — the property the differential battery pins.
//
// Fault composition mirrors the chunk-recovery layer: if an owner dies
// mid-fetch, the survivors agree on the dead set (AgreeDead), recompute
// the owner map with shard.Owners, and the adopting rank rebuilds the
// dead rank's shard from the shared source data; unanswered queries are
// simply re-requested under the new map until a round budget runs out.

// packOcc/unpackOcc move an occurrence through a shard row word.
func packOcc(o occurrence) uint64 {
	return uint64(uint32(o.contig))<<32 | uint64(uint32(o.pos))
}

func unpackOcc(v uint64) occurrence {
	return occurrence{contig: int32(v >> 32), pos: int32(uint32(v))}
}

// packRef/unpackRef move a weldRef through a shard row word.
func packRef(r weldRef) uint64 {
	v := uint64(uint32(r.id))
	if r.rc {
		v |= 1 << 32
	}
	return v
}

func unpackRef(v uint64) weldRef {
	return weldRef{id: int32(uint32(v)), rc: v&(1<<32) != 0}
}

// gffSource is the shared source data every shard is a deterministic
// function of: the flattened global k-mer scan of the contig set and
// the full frozen read-count table. It stands in for the contig file
// and jellyfish dump on the shared filesystem — shards are rebuilt
// from it both at startup and when a survivor adopts a dead owner's
// shard, so no shard is ever lost with its rank.
type gffSource struct {
	k     int
	seqs  [][]byte
	keys  []kmer.Kmer // global scan order: contig-ascending, position-ascending
	poss  []int32
	off   []int32 // keys[off[i]:off[i+1]] belong to contig i
	reads *jellyfish.Frozen
}

func buildGFFSource(seqs [][]byte, k int, reads *jellyfish.Frozen) *gffSource {
	keys, poss, off := flattenKmers(seqs, k)
	return &gffSource{k: k, seqs: seqs, keys: keys, poss: poss, off: off, reads: reads}
}

// buildOccShard filters the global k-mer scan down to shard s,
// preserving scan order so shard rows are byte-identical to the
// corresponding rows of the replicated contigKmerIndex — on whichever
// rank builds them.
func buildOccShard(src *gffSource, ranks, s int) *shard.CSR {
	var keys []kmer.Kmer
	var vals []uint64
	ci := 0
	for j, m := range src.keys {
		for int32(j) >= src.off[ci+1] {
			ci++
		}
		if kmer.OwnerRank(m, ranks) != s {
			continue
		}
		keys = append(keys, m)
		vals = append(vals, packOcc(occurrence{contig: int32(ci), pos: src.poss[j]}))
	}
	return shard.NewCSR(keys, vals)
}

// buildCountShard carves shard s out of the full frozen read table.
func buildCountShard(reads *jellyfish.Frozen, ranks, s int) *jellyfish.Frozen {
	var entries []jellyfish.Entry
	reads.ForEach(func(m kmer.Kmer, c uint32) {
		if kmer.OwnerRank(m, ranks) == s {
			entries = append(entries, jellyfish.Entry{Kmer: m, Count: c})
		}
	})
	return jellyfish.FrozenFromEntries(reads.K, entries)
}

// buildRefShard builds shard s of the weld index from the pooled weld
// list (identical on every rank after pooling), mirroring
// buildWeldIndex's core/rc-core emission order so shard rows equal the
// replicated index's rows.
func buildRefShard(pooled []string, k, ranks, s int) *shard.CSR {
	flank := k / 2
	var keys []kmer.Kmer
	var vals []uint64
	add := func(m kmer.Kmer, ref weldRef) {
		if kmer.OwnerRank(m, ranks) == s {
			keys = append(keys, m)
			vals = append(vals, packRef(ref))
		}
	}
	for id, w := range pooled {
		if len(w) < flank+k {
			continue
		}
		core, valid := kmer.Encode([]byte(w[flank:flank+k]), k)
		if !valid {
			continue
		}
		add(core, weldRef{id: int32(id), rc: false})
		if rc := core.ReverseComplement(k); rc != core {
			add(rc, weldRef{id: int32(id), rc: true})
		}
	}
	return shard.NewCSR(keys, vals)
}

// rankShards is one rank's slice of the distributed tables: the shards
// it statically owns plus any it adopted after an owner death. Owned
// by a single rank goroutine; the underlying source is shared and
// read-only.
type rankShards struct {
	src     *gffSource
	ranks   int
	rank    int
	rep     *recReport
	rec     *trace.Recorder
	counts  map[int]*jellyfish.Frozen
	occs    map[int]*shard.CSR
	refs    map[int]*shard.CSR
	pooled  []string // set after weld pooling, before loop-2 serving
	adopted map[int]bool
	// exchanged accumulates the addressed bytes (sent + received) this
	// rank moved through lookup rounds.
	exchanged int64
}

func newRankShards(src *gffSource, ranks, rank int, rep *recReport, rec *trace.Recorder) *rankShards {
	return &rankShards{
		src: src, ranks: ranks, rank: rank, rep: rep, rec: rec,
		counts:  map[int]*jellyfish.Frozen{},
		occs:    map[int]*shard.CSR{},
		refs:    map[int]*shard.CSR{},
		adopted: map[int]bool{},
	}
}

func (rs *rankShards) noteAdoption(s int) {
	if s == rs.rank || rs.adopted[s] {
		return
	}
	rs.adopted[s] = true
	rs.rep.addShard(s)
	rs.rec.Event("shard", "shard_adopted", rs.rank, fmt.Sprintf("shard=%d", s))
}

// ensureLoop1 materialises the loop-1 stores of shard s (count +
// occurrence tables) from the shared source if this rank does not hold
// them yet — at startup for its own shard, on demand when adopting a
// dead owner's.
func (rs *rankShards) ensureLoop1(s int) {
	if _, ok := rs.occs[s]; ok {
		return
	}
	rs.occs[s] = buildOccShard(rs.src, rs.ranks, s)
	rs.counts[s] = buildCountShard(rs.src.reads, rs.ranks, s)
	rs.noteAdoption(s)
}

// ensureLoop2 materialises the loop-2 store (weld-reference table) of
// shard s. Requires pooled to be set.
func (rs *rankShards) ensureLoop2(s int) {
	if _, ok := rs.refs[s]; ok {
		return
	}
	rs.refs[s] = buildRefShard(rs.pooled, rs.src.k, rs.ranks, s)
	rs.noteAdoption(s)
}

// answerLoop1 serves one loop-1 query from this rank's shards: the
// read count (4 bytes LE) followed by the uvarint-counted occurrence
// row (8-byte words, in global scan order).
func (rs *rankShards) answerLoop1(m kmer.Kmer, dst []byte) []byte {
	s := kmer.OwnerRank(m, rs.ranks)
	rs.ensureLoop1(s)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], rs.counts[s].Get(m))
	dst = append(dst, b4[:]...)
	row := rs.occs[s].Lookup(m)
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	var b8 [8]byte
	for _, v := range row {
		binary.LittleEndian.PutUint64(b8[:], v)
		dst = append(dst, b8[:]...)
	}
	return dst
}

// answerLoop2 serves one loop-2 query: the uvarint-counted weld-ref
// row (8-byte words, in pooled weld-id order).
func (rs *rankShards) answerLoop2(m kmer.Kmer, dst []byte) []byte {
	s := kmer.OwnerRank(m, rs.ranks)
	rs.ensureLoop2(s)
	row := rs.refs[s].Lookup(m)
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	var b8 [8]byte
	for _, v := range row {
		binary.LittleEndian.PutUint64(b8[:], v)
		dst = append(dst, b8[:]...)
	}
	return dst
}

// residentBytes is the per-rank shard-store memory term.
func (rs *rankShards) residentBytes() int64 {
	var n int64
	for _, t := range rs.counts {
		n += t.MemBytes()
	}
	for _, s := range rs.occs {
		n += s.MemBytes()
	}
	for _, s := range rs.refs {
		n += s.MemBytes()
	}
	return n
}

// fetchLedger is the shared completion ledger of one fetch phase — the
// analog of per-rank "done" files on the shared filesystem (like the
// chunkStore it sits next to). Each rank posts its unanswered-query
// count before the round's AgreeDead barrier; after the barrier every
// live rank reads the identical snapshot, so all ranks agree on
// whether another round is needed even when a rank's collective
// contribution was dropped on the wire.
type fetchLedger struct {
	mu        sync.Mutex
	remaining []int
}

func newFetchLedger(ranks int) *fetchLedger {
	return &fetchLedger{remaining: make([]int, ranks)}
}

func (l *fetchLedger) set(rank, n int) {
	l.mu.Lock()
	l.remaining[rank] = n
	l.mu.Unlock()
}

// totalAlive sums the posted counts of the live ranks; dead ranks'
// queries die with them.
func (l *fetchLedger) totalAlive(dead []int) int {
	isDead := map[int]bool{}
	for _, r := range dead {
		isDead[r] = true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0
	for r, n := range l.remaining {
		if !isDead[r] {
			total += n
		}
	}
	return total
}

// fetchShardAnswers is the blocking fault-cleanup pass of the tile
// pipeline: it runs aggregated shard.Round exchanges until every live
// rank's lost queries are answered: post remaining count → AgreeDead →
// identical exit/continue decision on every rank → recompute the owner
// map over the survivors → one shard.Round for the still-unanswered
// queries. Failed owners surface as nil frames and are re-requested
// under the next round's owner map (the adopter rebuilds the shard
// from the shared source inside its answer callback). The round budget
// mirrors chunk recovery: ro.MaxRounds retries past the initial round,
// then a typed *UnrecoverableError.
//
// Every live rank executes the same collective sequence — the decision
// inputs (ledger + agreed dead set) are phase-consistent — which keeps
// the world's collectives aligned. Returned bodies are parallel to
// queries and all non-nil on success. Every query reaching this pass
// was already attempted once over the nonblocking rounds, so each round
// that runs here is a retry and is recorded as one.
func fetchShardAnswers(c *Comm, stage string, rep *recReport, rec *trace.Recorder, exchanged *int64,
	led *fetchLedger, queries []kmer.Kmer, answer func(kmer.Kmer, []byte) []byte,
	ro RecoveryOptions) ([][]byte, error) {
	size := c.Size()
	bodies := make([][]byte, len(queries))
	remaining := len(queries)
	for round := 0; ; round++ {
		led.set(c.Rank(), remaining)
		dead, aerr := c.AgreeDead()
		if aerr != nil {
			// An injected timeout is advisory (the agreement still
			// completed with a phase-consistent dead set); only this
			// rank's own eviction aborts the fetch.
			if fe, ok := mpi.AsFault(aerr); !ok || fe.Evicted {
				return bodies, aerr
			}
		}
		if led.totalAlive(dead) == 0 {
			return bodies, nil
		}
		if round > ro.MaxRounds {
			return bodies, &UnrecoverableError{Stage: stage, Rounds: round, Dead: dead}
		}
		owners := shard.Owners(size, dead)
		if c.Rank() == firstAlive(owners) {
			rep.addShardRound() // one retry round, recorded once
		}
		qs := make([][]kmer.Kmer, size)
		idxs := make([][]int, size)
		for i, m := range queries {
			if bodies[i] != nil {
				continue
			}
			o := owners[kmer.OwnerRank(m, size)]
			if o < 0 {
				return bodies, &UnrecoverableError{Stage: stage, Rounds: round, Dead: dead}
			}
			qs[o] = append(qs[o], m)
			idxs[o] = append(idxs[o], i)
		}
		before := c.Stats
		resps, rerr := shard.Round(c, qs, answer)
		*exchanged += (c.Stats.BytesSent - before.BytesSent) + (c.Stats.BytesRecv - before.BytesRecv)
		if rerr != nil {
			if fe, ok := mpi.AsFault(rerr); !ok || fe.Evicted {
				return bodies, rerr
			}
		}
		answered := 0
		for d := range resps {
			for j, frame := range resps[d] {
				if frame != nil && bodies[idxs[d][j]] == nil {
					bodies[idxs[d][j]] = frame
					remaining--
					answered++
				}
			}
		}
		rec.Event("shard", "lookup_round", c.Rank(),
			fmt.Sprintf("stage=%s round=%d answered=%d remaining=%d", stage, round, answered, remaining))
	}
}

// firstAlive returns the lowest rank serving its own shard — the
// deterministic "record it once" delegate of a fetch round.
func firstAlive(owners []int) int {
	for r, o := range owners {
		if o == r {
			return r
		}
	}
	return -1
}

// buildLoop1Cache materialises the partial replica loop 1 runs on: a
// contigKmerIndex and frozen read table holding exactly the queried
// k-mers, with rows and counts as the owners returned them. Because
// shard rows preserve the global scan order, every probe the loop
// makes returns byte-identical results to the replicated structures.
func buildLoop1Cache(seqs [][]byte, k int, queries []kmer.Kmer, bodies [][]byte) (*contigKmerIndex, *jellyfish.Frozen, error) {
	ix := &contigKmerIndex{k: k, contigs: seqs, set: kmer.NewFlatSet(len(queries))}
	var entries []jellyfish.Entry
	var counts []int32
	total := 0
	rows := make([][]byte, 0, len(queries)) // occ payload per non-empty query, in query order
	for i, m := range queries {
		b := bodies[i]
		if len(b) < 5 {
			return nil, nil, fmt.Errorf("chrysalis: shard loop1 answer for %v truncated (%d bytes)", m, len(b))
		}
		if cnt := binary.LittleEndian.Uint32(b); cnt > 0 {
			entries = append(entries, jellyfish.Entry{Kmer: m, Count: cnt})
		}
		n, w := binary.Uvarint(b[4:])
		if w <= 0 || len(b) < 4+w+int(n)*8 {
			return nil, nil, fmt.Errorf("chrysalis: shard loop1 row for %v truncated", m)
		}
		if n == 0 {
			continue
		}
		id := ix.set.Add(m)
		if int(id) != len(counts) {
			return nil, nil, fmt.Errorf("chrysalis: duplicate query k-mer %v", m)
		}
		counts = append(counts, int32(n))
		rows = append(rows, b[4+w:4+w+int(n)*8])
		total += int(n)
	}
	ix.starts = make([]int32, len(counts)+1)
	for id, n := range counts {
		ix.starts[id+1] = ix.starts[id] + n
	}
	ix.occs = make([]occurrence, total)
	pos := 0
	for _, row := range rows {
		for o := 0; o < len(row); o += 8 {
			ix.occs[pos] = unpackOcc(binary.LittleEndian.Uint64(row[o:]))
			pos++
		}
	}
	return ix, jellyfish.FrozenFromEntries(k, entries), nil
}

// buildLoop2Cache materialises the partial weldIndex loop 2 runs on.
// It shares the pooled weld list (identical on every rank) and
// materialises reverse complements only for the welds its cached rows
// actually reference in RC orientation.
func buildLoop2Cache(pooled []string, k int, queries []kmer.Kmer, bodies [][]byte) (*weldIndex, error) {
	ix := &weldIndex{
		k:       k,
		set:     kmer.NewFlatSet(len(queries)),
		welds:   pooled,
		rcWelds: make([]string, len(pooled)),
	}
	var counts []int32
	total := 0
	rows := make([][]byte, 0, len(queries))
	for i, m := range queries {
		b := bodies[i]
		n, w := binary.Uvarint(b)
		if w <= 0 || len(b) < w+int(n)*8 {
			return nil, fmt.Errorf("chrysalis: shard loop2 row for %v truncated", m)
		}
		if n == 0 {
			continue
		}
		id := ix.set.Add(m)
		if int(id) != len(counts) {
			return nil, fmt.Errorf("chrysalis: duplicate query k-mer %v", m)
		}
		counts = append(counts, int32(n))
		rows = append(rows, b[w:w+int(n)*8])
		total += int(n)
	}
	ix.starts = make([]int32, len(counts)+1)
	for id, n := range counts {
		ix.starts[id+1] = ix.starts[id] + n
	}
	ix.refs = make([]weldRef, total)
	pos := 0
	var rcbuf []byte
	for _, row := range rows {
		for o := 0; o < len(row); o += 8 {
			ref := unpackRef(binary.LittleEndian.Uint64(row[o:]))
			ix.refs[pos] = ref
			pos++
			if ref.rc && ix.rcWelds[ref.id] == "" {
				rcbuf = append(rcbuf[:0], pooled[ref.id]...)
				seq.ReverseComplementInPlace(rcbuf)
				ix.rcWelds[ref.id] = string(rcbuf)
			}
		}
	}
	return ix, nil
}

// memBytes of the flat lookup structures, for the per-rank resident
// meter. The pooled weld strings themselves are excluded — they are
// stage output, identical under both paths.
func (ix *contigKmerIndex) memBytes() int64 {
	return ix.set.MemBytes() + int64(len(ix.starts))*4 + int64(len(ix.occs))*8
}

func (ix *weldIndex) memBytes() int64 {
	n := ix.set.MemBytes() + int64(len(ix.starts))*4 + int64(len(ix.refs))*8
	for _, w := range ix.rcWelds {
		n += int64(len(w))
	}
	return n
}
