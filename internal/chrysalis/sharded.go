package chrysalis

import (
	"encoding/binary"
	"fmt"
	"sync"

	"gotrinity/internal/kmer"
	"gotrinity/internal/mpi"
	"gotrinity/internal/shard"
)

// Sharded k-mer lookup state (GFFOptions.ShardKmers, R2TOptions.ShardKmers).
//
// The replicated implementation gives every rank the full lookup
// tables — the whole read-count table, the contig k-mer occurrence index
// and the pooled weld index in GraphFromFasta, the k-mer→bundle table
// in ReadsToTranscripts — the paper's own memory ceiling. With
// sharding, k-mer space is partitioned by kmer.OwnerRank and each rank
// holds its shard of each table, and holds it once. The read counts
// are served in place from the count table the counting stage built:
// its partitions split the same top hash bits as the owner map, so a
// rank's count shard is a jellyfish.View of the partitions its owner
// range covers, with nothing copied. The contig and weld tables are
// rebuilt deterministically from the shared source data (the contig
// file, which on a real cluster lives on the shared filesystem) by the
// same build as the replicated table, filtered by owner (shardTable,
// r2tSource.table).
//
// Lookups are batched, not chased one by one: for each tile of its
// chunk list (overlap.go) a rank collects the distinct k-mers the
// kernel will probe over those items into the tile's dedup set and
// fetches their answers in one aggregated lookup round (a shard.Batch:
// the queries routed owner-major, each answer left where it arrived in
// the reply blobs). The dedup set is the tile's replica: its ids index
// answer columns decoded in query order — occurrence and weld-ref rows
// appended over the set (kmer.RowsOver), a read-count column, the
// bundle owner cells — so no query is hashed twice, and a k-mer the
// shards do not hold reads as an empty row, a zero count or no owner,
// exactly what the full table answers. The kernels run unchanged and
// their results, probe counts and work units are byte-identical to the
// replicated reference — the property the differential batteries pin.
// A stage describes one distributed table to the hybrid loop as a
// shardedLookup; this file holds that type, the machinery behind it,
// and GraphFromFasta's two tables (r2t_sharded.go holds
// ReadsToTranscripts').
//
// Fault composition mirrors the chunk-recovery layer: if an owner dies
// mid-fetch, the survivors agree on the dead set (AgreeDead), recompute
// the owner map with shard.Owners, and the adopting rank rebuilds the
// dead rank's shard from the shared source data; unanswered queries are
// simply re-requested under the new map until the round budget runs
// out.

// shardedLookup describes one distributed table to the hybrid loop.
type shardedLookup[L any] struct {
	label   string // fetch-phase label in errors and lookup_round events
	tagBase int    // tag range of the phase's nonblocking rounds
	// iterate emits every k-mer the kernel will probe for one item;
	// span bounds how many it emits, which sizes a tile's dedup set.
	iterate func(item int, add func(kmer.Kmer))
	span    func(item int) int
	// build materialises shard s from the shared source — at startup
	// for a rank's own shard, on demand when it adopts a dead owner's.
	build func(s int) tableShard
	// replica turns one tile's answers into the lookup the kernel runs
	// on: set is the tile's dedup set, whose id i is queries[i], and
	// b.Body(i), non-nil, answers queries[i]. It reports the replica's
	// resident bytes, the set included.
	replica func(set *kmer.FlatSet, queries []kmer.Kmer, b *shard.Batch) (look L, bytes int64, err error)
}

// tableShard is one built shard: how it answers a query (appending the
// answer body to dst) and what it costs to hold.
type tableShard struct {
	answer func(m kmer.Kmer, dst []byte) []byte
	bytes  int64
}

// shardSet is one rank's slice of a distributed table: the shard it
// statically owns plus any it adopted after an owner death. Owned by a
// single rank goroutine; the source behind build is shared, read-only.
type shardSet struct {
	env   *loopEnv
	ranks int
	rank  int
	build func(s int) tableShard
	held  map[int]tableShard
}

// shard returns shard s, building it on first use.
func (ss *shardSet) shard(s int) tableShard {
	sh, ok := ss.held[s]
	if !ok {
		sh = ss.build(s)
		ss.held[s] = sh
		if s != ss.rank {
			ss.env.noteAdoption(ss.rank, s)
		}
	}
	return sh
}

// answer serves one query from whichever held (or newly adopted) shard
// owns the k-mer.
func (ss *shardSet) answer(m kmer.Kmer, dst []byte) []byte {
	return ss.shard(kmer.OwnerRank(m, ss.ranks)).answer(m, dst)
}

// bytes is the per-rank shard-store memory term.
func (ss *shardSet) bytes() int64 {
	var n int64
	for _, sh := range ss.held {
		n += sh.bytes
	}
	return n
}

// windows is how many k-mer windows a sequence of length n has.
func windows(n, k int) int { return max(0, n-k+1) }

// eachKmer emits the valid k-mers of s in scan order, each followed by
// its reverse complement when withRC is set.
func eachKmer(s []byte, k int, withRC bool, add func(kmer.Kmer)) {
	it := kmer.NewIterator(s, k)
	for {
		m, _, ok := it.Next()
		if !ok {
			return
		}
		add(m)
		if withRC {
			add(m.ReverseComplement(k))
		}
	}
}

// appendRow encodes one table row as an answer body: the uvarint word
// count, then each value packed into an 8-byte word, in row order.
func appendRow[V any](dst []byte, row []V, pack func(V) uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = binary.LittleEndian.AppendUint64(dst, pack(v))
	}
	return dst
}

// answerHead reads the uvarint that opens an answer body after skip
// header bytes — a row's word count, or a bundle owner — and returns
// it with the bytes behind it.
func answerHead(m kmer.Kmer, b []byte, skip int) (v uint64, rest []byte, err error) {
	if len(b) > skip {
		if v, w := binary.Uvarint(b[skip:]); w > 0 {
			return v, b[skip+w:], nil
		}
	}
	return 0, nil, fmt.Errorf("chrysalis: shard answer for %v truncated (%d bytes)", m, len(b))
}

// decodeRows appends a tile's rows over its dedup set: the row of id
// i is query i's answer row (appendRow's encoding, skip bytes into the
// body), empty where the shards hold none. Shard rows preserve the
// replicated tables' row order, so every probe of the replica returns
// exactly what the full table would. Each answer body is read once;
// head, if non-nil, is handed query i's body for the skip bytes before
// its row. An answer frame is a length byte or more, the skip bytes, a
// row count byte or more and 8 bytes per value, so the reply bytes
// bound the values and the value array is allocated once.
func decodeRows[V any](set *kmer.FlatSet, queries []kmer.Kmer, b *shard.Batch, skip int, unpack func(uint64) V,
	head func(i int, body []byte)) (*kmer.Multimap[V], error) {
	t := kmer.RowsOver[V](set, max(0, b.ReplyBytes()-len(queries)*(skip+2))/8)
	for i, m := range queries {
		body := b.Body(i)
		n, rest, err := answerHead(m, body, skip)
		if err == nil && n > uint64(len(rest))/8 {
			err = fmt.Errorf("chrysalis: shard row for %v truncated", m)
		}
		if err != nil {
			return nil, err
		}
		if head != nil {
			head(i, body)
		}
		for o := 0; o < int(n)*8; o += 8 {
			t.Push(unpack(binary.LittleEndian.Uint64(rest[o:])))
		}
		t.EndRow()
	}
	return t, nil
}

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

// weldShards describes loop 1's distributed tables — the read counts
// and the contig k-mer occurrence index — as one lookup: a query is
// answered with the read count (4 bytes LE) followed by the occurrence
// row in global scan order. Loop 1 probes every valid contig k-mer plus
// its reverse complement, which provably covers the seed probes, the
// RC-seed probes and every weldSupport window probe (window k-mers are
// contig k-mers).
func weldShards(src *gffSource, ranks int) *shardedLookup[weldLookup] {
	return &shardedLookup[weldLookup]{
		label: "graphfromfasta/loop1", tagBase: overlapTagLoop1,
		iterate: func(i int, add func(kmer.Kmer)) { eachKmer(src.seqs[i], src.k, true, add) },
		span:    func(i int) int { return 2 * windows(len(src.seqs[i]), src.k) },
		build: func(s int) tableShard {
			occs, counts := src.occs(ranks, s), src.counts.View(ranks, s)
			return tableShard{bytes: occs.MemBytes() + counts.MemBytes(),
				answer: func(m kmer.Kmer, dst []byte) []byte {
					dst = binary.LittleEndian.AppendUint32(dst, counts.Get(m))
					return appendRow(dst, occs.Row(m), packOcc)
				}}
		},
		replica: func(set *kmer.FlatSet, queries []kmer.Kmer, b *shard.Batch) (weldLookup, int64, error) {
			look, err := loop1Replica(set, queries, b)
			if err != nil {
				return weldLookup{}, 0, err
			}
			return look, look.memBytes(), nil
		},
	}
}

// pairShards describes loop 2's distributed weld index: a query is
// answered with its weld-ref row in pooled weld-id order. Loop 2 only
// probes forward contig k-mers, because the index itself is keyed under
// both orientations of each weld core. pooled is read when a shard or
// a tile replica is built — after weld pooling.
func pairShards(src *gffSource, ranks int, pooled func() []weld) *shardedLookup[*weldIndex] {
	return &shardedLookup[*weldIndex]{
		label: "graphfromfasta/loop2", tagBase: overlapTagLoop2,
		iterate: func(i int, add func(kmer.Kmer)) { eachKmer(src.seqs[i], src.k, false, add) },
		span:    func(i int) int { return windows(len(src.seqs[i]), src.k) },
		build: func(s int) tableShard {
			refs := shardTable(ranks, s, 0, weldCoreRefs(pooled(), src.k))
			return tableShard{bytes: refs.MemBytes(),
				answer: func(m kmer.Kmer, dst []byte) []byte { return appendRow(dst, refs.Row(m), packRef) }}
		},
		replica: func(set *kmer.FlatSet, queries []kmer.Kmer, b *shard.Batch) (*weldIndex, int64, error) {
			refs, err := decodeRows(set, queries, b, 0, unpackRef, nil)
			if err != nil {
				return nil, 0, err
			}
			// The pooled weld list is identical on every rank.
			return &weldIndex{k: src.k, refs: refs, welds: pooled()}, refs.MemBytes(), nil
		},
	}
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
// is chunk recovery's (RecoveryOptions.spent): MaxRounds retry rounds,
// then a typed *UnrecoverableError.
//
// Every live rank executes the same collective sequence — the decision
// inputs (ledger + agreed dead set) are phase-consistent — which keeps
// the world's collectives aligned. Returned bodies are parallel to
// queries and all non-nil on success. Every query reaching this pass
// was already attempted once over the nonblocking rounds, so each round
// that runs here is a retry and is recorded as one.
func fetchShardAnswers(c *Comm, env *loopEnv, stage string, exchanged *int64, led *fetchLedger,
	queries []kmer.Kmer, answer func(kmer.Kmer, []byte) []byte) ([][]byte, error) {
	size := c.Size()
	bodies := make([][]byte, len(queries))
	remaining := len(queries)
	var b shard.Batch
	var left []kmer.Kmer // this round's unanswered queries
	var at []int         // their indices in queries
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
		if env.ro.spent(round) {
			return bodies, &UnrecoverableError{Stage: stage, Rounds: round, Dead: dead}
		}
		owners := shard.Owners(size, dead)
		if c.Rank() == firstAlive(owners) {
			env.rep.addShardRound() // one retry round, recorded once
		}
		left, at = left[:0], at[:0]
		for i, m := range queries {
			if bodies[i] != nil {
				continue
			}
			if owners[kmer.OwnerRank(m, size)] < 0 {
				return bodies, &UnrecoverableError{Stage: stage, Rounds: round, Dead: dead}
			}
			left, at = append(left, m), append(at, i)
		}
		b.Route(size, left, func(m kmer.Kmer) int { return owners[kmer.OwnerRank(m, size)] })
		before := c.Stats
		rerr := shard.Round(c, &b, answer)
		*exchanged += (c.Stats.BytesSent - before.BytesSent) + (c.Stats.BytesRecv - before.BytesRecv)
		if rerr != nil {
			if fe, ok := mpi.AsFault(rerr); !ok || fe.Evicted {
				return bodies, rerr
			}
		}
		answered := 0
		for j, i := range at {
			if body := b.Body(j); body != nil {
				bodies[i] = body
				remaining--
				answered++
			}
		}
		env.rec.Event("shard", "lookup_round", c.Rank(),
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

// loop1Replica is loop 1's tile replica: the occurrence rows and the
// read-count column, both over the tile's dedup set, from answers that
// carry the read count (4 bytes LE) before the occurrence row.
func loop1Replica(set *kmer.FlatSet, queries []kmer.Kmer, b *shard.Batch) (weldLookup, error) {
	counts := make([]uint32, len(queries))
	occs, err := decodeRows(set, queries, b, 4, unpackOcc, func(i int, body []byte) {
		counts[i] = binary.LittleEndian.Uint32(body) // answerHead checked the body is longer than 4 bytes
	})
	if err != nil {
		return weldLookup{}, err
	}
	return weldLookup{occs: occs, reads: &tileCounts{set: set, counts: counts}}, nil
}
