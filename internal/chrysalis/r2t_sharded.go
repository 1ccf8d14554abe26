package chrysalis

import (
	"encoding/binary"
	"fmt"

	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
	"gotrinity/internal/trace"
)

// Sharded k-mer→bundle tables for ReadsToTranscripts
// (R2TOptions.ShardKmers).
//
// The replicated implementation builds the full bundleKmerTable on
// every rank — the same memory ceiling GraphFromFasta had before its
// sharding. Here k-mer space is partitioned by kmer.OwnerRank: each
// rank builds only its shard of the table from the shared contig set,
// and before assigning a batch of kept chunks it fetches the owners of
// the distinct k-mers those chunks' reads will probe (both strands)
// through the same overlapped tile pipeline GFF uses (overlap.go). The fetched
// answers materialise a partial bundleKmerTable; a k-mer the shards
// do not hold is simply absent from it, so every lookup the unchanged
// assignment kernels make — hit or miss — matches the replicated
// table, and the assignments are byte-identical.
//
// Fault composition mirrors GFF's: a dead owner's shard is rebuilt by
// a deterministic adopting survivor from the shared source inside its
// answer callback, and chunk recovery recomputes foreign chunks
// against the lazily-built full table (a recovered chunk's reads probe
// k-mers the local partial table never fetched).

// r2tSource is the shared data every bundle-table shard is a
// deterministic function of: the flattened contig k-mer scan in
// component order with each key's component id. It stands in for the
// contig set on the shared filesystem.
type r2tSource struct {
	k      int
	ncomp  int32
	keys   []kmer.Kmer
	off    []int32 // keys[off[i]:off[i+1]] belong to staged contig i
	compOf []int32 // component id of staged contig i
}

// buildR2TSource stages the contigs exactly like buildBundleKmerTable
// (or its packed twin): component-major order, so shard min-merges see
// keys in the same order as the replicated build.
func buildR2TSource(contigs []seq.Record, pcontigs []seq.Packed, comps []Component, k int, packed bool) *r2tSource {
	src := &r2tSource{k: k}
	if packed && len(pcontigs) != len(contigs) {
		pcontigs = make([]seq.Packed, len(contigs))
		for i := range contigs {
			pcontigs[i] = seq.Pack(contigs[i].Seq)
		}
	}
	var aseqs [][]byte
	var pseqs []seq.Packed
	for _, comp := range comps {
		if int32(comp.ID) >= src.ncomp {
			src.ncomp = int32(comp.ID) + 1
		}
		for _, ci := range comp.Contigs {
			if packed {
				pseqs = append(pseqs, pcontigs[ci])
			} else {
				aseqs = append(aseqs, contigs[ci].Seq)
			}
			src.compOf = append(src.compOf, int32(comp.ID))
		}
	}
	if packed {
		src.keys, _, src.off = flattenKmersPacked(pseqs, k)
	} else {
		src.keys, _, src.off = flattenKmers(aseqs, k)
	}
	return src
}

// buildBundleShard carves shard s out of the source scan: the same
// min-merge as buildBundleKmerTable restricted to the shard's keys
// (min-merge is per-key, so shard owners equal the full table's).
// ops records the full scan length — sharding divides the resident
// insertion state, not the shared-file scan every rank still streams.
func buildBundleShard(src *r2tSource, ranks, s int) *bundleKmerTable {
	t := &bundleKmerTable{
		k:     src.k,
		set:   kmer.NewFlatSet(len(src.keys)/ranks + 1),
		ncomp: src.ncomp,
		ops:   int64(len(src.keys)),
	}
	var owner []int32
	si := 0
	for j, m := range src.keys {
		for int32(j) >= src.off[si+1] {
			si++
		}
		if kmer.OwnerRank(m, ranks) != s {
			continue
		}
		id := t.set.Add(m)
		if int(id) == len(owner) {
			owner = append(owner, src.compOf[si])
		} else if src.compOf[si] < owner[id] {
			owner[id] = src.compOf[si]
		}
	}
	t.owner = owner
	return t
}

// memBytes is the table's resident size (flat set + owner column).
func (t *bundleKmerTable) memBytes() int64 {
	return t.set.MemBytes() + int64(len(t.owner))*4
}

// r2tShards is one rank's slice of the distributed bundle table: the
// shard it statically owns plus any adopted after an owner death.
type r2tShards struct {
	src     *r2tSource
	ranks   int
	rank    int
	rep     *recReport
	rec     *trace.Recorder
	tables  map[int]*bundleKmerTable
	adopted map[int]bool
	// exchanged accumulates the addressed bytes this rank moved through
	// lookup rounds.
	exchanged int64
}

func newR2TShards(src *r2tSource, ranks, rank int, rep *recReport, rec *trace.Recorder) *r2tShards {
	return &r2tShards{
		src: src, ranks: ranks, rank: rank, rep: rep, rec: rec,
		tables:  map[int]*bundleKmerTable{},
		adopted: map[int]bool{},
	}
}

// ensure materialises shard s from the shared source if this rank does
// not hold it yet — at startup for its own shard, on demand when
// adopting a dead owner's.
func (rs *r2tShards) ensure(s int) {
	if _, ok := rs.tables[s]; ok {
		return
	}
	rs.tables[s] = buildBundleShard(rs.src, rs.ranks, s)
	if s != rs.rank && !rs.adopted[s] {
		rs.adopted[s] = true
		rs.rep.addShard(s)
		rs.rec.Event("shard", "shard_adopted", rs.rank, fmt.Sprintf("shard=%d", s))
	}
}

// answer serves one bundle-table query from this rank's shards:
// uvarint(owner+1), or uvarint(0) when the k-mer is in no bundle —
// a present frame either way, distinct from the nil frame of a lost
// exchange.
func (rs *r2tShards) answer(m kmer.Kmer, dst []byte) []byte {
	s := kmer.OwnerRank(m, rs.ranks)
	rs.ensure(s)
	if comp, ok := rs.tables[s].lookup(m); ok {
		return binary.AppendUvarint(dst, uint64(comp)+1)
	}
	return binary.AppendUvarint(dst, 0)
}

// residentBytes is the per-rank shard-store memory term.
func (rs *r2tShards) residentBytes() int64 {
	var n int64
	for _, t := range rs.tables {
		n += t.memBytes()
	}
	return n
}

// buildR2TCache materialises the partial bundle table the assignment
// loop runs on: exactly the queried k-mers that belong to a bundle,
// with the owners the shards returned. Absent k-mers stay absent, so
// lookups miss exactly where the replicated table misses.
func buildR2TCache(k int, ncomp int32, queries []kmer.Kmer, bodies [][]byte) (*bundleKmerTable, error) {
	// Size the set by the hits only: roughly half the queries are the
	// reverse-complement strand's probes, which the forward-built bundle
	// table misses, and absent k-mers are never inserted.
	hits := 0
	for _, b := range bodies {
		if len(b) > 0 && b[0] != 0 {
			hits++
		}
	}
	t := &bundleKmerTable{k: k, set: kmer.NewFlatSet(hits), ncomp: ncomp}
	var owner []int32
	for i, m := range queries {
		v, w := binary.Uvarint(bodies[i])
		if w <= 0 {
			return nil, fmt.Errorf("chrysalis: shard r2t answer for %v truncated (%d bytes)", m, len(bodies[i]))
		}
		if v == 0 {
			continue
		}
		id := t.set.Add(m)
		if int(id) != len(owner) {
			return nil, fmt.Errorf("chrysalis: duplicate query k-mer %v", m)
		}
		owner = append(owner, int32(v-1))
	}
	t.owner = owner
	return t, nil
}

// collectR2TQueryKmers gathers the distinct k-mers the assignment loop
// will probe over the reads of the given chunks, in first-seen order.
// iterate emits one read's forward k-mers and their reverse
// complements (assignRead tallies both strands; the RC read's valid
// windows mirror the forward read's, so the RCs cover them exactly).
func collectR2TQueryKmers(chunks []int, chunkRange func(int) (int, int),
	iterate func(i int, add func(kmer.Kmer))) []kmer.Kmer {
	seen := kmer.NewFlatSet(0)
	var out []kmer.Kmer
	add := func(m kmer.Kmer) {
		n := int32(seen.Len())
		if seen.Add(m) == n {
			out = append(out, m)
		}
	}
	for _, ch := range chunks {
		lo, hi := chunkRange(ch)
		for i := lo; i < hi; i++ {
			iterate(i, add)
		}
	}
	return out
}
