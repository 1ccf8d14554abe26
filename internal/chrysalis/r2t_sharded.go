package chrysalis

import (
	"encoding/binary"
	"fmt"

	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
	"gotrinity/internal/shard"
)

// The k-mer→bundle table of ReadsToTranscripts, replicated or sharded
// (R2TOptions.ShardKmers; the machinery is in sharded.go).
//
// Both forms are min-merges over one staged scan of the contig set: the
// replicated table merges every key, shard s merges the keys whose
// canonical form kmer.OwnerRank assigns to s — so both orientations of
// a k-mer, the two cells of one table id, live on one shard. A sharded
// rank fetches, once per read k-mer, the canonical form of the distinct
// k-mers its kept chunks' reads hold; the owner answers both
// orientations from one lookup2, which is exactly what the assignment
// kernel's one canonical probe reads. The tile replica is a
// bundleKmerTable over the tile's dedup set itself, with the two owner
// cells of every query as the shard returned them: a k-mer in no bundle
// has both cells −1, which is what the replicated table's miss returns,
// so every lookup the unchanged assignment kernels make — hit or miss —
// matches the replicated table, and the assignments are byte-identical.

// r2tSource is the shared data every bundle table is a deterministic
// function of: the flattened contig k-mer scan in component order with
// each key's component id. It stands in for the contig set on the
// shared filesystem.
type r2tSource struct {
	k      int
	ncomp  int32 // 1 + max component id, for scratch sizing
	keys   []kmer.Kmer
	off    []int32 // keys[off[i]:off[i+1]] belong to staged contig i
	compOf []int32 // component id of staged contig i
}

// buildR2TSource stages the contigs component-major and flattens their
// k-mers, from the packed contigs when packed is set (packing them
// first if pcontigs does not supply them) — the packed k-mer stream
// equals the ASCII one, so the tables are identical either way.
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
	// The k-mer extraction fans out over real goroutines (each contig
	// fills its own precomputed range of the flat key array); the
	// min-merge insertion in table stays serial and deterministic.
	if packed {
		src.keys, _, src.off = flattenKmersPacked(pseqs, k)
	} else {
		src.keys, _, src.off = flattenKmers(aseqs, k)
	}
	return src
}

// table min-merges shard s (of ranks) of the source scan into a
// bundleKmerTable; ranks = 0 is the unpartitioned, replicated table. A
// shard keeps the keys whose canonical form it owns. A k-mer goes to
// the smallest component id holding it — per key and order-independent,
// so a shard's owners equal the full table's. ops
// records the full scan length either way: sharding divides the
// resident insertion state, not the shared-file scan every rank still
// streams.
func (src *r2tSource) table(ranks, s int) *bundleKmerTable {
	hint := len(src.keys)
	if ranks > 0 {
		hint = hint/ranks + 1
	}
	// Each key adds at most one id, of two owner cells.
	t := &bundleKmerTable{k: src.k, set: kmer.NewFlatSet(hint), ncomp: src.ncomp, ops: int64(len(src.keys)),
		owner: make([]int32, 0, 2*hint)}
	si := 0
	for j, m := range src.keys {
		for int32(j) >= src.off[si+1] {
			si++
		}
		if ranks > 1 {
			if c, _ := m.Canonical(src.k); kmer.OwnerRank(c, ranks) != s {
				continue
			}
		}
		comp := src.compOf[si]
		i, j := t.cells(m)
		if o := t.owner[i]; o < 0 || comp < o {
			t.owner[i], t.owner[j] = comp, comp
		}
	}
	return t
}

// buildBundleKmerTable builds the full table from ASCII contigs.
func buildBundleKmerTable(contigs []seq.Record, comps []Component, k int) *bundleKmerTable {
	return buildR2TSource(contigs, nil, comps, k, false).table(0, 0)
}

// memBytes is the table's resident size (flat set + owner column).
func (t *bundleKmerTable) memBytes() int64 {
	return t.set.MemBytes() + int64(len(t.owner))*4
}

// bundleShards describes the distributed bundle table: a query is a
// canonical k-mer, answered with two uvarints, owner+1 of the k-mer and
// of its reverse complement (0 = in no bundle) — from one lookup2, and
// a present frame either way, distinct from the nil frame of a lost
// exchange. iterate emits the canonical form of each of one read's
// k-mers, at most span(i) of them.
func bundleShards(src *r2tSource, ranks int, iterate func(i int, add func(kmer.Kmer)), span func(i int) int) *shardedLookup[*bundleKmerTable] {
	return &shardedLookup[*bundleKmerTable]{
		label: "readstotranscripts/table", tagBase: overlapTagR2T,
		iterate: iterate, span: span,
		build: func(s int) tableShard {
			t := src.table(ranks, s)
			return tableShard{bytes: t.memBytes(), answer: func(m kmer.Kmer, dst []byte) []byte {
				fwd, rev := t.lookup2(m)
				return binary.AppendUvarint(binary.AppendUvarint(dst, uint64(fwd+1)), uint64(rev+1))
			}}
		},
		replica: func(set *kmer.FlatSet, queries []kmer.Kmer, b *shard.Batch) (*bundleKmerTable, int64, error) {
			t, err := r2tReplica(src.k, src.ncomp, set, queries, b)
			if err != nil {
				return nil, 0, err
			}
			return t, t.memBytes(), nil
		},
	}
}

// r2tAnswer reads one canonical query's answer: the owners of the
// k-mer and of its reverse complement, −1 for an orientation in no
// bundle.
func r2tAnswer(m kmer.Kmer, body []byte) (fwd, rev int32, err error) {
	f, rest, err := answerHead(m, body, 0)
	if err != nil {
		return 0, 0, err
	}
	r, rest, err := answerHead(m, rest, 0)
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("chrysalis: shard answer for %v has %d trailing bytes", m, len(rest))
	}
	return int32(f) - 1, int32(r) - 1, err
}

// r2tReplica is the bundle table the assignment loop runs on for one
// tile: the tile's dedup set, whose id i is queries[i], with the two
// owner cells of every query as the shard returned them — the cells the
// replicated table holds for it, or −1 for an orientation in no bundle.
// A query that is not canonical is an error: the kernel's canonical
// probe would never find it.
func r2tReplica(k int, ncomp int32, set *kmer.FlatSet, queries []kmer.Kmer, b *shard.Batch) (*bundleKmerTable, error) {
	t := &bundleKmerTable{k: k, set: set, ncomp: ncomp, owner: make([]int32, 2*len(queries))}
	for i, m := range queries {
		if c, _ := m.Canonical(k); c != m {
			return nil, fmt.Errorf("chrysalis: query k-mer %v is not canonical", m)
		}
		fwd, rev, err := r2tAnswer(m, b.Body(i))
		if err != nil {
			return nil, err
		}
		t.owner[2*i], t.owner[2*i+1] = fwd, rev
	}
	return t, nil
}
