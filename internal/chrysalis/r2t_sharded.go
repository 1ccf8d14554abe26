package chrysalis

import (
	"encoding/binary"
	"fmt"

	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// The k-mer→bundle table of ReadsToTranscripts, replicated or sharded
// (R2TOptions.ShardKmers; the machinery is in sharded.go).
//
// Both forms are min-merges over one staged scan of the contig set: the
// replicated table merges every key, shard s merges the keys
// kmer.OwnerRank assigns to s. A sharded rank fetches the owners of the
// distinct k-mers its kept chunks' reads will probe (both strands);
// the answers materialise a partial bundleKmerTable in which a k-mer
// the shards do not hold is simply absent, so every lookup the
// unchanged assignment kernels make — hit or miss — matches the
// replicated table, and the assignments are byte-identical.

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
// k-mer goes to the smallest component id holding it — per key and
// order-independent, so a shard's owners equal the full table's. ops
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
		if kmer.OwnerRank(m, ranks) != s {
			continue
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

// bundleShards describes the distributed bundle table: a query is
// answered with uvarint(owner+1), or uvarint(0) when the k-mer is in no
// bundle — a present frame either way, distinct from the nil frame of a
// lost exchange. iterate emits one read's probes (see readKmers).
func bundleShards(src *r2tSource, ranks int, iterate func(i int, add func(kmer.Kmer))) *shardedLookup[*bundleKmerTable] {
	return &shardedLookup[*bundleKmerTable]{
		label: "readstotranscripts/table", tagBase: overlapTagR2T,
		iterate: iterate,
		build: func(s int) tableShard {
			t := src.table(ranks, s)
			return tableShard{bytes: t.memBytes(), answer: func(m kmer.Kmer, dst []byte) []byte {
				comp, _ := t.lookup2(m)
				return binary.AppendUvarint(dst, uint64(comp+1))
			}}
		},
		cache: func(queries []kmer.Kmer, bodies [][]byte) (*bundleKmerTable, int64, error) {
			t, err := buildR2TCache(src.k, src.ncomp, queries, bodies)
			if err != nil {
				return nil, 0, err
			}
			return t, t.memBytes(), nil
		},
	}
}

// buildR2TCache materialises the partial bundle table the assignment
// loop runs on: exactly the queried k-mers that belong to a bundle,
// with the owners the shards returned, folded into canonical cells —
// a read's probes are both strands, so m and rc(m) fill the two cells
// of one id. Cells no answer fills stay −1, so lookups miss exactly
// where the replicated table misses. A cell filled twice means a
// repeated query.
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
	t := &bundleKmerTable{k: k, set: kmer.NewFlatSet(hits), ncomp: ncomp, owner: make([]int32, 0, 2*hits)}
	for i, m := range queries {
		v, _, err := answerHead(m, bodies[i], 0)
		if err != nil {
			return nil, err
		}
		if v == 0 {
			continue
		}
		i, j := t.cells(m)
		if t.owner[i] >= 0 {
			return nil, fmt.Errorf("chrysalis: duplicate query k-mer %v", m)
		}
		t.owner[i], t.owner[j] = int32(v-1), int32(v-1)
	}
	return t, nil
}
