package chrysalis

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
	"gotrinity/internal/shard"
)

// batchOf is a one-owner batch answering queries[i] with bodies[i].
func batchOf(queries []kmer.Kmer, bodies [][]byte) *shard.Batch {
	b := &shard.Batch{}
	b.Route(1, queries, func(kmer.Kmer) int { return 0 })
	for i, body := range bodies {
		b.SetBody(i, body)
	}
	return b
}

// buildR2TCache is the re-hashing replica r2tReplica replaced, kept as
// its oracle: a fresh bundle table holding exactly the queried canonical
// k-mers that belong to a bundle on either strand, each one id whose two
// cells are the owners the shard returned. A query that is not
// canonical, or repeats an earlier one, is an error.
func buildR2TCache(k int, ncomp int32, queries []kmer.Kmer, b *shard.Batch) (*bundleKmerTable, error) {
	t := &bundleKmerTable{k: k, set: kmer.NewFlatSet(0), ncomp: ncomp}
	for i, m := range queries {
		if c, _ := m.Canonical(k); c != m {
			return nil, fmt.Errorf("chrysalis: query k-mer %v is not canonical", m)
		}
		fwd, rev, err := r2tAnswer(m, b.Body(i))
		if err != nil {
			return nil, err
		}
		if fwd < 0 && rev < 0 {
			continue
		}
		if want := t.set.Len(); int(t.set.Add(m)) != want {
			return nil, fmt.Errorf("chrysalis: duplicate query k-mer %v", m)
		}
		t.owner = append(t.owner, fwd, rev)
	}
	return t, nil
}

// TestR2TShardReplicaFoldsStrands feeds r2tReplica the shard answers for
// every k-mer of a set of reads, the way a sharded rank queries them:
// once per read k-mer, in canonical form, through the tile's dedup set,
// answered by the shard that owns the canonical k-mer with the owners
// of both orientations. A k-mer and its reverse complement often both
// hit — one contig is the reverse complement of part of another in a
// second component — so one answer must fill the two cells of one
// canonical id. Every lookup2 of the replica, on both strands, must
// equal the replicated table's and the
// re-hashing oracle's; a non-canonical query must be an error. Even k
// adds palindromes, whose two cells are one orientation's.
func TestR2TShardReplicaFoldsStrands(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dna := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		return s
	}
	c0 := append(dna(80), "AAACGCGTTTACGT"...)
	contigs := []seq.Record{
		{ID: "c0", Seq: c0},
		{ID: "c1", Seq: seq.ReverseComplement(c0[20:70])},
		{ID: "c2", Seq: dna(90)},
	}
	comps := []Component{{ID: 0, Contigs: []int{0}}, {ID: 1, Contigs: []int{1, 2}}}
	reads := [][]byte{c0[:60], c0[30:], contigs[2].Seq[10:70], dna(50), []byte(strings.Repeat("AC", 20))}
	for _, k := range []int{6, 7} {
		src := buildR2TSource(contigs, nil, comps, k, false)
		full := src.table(0, 0)
		for _, ranks := range []int{1, 3} {
			sh := bundleShards(src, ranks, nil, nil)
			set := kmer.NewFlatSet(0)
			var queries []kmer.Kmer
			var bodies [][]byte
			for _, r := range reads {
				eachKmer(r, k, false, func(m kmer.Kmer) {
					c, _ := m.Canonical(k)
					if set.Contains(c) {
						return
					}
					set.Add(c)
					queries = append(queries, c)
					bodies = append(bodies, sh.build(kmer.OwnerRank(c, ranks)).answer(c, nil))
				})
			}
			rep, err := r2tReplica(k, full.ncomp, set, queries, batchOf(queries, bodies))
			if err != nil {
				t.Fatalf("k=%d ranks=%d: %v", k, ranks, err)
			}
			oracle, err := buildR2TCache(k, full.ncomp, queries, batchOf(queries, bodies))
			if err != nil {
				t.Fatalf("k=%d ranks=%d: oracle: %v", k, ranks, err)
			}
			both, pal := 0, 0
			for _, c := range queries {
				for _, m := range []kmer.Kmer{c, c.ReverseComplement(k)} {
					gotF, gotR := rep.lookup2(m)
					wantF, wantR := full.lookup2(m)
					oraF, oraR := oracle.lookup2(m)
					if gotF != wantF || gotR != wantR || oraF != wantF || oraR != wantR {
						t.Fatalf("k=%d ranks=%d: replica lookup2(%v) = (%d,%d), oracle (%d,%d), replicated (%d,%d)",
							k, ranks, m, gotF, gotR, oraF, oraR, wantF, wantR)
					}
				}
				wantF, wantR := full.lookup2(c)
				if wantF >= 0 && wantR >= 0 {
					both++
				}
				if c == c.ReverseComplement(k) && wantF >= 0 {
					pal++
				}
			}
			if both == 0 || (k%2 == 0 && pal == 0) {
				t.Fatalf("k=%d ranks=%d: %d queries hit on both strands, %d palindromes hit: the fold went untested",
					k, ranks, both, pal)
			}
			for i, c := range queries {
				if f, r := full.lookup2(c); f < 0 && r < 0 {
					continue
				}
				if rc := c.ReverseComplement(k); rc != c {
					q := append(slices.Clone(queries[:i]), rc)
					qs := kmer.NewFlatSet(0)
					for _, m := range q {
						qs.Add(m)
					}
					_, err := r2tReplica(k, full.ncomp, qs, q, batchOf(q, append(bodies[:i:i], bodies[i])))
					if err == nil || !strings.Contains(err.Error(), "not canonical") {
						t.Fatalf("k=%d ranks=%d: non-canonical query %v: err = %v, want an error", k, ranks, rc, err)
					}
				}
				break
			}
		}
	}
}

// TestR2TShardsHoldBothOrientations pins the shard layout the canonical
// probe relies on: shard s holds a k-mer exactly when OwnerRank gives
// its canonical form to s, with both cells of its id as the replicated
// table has them — so the owner of canonical(m) answers m and rc(m).
func TestR2TShardsHoldBothOrientations(t *testing.T) {
	sc := buildTileScenario(t)
	gff := runGFF(t, sc, 4, gffOpts(sc))
	k := sc.k
	src := buildR2TSource(sc.contigs, nil, gff.Components, k, false)
	full := src.table(0, 0)
	for _, ranks := range []int{2, 5} {
		held := 0
		for s := 0; s < ranks; s++ {
			shard := src.table(ranks, s)
			held += shard.set.Len()
			shard.set.ForEach(func(c kmer.Kmer, _ int32) {
				if o := kmer.OwnerRank(c, ranks); o != s {
					t.Fatalf("ranks=%d: shard %d holds %v, owned by %d", ranks, s, c, o)
				}
				for _, m := range []kmer.Kmer{c, c.ReverseComplement(k)} {
					gotF, gotR := shard.lookup2(m)
					wantF, wantR := full.lookup2(m)
					if gotF != wantF || gotR != wantR {
						t.Fatalf("ranks=%d shard %d: lookup2(%v) = (%d,%d), replicated (%d,%d)", ranks, s, m, gotF, gotR, wantF, wantR)
					}
				}
			})
		}
		if held != full.set.Len() {
			t.Errorf("ranks=%d: shards hold %d ids, the replicated table %d", ranks, held, full.set.Len())
		}
	}
}
