package chrysalis

import (
	"math/rand"
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

// TestBuildR2TCacheFoldsStrands feeds buildR2TCache the shard answers
// for every k-mer of a set of reads, the way a sharded rank queries
// them: once per read k-mer, in canonical form, answered by the shard
// that owns the canonical k-mer with the owners of both orientations.
// A k-mer and its reverse complement often both hit — one contig is the
// reverse complement of part of another in a second component — so one
// answer must fill the two cells of one canonical id. Every lookup2 of
// the partial table, on both strands, must equal the replicated
// table's; a repeated or non-canonical query must be an error. Even k
// adds palindromes, whose two cells are one orientation's.
func TestBuildR2TCacheFoldsStrands(t *testing.T) {
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
			shards := make([]*bundleKmerTable, ranks)
			for s := range shards {
				shards[s] = src.table(ranks, s)
			}
			sh := bundleShards(src, ranks, nil, nil)
			var queries []kmer.Kmer
			var bodies [][]byte
			seen := map[kmer.Kmer]bool{}
			for _, r := range reads {
				eachKmer(r, k, false, func(m kmer.Kmer) {
					c, _ := m.Canonical(k)
					if seen[c] {
						return
					}
					seen[c] = true
					queries = append(queries, c)
					bodies = append(bodies, sh.build(kmer.OwnerRank(c, ranks)).answer(c, nil))
				})
			}
			cache, err := buildR2TCache(k, full.ncomp, queries, batchOf(queries, bodies))
			if err != nil {
				t.Fatalf("k=%d ranks=%d: %v", k, ranks, err)
			}
			both, pal := 0, 0
			for _, c := range queries {
				for _, m := range []kmer.Kmer{c, c.ReverseComplement(k)} {
					gotF, gotR := cache.lookup2(m)
					wantF, wantR := full.lookup2(m)
					if gotF != wantF || gotR != wantR {
						t.Fatalf("k=%d ranks=%d: cache lookup2(%v) = (%d,%d), replicated (%d,%d)",
							k, ranks, m, gotF, gotR, wantF, wantR)
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
				_, err := buildR2TCache(k, full.ncomp, append(queries, c), batchOf(append(queries, c), append(bodies, bodies[i])))
				if err == nil || !strings.Contains(err.Error(), "duplicate query") {
					t.Fatalf("k=%d ranks=%d: repeated query %v: err = %v, want a duplicate-query error", k, ranks, c, err)
				}
				if rc := c.ReverseComplement(k); rc != c {
					q := append(append([]kmer.Kmer(nil), queries[:i]...), rc)
					_, err := buildR2TCache(k, full.ncomp, q, batchOf(q, append(bodies[:i:i], bodies[i])))
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
