package chrysalis

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// TestBuildR2TCacheFoldsStrands feeds buildR2TCache the shard answers
// for every k-mer of a set of reads on both strands, the way a sharded
// rank queries them. A query and its reverse complement both appear and
// often both hit — one contig is the reverse complement of part of
// another in a second component — so the two answers must fold into
// the two cells of one canonical id. Every lookup2 of the partial table
// must equal the replicated table's, and a repeated query must still be
// an error. Even k adds palindromes, whose two cells are one query's.
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
		full := buildBundleKmerTable(contigs, comps, k)
		var queries []kmer.Kmer
		var bodies [][]byte
		seen := map[kmer.Kmer]bool{}
		for _, r := range reads {
			eachKmer(r, k, true, func(m kmer.Kmer) {
				if seen[m] {
					return
				}
				seen[m] = true
				fwd, _ := full.lookup2(m)
				queries = append(queries, m)
				bodies = append(bodies, binary.AppendUvarint(nil, uint64(fwd+1)))
			})
		}
		cache, err := buildR2TCache(k, full.ncomp, queries, bodies)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		both, pal := 0, 0
		for _, m := range queries {
			gotF, gotR := cache.lookup2(m)
			wantF, wantR := full.lookup2(m)
			if gotF != wantF || gotR != wantR {
				t.Fatalf("k=%d: cache lookup2(%v) = (%d,%d), replicated (%d,%d)", k, m, gotF, gotR, wantF, wantR)
			}
			if wantF >= 0 && wantR >= 0 {
				both++
			}
			if m == m.ReverseComplement(k) && wantF >= 0 {
				pal++
			}
		}
		if both == 0 || (k%2 == 0 && pal == 0) {
			t.Fatalf("k=%d: %d queries hit on both strands, %d palindromes hit: the fold went untested", k, both, pal)
		}
		for i, m := range queries {
			if f, _ := full.lookup2(m); f < 0 {
				continue
			}
			_, err := buildR2TCache(k, full.ncomp, append(queries, m), append(bodies, bodies[i]))
			if err == nil || !strings.Contains(err.Error(), "duplicate query") {
				t.Fatalf("k=%d: repeated query %v: err = %v, want a duplicate-query error", k, m, err)
			}
			break
		}
	}
}
