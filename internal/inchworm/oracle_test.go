package inchworm

// The map implementation Inchworm ran on until the k-mer spine moved
// to kmer.FlatSet ids and dense arrays (two Go maps keyed by k-mer,
// seeds ordered by sort.Slice), kept as the oracle the flat code is
// compared against.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/kmer"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

type mapAssembler struct {
	opt    Options
	counts map[kmer.Kmer]uint32
	used   map[kmer.Kmer]bool
	seeds  []jellyfish.Entry
	stats  Stats
}

func mapRun(entries []jellyfish.Entry, opt Options) ([]seq.Record, Stats) {
	opt.normalize()
	a := &mapAssembler{opt: opt, counts: map[kmer.Kmer]uint32{}, used: map[kmer.Kmer]bool{}}
	a.stats.KmersIn = len(entries)
	for _, e := range entries {
		if int(e.Count) >= opt.MinKmerCount {
			a.counts[e.Kmer] = e.Count
			a.seeds = append(a.seeds, e)
		}
	}
	a.stats.KmersKept = len(a.seeds)
	sort.Slice(a.seeds, func(i, j int) bool {
		if a.seeds[i].Count != a.seeds[j].Count {
			return a.seeds[i].Count > a.seeds[j].Count
		}
		return a.seeds[i].Kmer < a.seeds[j].Kmer
	})
	var contigs []seq.Record
	for _, s := range a.seeds {
		if a.used[s.Kmer] {
			continue
		}
		c := a.extend(s.Kmer)
		if len(c) >= a.opt.MinContigLen {
			contigs = append(contigs, seq.Record{
				ID:   fmt.Sprintf("contig%d", len(contigs)),
				Desc: fmt.Sprintf("len=%d", len(c)),
				Seq:  c,
			})
			a.stats.Contigs++
			a.stats.BasesOut += len(c)
		}
	}
	return contigs, a.stats
}

func (a *mapAssembler) extend(seedKmer kmer.Kmer) []byte {
	k := a.opt.K
	a.used[seedKmer] = true
	var right []byte
	cur := seedKmer
	for {
		next, base, ok := a.bestExtension(cur, true)
		if !ok {
			break
		}
		right = append(right, base)
		a.used[next] = true
		cur = next
	}
	var left []byte // collected in reverse order
	cur = seedKmer
	for {
		next, base, ok := a.bestExtension(cur, false)
		if !ok {
			break
		}
		left = append(left, base)
		a.used[next] = true
		cur = next
	}
	contig := make([]byte, 0, len(left)+k+len(right))
	for i := len(left) - 1; i >= 0; i-- {
		contig = append(contig, left[i])
	}
	contig = append(contig, seedKmer.Decode(k)...)
	contig = append(contig, right...)
	return contig
}

func (a *mapAssembler) bestExtension(cur kmer.Kmer, fwd bool) (kmer.Kmer, byte, bool) {
	k := a.opt.K
	var bestK kmer.Kmer
	var bestBase byte
	var bestCount uint32
	found := false
	for code := uint64(0); code < 4; code++ {
		var cand kmer.Kmer
		if fwd {
			cand = cur.AppendBase(code, k)
		} else {
			cand = cur.PrependBase(code, k)
		}
		a.stats.ExtensionOps++
		c, ok := a.counts[cand]
		if !ok || a.used[cand] {
			continue
		}
		if !found || c > bestCount || (c == bestCount && cand < bestK) {
			bestK, bestBase, bestCount, found = cand, seq.IndexBase(code), c, true
		}
	}
	return bestK, bestBase, found
}

// spineReads is a generated read set plus the shapes the k-mer kernels
// special-case: N runs, reads shorter than k and a poly-A read.
func spineReads(p rnaseq.Profile) []seq.Record {
	reads := rnaseq.Generate(p).Reads
	rng := rand.New(rand.NewSource(p.Seed))
	for i := range reads {
		if i%7 == 0 {
			s := append([]byte(nil), reads[i].Seq...)
			s[rng.Intn(len(s))] = 'N'
			reads[i].Seq = s
		}
	}
	return append(reads,
		seq.Record{ID: "short", Seq: []byte("ACGT")},
		seq.Record{ID: "polyA", Seq: bytes.Repeat([]byte("A"), 80)},
		seq.Record{ID: "polyA2", Seq: bytes.Repeat([]byte("A"), 80)})
}

// TestRunMatchesMapOracle: contigs (IDs, descriptions, bases, order)
// and every Stats field must equal the map implementation's, whatever
// order the dictionary arrives in.
func TestRunMatchesMapOracle(t *testing.T) {
	small := rnaseq.Sugarbeet(4)
	small.Genes, small.Reads = 12, 1500
	for _, p := range []rnaseq.Profile{rnaseq.Tiny(2), small} {
		reads := spineReads(p)
		for _, k := range []int{1, 5, 25, 31} {
			byKmer := dictFromReads(t, reads, k)
			byAbundance := append([]jellyfish.Entry(nil), byKmer...)
			jellyfish.SortByAbundance(byAbundance) // the order a dump is loaded in
			for _, dict := range [][]jellyfish.Entry{byKmer, byAbundance} {
				for _, opt := range []Options{{K: k}, {K: k, MinKmerCount: 1, MinContigLen: 1}, {K: k, MinKmerCount: 3, Threads: 4}} {
					want, wantStats := mapRun(dict, opt)
					got, gotStats, err := Run(dict, opt)
					if err != nil {
						t.Fatal(err)
					}
					if gotStats != wantStats {
						t.Fatalf("k=%d %+v: stats %+v, map oracle %+v", k, opt, gotStats, wantStats)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("k=%d %+v: contigs differ from the map oracle's (%d vs %d)", k, opt, len(got), len(want))
					}
				}
			}
		}
	}
}

// A dictionary naming a k-mer twice is rejected with both counts; the
// map code seeded the k-mer twice and counted it twice in KmersKept.
func TestDuplicateDictionaryEntryRejected(t *testing.T) {
	m, _ := kmer.Encode([]byte("GGCAT"), 5)
	other, _ := kmer.Encode([]byte("GCATT"), 5)
	_, _, err := Run([]jellyfish.Entry{{Kmer: m, Count: 4}, {Kmer: other, Count: 6}, {Kmer: m, Count: 9}},
		Options{K: 5, MinKmerCount: 1})
	var dup *DuplicateKmerError
	if !errors.As(err, &dup) {
		t.Fatalf("err = %v, want *DuplicateKmerError", err)
	}
	if dup.Kmer != m || dup.Counts != [2]uint32{9, 4} {
		t.Errorf("duplicate error = %+v", dup)
	}
	if want := "inchworm: dictionary names k-mer GGCAT twice (counts 9 and 4)"; err.Error() != want {
		t.Errorf("error text %q, want %q", err, want)
	}
	// A repeat the error filter drops is not a repeat in the dictionary.
	if _, st, err := Run([]jellyfish.Entry{{Kmer: m, Count: 1}, {Kmer: m, Count: 5}}, Options{K: 5}); err != nil || st.KmersKept != 1 {
		t.Errorf("filtered repeat: kept %d, err %v", st.KmersKept, err)
	}
}

// bestExtension is four lookups and no allocation.
func TestBestExtensionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	d := rnaseq.Generate(rnaseq.Tiny(3))
	a, err := New(dictFromReads(t, d.Reads, 21), Options{K: 21})
	if err != nil {
		t.Fatal(err)
	}
	cur := a.seeds[0].Kmer
	if n := testing.AllocsPerRun(100, func() {
		if next, _, ok := a.bestExtension(cur, true); ok {
			cur = next
		}
	}); n != 0 {
		t.Errorf("bestExtension allocates %v times per call", n)
	}
}
