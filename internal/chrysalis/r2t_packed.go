package chrysalis

import (
	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// Packed ReadsToTranscripts kernels: the k-mer→bundle table built from
// packed contigs and the per-read assignment over packed reads. Both
// mirror their ASCII twins' probe order and unit accounting exactly,
// so assignments and metered profiles are byte-identical — only the
// resident read/contig bytes shrink 4×.

// buildBundleKmerTablePacked is buildBundleKmerTable over packed
// contigs: identical dense ids and min-merge owners because the packed
// k-mer stream equals the ASCII one.
func buildBundleKmerTablePacked(contigs []seq.Record, pcontigs []seq.Packed,
	comps []Component, k int) *bundleKmerTable {
	return buildR2TSource(contigs, pcontigs, comps, k, true).table(0, 0)
}

// assignReadPacked is assignRead over a packed read: both strands
// tallied with the packed rolling iterator, the reverse complement
// materialised word-wise into the scratch. Identical probe count,
// winner rule, and unit charges.
func assignReadPacked(read seq.Packed, t *bundleKmerTable, minMatches int, sc *assignScratch) (int32, int32, float64) {
	var units float64
	if len(sc.counts) < int(t.ncomp) {
		sc.counts = make([]int32, t.ncomp)
	}
	tally := func(p seq.Packed) {
		it := kmer.NewPackedIterator(p, t.k)
		for {
			m, _, ok := it.Next()
			if !ok {
				return
			}
			units++
			if comp, ok := t.lookup(m); ok {
				if sc.counts[comp] == 0 {
					sc.touched = append(sc.touched, comp)
				}
				sc.counts[comp]++
			}
		}
	}
	tally(read)
	read.ReverseComplementInto(&sc.rcp)
	tally(sc.rcp)
	best := int32(-1)
	var bestN int32
	for _, comp := range sc.touched {
		n := sc.counts[comp]
		if n > bestN || (n == bestN && best >= 0 && comp < best) {
			best, bestN = comp, n
		}
	}
	for _, comp := range sc.touched {
		sc.counts[comp] = 0
	}
	sc.touched = sc.touched[:0]
	if bestN < int32(minMatches) {
		return -1, 0, units
	}
	return best, bestN, units
}
