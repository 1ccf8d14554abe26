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

// assignReadPacked is assignRead over a packed read, with the packed
// rolling iterator: identical probes, winner rule and unit charges.
func assignReadPacked(read seq.Packed, t *bundleKmerTable, minMatches int, sc *assignScratch) (int32, int32, float64) {
	if len(sc.counts) < int(t.ncomp) {
		sc.counts = make([]int32, t.ncomp)
	}
	var units float64
	it := kmer.NewPackedIterator(read, t.k)
	for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
		units += 2
		fwd, rev := t.lookup2(m)
		sc.bump(fwd)
		sc.bump(rev)
	}
	best, n := sc.winner(minMatches)
	return best, n, units
}
