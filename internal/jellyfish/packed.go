// Packed-input counting. CountPacked is Count over 2-bit packed reads:
// the same partitioned table and counting body, fed by
// kmer.NewPackedIterator so no ASCII decode happens on the hot path.
// Because the packed iterator emits the exact k-mer stream of the
// ASCII iterator, the resulting table is identical to Count over the
// decoded records.

package jellyfish

import (
	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// CountPacked counts k-mer occurrences across packed reads.
func CountPacked(recs []seq.PackedRecord, opt Options) (*CountTable, error) {
	return countWith(opt, len(recs), func(i int, emit func(kmer.Kmer)) {
		it := kmer.NewPackedIterator(recs[i].Seq, opt.K)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			emit(m)
		}
	})
}
