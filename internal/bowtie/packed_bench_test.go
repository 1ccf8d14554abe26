package bowtie

import (
	"math/rand"
	"testing"

	"gotrinity/internal/seq"
)

// deepShaped builds the input shape of the benchmark's `deep` workload,
// where Inchworm over 46x reads at 0.5 % error leaves ~1.5k contigs: one
// per transcript plus short near-copies that carry one sequencing error
// each, piled on the highly expressed transcripts. 76 bp reads are drawn
// with the same skew and error rate on both strands, so a read's seeds
// reach the transcript contig and every near-copy over it (a dozen
// candidates verified per read), and with MaxMismatch 0 only error-free
// reads align.
func deepShaped(nReads int) (contigs, reads []seq.PackedRecord) {
	rng := rand.New(rand.NewSource(15))
	mutate := func(s []byte, perBase int) {
		for j := range s {
			if rng.Intn(perBase) == 0 {
				s[j] = "ACGT"[rng.Intn(4)]
			}
		}
	}
	add := func(s []byte) {
		contigs = append(contigs, seq.PackedRecord{ID: contigID(len(contigs)), Seq: seq.Pack(s)})
	}
	txs := make([][]byte, 100)
	for t := range txs {
		txs[t] = make([]byte, 600)
		mutate(txs[t], 1)
		add(txs[t])
	}
	expressed := func() []byte { return txs[int(rng.ExpFloat64()*6)%len(txs)] }
	for len(contigs) < 1500 {
		tx := expressed()
		n := 40 + rng.Intn(160)
		start := rng.Intn(len(tx) - n)
		s := append([]byte(nil), tx[start:start+n]...)
		s[rng.Intn(n)] = "ACGT"[rng.Intn(4)]
		add(s)
	}
	for i := 0; i < nReads; i++ {
		tx := expressed()
		start := rng.Intn(len(tx) - 76)
		s := append([]byte(nil), tx[start:start+76]...)
		mutate(s, 200)
		if rng.Intn(2) == 0 {
			s = seq.ReverseComplement(s)
		}
		reads = append(reads, seq.PackedRecord{ID: contigID(i) + "r", Seq: seq.Pack(s)})
	}
	return contigs, reads
}

var benchSink int

// BenchmarkPackedAlignAll measures the production aligner (packed, the
// zero-value MaxMismatch every pipeline run uses) on deep-shaped input.
func BenchmarkPackedAlignAll(b *testing.B) {
	contigs, reads := deepShaped(20000)
	ix, err := NewPackedIndex(contigs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	al := NewPackedAligner(ix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		als, _ := al.AlignAll(reads)
		benchSink += len(als)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reads)), "ns/read")
}

// BenchmarkPackedIndexBuild measures the seed-table build over the same
// contigs.
func BenchmarkPackedIndexBuild(b *testing.B) {
	contigs, _ := deepShaped(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := NewPackedIndex(contigs, Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchSink += ix.MemoryFootprint()
	}
}
