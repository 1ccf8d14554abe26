package butterfly

import (
	"testing"

	"gotrinity/internal/chrysalis"
	"gotrinity/internal/kmer"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

// deepShapedPairs is the pair-support input of the benchmark's `deep`
// workload in miniature: many read pairs over few genes, one component
// per gene holding the gene's isoforms plus near-copies of them (as
// Butterfly's error paths are), each read assigned to the gene its
// first k-mer comes from.
func deepShapedPairs() ([]Transcript, []*chrysalis.ComponentGraph, []seq.Record) {
	p := rnaseq.Sugarbeet(1)
	p.Genes, p.LongGeneFrac, p.Reads = 75, 0, 40000
	d := rnaseq.Generate(p)
	var ts []Transcript
	graphs := make([]*chrysalis.ComponentGraph, p.Genes)
	for g := range graphs {
		graphs[g] = &chrysalis.ComponentGraph{Component: chrysalis.Component{ID: g}}
	}
	geneOf := map[kmer.Kmer]int{}
	for _, ref := range d.Reference {
		for copies := 0; copies < 6; copies++ {
			s := append([]byte(nil), ref.Seq...)
			s[len(s)*copies/6] = 'A'
			ts = append(ts, Transcript{Component: ref.Gene, Seq: s})
		}
		it := kmer.NewIterator(ref.Seq, PairSupportK)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			geneOf[m] = ref.Gene
			geneOf[m.ReverseComplement(PairSupportK)] = ref.Gene
		}
	}
	for ri, r := range d.Reads {
		it := kmer.NewIterator(r.Seq, PairSupportK)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			if g, ok := geneOf[m]; ok {
				graphs[g].Reads = append(graphs[g].Reads, int32(ri))
				break
			}
		}
	}
	return ts, graphs, d.Reads
}

var benchSink int

// BenchmarkPairSupport measures pair support on one worker (the
// pipeline runs it on every core), beside the per-transcript map
// oracle, which is serial.
func BenchmarkPairSupport(b *testing.B) {
	ts, graphs, reads := deepShapedPairs()
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += PairSupportParallel(ts, graphs, reads, 1)[0]
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += mapPairSupport(ts, graphs, reads)[0]
		}
	})
}
