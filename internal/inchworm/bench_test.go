package inchworm

import (
	"slices"
	"testing"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/rnaseq"
)

var benchSink int

// BenchmarkInchwormRun measures the whole stage — dictionary build,
// seed sort, greedy extension — on the k-mer dictionary of the
// benchmark's `wide` workload (few reads over many isoforms: the
// workload Inchworm carries), beside the map oracle.
func BenchmarkInchwormRun(b *testing.B) {
	p := rnaseq.Sugarbeet(1)
	p.Genes, p.MaxIsoforms, p.LongGeneFrac, p.ExpressionSigma, p.Reads = 250, 6, 0.05, 0.8, 20000
	table, err := jellyfish.Count(rnaseq.Generate(p).Reads, jellyfish.Options{K: 25})
	if err != nil {
		b.Fatal(err)
	}
	dict := table.Entries(1)
	bench := func(run func(entries []jellyfish.Entry) Stats) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var st Stats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				entries := slices.Clone(dict) // Run sorts its entries in place
				b.StartTimer()
				st = run(entries)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*st.ExtensionOps), "ns/probe")
		}
	}
	b.Run("flat", bench(func(entries []jellyfish.Entry) Stats {
		contigs, st, err := Run(entries, Options{K: 25})
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(contigs)
		return st
	}))
	b.Run("map", bench(func(entries []jellyfish.Entry) Stats {
		contigs, st := mapRun(entries, Options{K: 25})
		benchSink += len(contigs)
		return st
	}))
}
