package dbg

import (
	"testing"

	"gotrinity/internal/inchworm"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

// wideShaped is the Inchworm contig set of the benchmark's `wide`
// workload: few reads over many isoforms, so the graph is wide and
// shallow — thousands of short chains, little shared sequence.
func wideShaped(b *testing.B) []seq.Record {
	p := rnaseq.Sugarbeet(1)
	p.Genes, p.MaxIsoforms, p.LongGeneFrac, p.ExpressionSigma, p.Reads = 250, 6, 0.05, 0.8, 20000
	table, err := jellyfish.Count(rnaseq.Generate(p).Reads, jellyfish.Options{K: 25})
	if err != nil {
		b.Fatal(err)
	}
	contigs, _, err := inchworm.Run(table.Entries(1), inchworm.Options{K: 25})
	if err != nil {
		b.Fatal(err)
	}
	return contigs
}

var benchSink int

// BenchmarkGraphBuildCompact is the benchmark's dbg probe — one graph
// over every contig, then Compact — on the flat graph and on the map
// oracle.
func BenchmarkGraphBuildCompact(b *testing.B) {
	contigs := wideShaped(b)
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, _ := New(25)
			for _, c := range contigs {
				g.AddSequence(c.Seq, 1)
			}
			benchSink += len(g.Compact().Unitigs)
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := newMapGraph(25)
			for _, c := range contigs {
				g.AddSequence(c.Seq, 1)
			}
			benchSink += len(g.Compact().Unitigs)
		}
	})
}
