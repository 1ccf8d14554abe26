package jellyfish

import (
	"bytes"
	"testing"

	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

// deepShaped is the read set of the benchmark's `deep` workload at half
// its depth: many reads over few isoforms, so most k-mers are repeats.
func deepShaped() []seq.Record {
	p := rnaseq.Sugarbeet(1)
	p.Genes, p.LongGeneFrac, p.Reads = 75, 0, 40000
	return rnaseq.Generate(p).Reads
}

var benchSink int

// BenchmarkCountPacked measures the production counter (packed reads,
// the default Threads × Shards every pipeline run uses) beside the
// serial map oracle, on deep-shaped reads at k=25.
func BenchmarkCountPacked(b *testing.B) {
	reads := deepShaped()
	preads := seq.PackRecords(reads)
	kmers := 0
	for i := range reads {
		kmers += len(reads[i].Seq) - 25 + 1
	}
	perKmer := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*kmers), "ns/kmer")
	}
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			table, err := CountPacked(preads, Options{K: 25})
			if err != nil {
				b.Fatal(err)
			}
			benchSink += table.Distinct()
		}
		perKmer(b)
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += len(mapCount(reads, Options{K: 25}).m)
		}
		perKmer(b)
	})
}

// BenchmarkLoadDump reads back the dump of deep-shaped reads' k=25
// counts, as the inchworm stage of a file-exchanging run does.
func BenchmarkLoadDump(b *testing.B) {
	table, err := CountPacked(seq.PackRecords(deepShaped()), Options{K: 25})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Dump(&buf, table, 1); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, err := load(bytes.NewReader(buf.Bytes()), 25, buf.Len()/28)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(entries)
	}
}
