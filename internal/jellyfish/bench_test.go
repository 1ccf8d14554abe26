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

// wideShaped is the data set of the benchmark's `wide` workload: few
// reads over many isoforms, most k-mers seen once or twice.
func wideShaped() *rnaseq.Dataset {
	p := rnaseq.Sugarbeet(1)
	p.Genes, p.MaxIsoforms, p.LongGeneFrac, p.ExpressionSigma, p.Reads = 250, 6, 0.05, 0.8, 20000
	return rnaseq.Generate(p)
}

var benchSink int

// BenchmarkCountPacked measures the production counter (packed reads,
// the default Threads × Shards every pipeline run uses) beside the
// serial map oracle at k=25, on deep-shaped reads (few distinct
// k-mers, most probes hit a slot already counted) and wide-shaped ones
// (a table of ~470 k distinct k-mers, most probes insert).
func BenchmarkCountPacked(b *testing.B) {
	for _, shape := range []struct {
		name  string
		reads []seq.Record
	}{{"deep", deepShaped()}, {"wide", wideShaped().Reads}} {
		reads := shape.reads
		preads := seq.PackRecords(reads)
		kmers := 0
		for i := range reads {
			kmers += max(0, len(reads[i].Seq)-25+1)
		}
		perKmer := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*kmers), "ns/kmer")
		}
		b.Run(shape.name+"/flat", func(b *testing.B) {
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
		b.Run(shape.name+"/map", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += len(mapCount(reads, Options{K: 25}).m)
			}
			perKmer(b)
		})
	}
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
