package butterfly

import (
	"testing"

	"gotrinity/internal/chrysalis"
	"gotrinity/internal/inchworm"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/kmer"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

// componentGraphs runs the stages before Butterfly on p's reads, one
// rank and default options — counting, Inchworm, GraphFromFasta,
// ReadsToTranscripts, FastaToDeBruijn — and returns the quantified
// component graphs Butterfly receives.
func componentGraphs(tb testing.TB, p rnaseq.Profile) []*chrysalis.ComponentGraph {
	tb.Helper()
	const k = 25
	reads := rnaseq.Generate(p).Reads
	table, err := jellyfish.Count(reads, jellyfish.Options{K: k})
	if err != nil {
		tb.Fatal(err)
	}
	contigs, _, err := inchworm.Run(table.Kept(1), inchworm.Options{K: k})
	if err != nil {
		tb.Fatal(err)
	}
	gff, err := chrysalis.GraphFromFasta(contigs, table, 1, chrysalis.GFFOptions{K: k})
	if err != nil {
		tb.Fatal(err)
	}
	r2t, err := chrysalis.ReadsToTranscripts(reads, contigs, gff.Components, 1, chrysalis.R2TOptions{K: k})
	if err != nil {
		tb.Fatal(err)
	}
	graphs, _, _, err := chrysalis.FastaToDeBruijnParallel(contigs, gff.Components, k, reads, r2t.Assignments, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return graphs
}

// deepProfile and wideProfile are the benchmark's `deep` and `wide`
// transcriptomes: many reads over few isoforms, and few reads over
// many isoforms with a tail of long genes.
func deepProfile() rnaseq.Profile {
	p := rnaseq.Sugarbeet(1)
	p.Genes, p.LongGeneFrac, p.Reads = 75, 0, 80000
	return p
}

func wideProfile() rnaseq.Profile {
	p := rnaseq.Sugarbeet(1)
	p.Genes, p.MaxIsoforms, p.LongGeneFrac, p.ExpressionSigma, p.Reads = 250, 6, 0.05, 0.8, 20000
	return p
}

// deepShapedPairs is the pair-support input of the benchmark's `deep`
// workload in miniature: many read pairs over few genes, one component
// per gene holding the gene's isoforms plus near-copies of them (as
// Butterfly's error paths are), each read assigned to the gene its
// first k-mer comes from.
func deepShapedPairs() ([]Transcript, []*chrysalis.ComponentGraph, []seq.Record) {
	p := deepProfile()
	p.Reads = 40000
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

// BenchmarkReconstruct measures Butterfly's path enumeration on the
// component graphs of the benchmark's `deep` and `wide` shapes, on one
// worker, beside the copy-per-step oracle walk it replaced.
func BenchmarkReconstruct(b *testing.B) {
	for _, shape := range []struct {
		name    string
		profile func() rnaseq.Profile
	}{{"deep", deepProfile}, {"wide", wideProfile}} {
		graphs := componentGraphs(b, shape.profile())
		opt := Options{Seed: 1}
		b.Run(shape.name+"/walker", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ts, _ := ReconstructParallel(graphs, opt, 1)
				benchSink += len(ts)
			}
		})
		b.Run(shape.name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += len(oracleReconstruct(graphs, opt))
			}
		})
	}
}
