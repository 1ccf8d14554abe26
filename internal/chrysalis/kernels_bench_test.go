package chrysalis

import (
	"math/rand"
	"runtime"
	"testing"

	"gotrinity/internal/seq"
)

// Kernel benchmarks for the zero-allocation rewrite, each paired with
// its map-based reference so the speedup is measured in one run.
// `make bench-kernels` snapshots these (plus jellyfish's
// BenchmarkCountTableGet) into BENCH_kernels.json; the acceptance bar
// is ≥2x on weld harvest. The ≥5x bar on the lock-free CountTable.Get
// was the flat copy Freeze used to make; the table is now read in
// place, one more dependent load per probe, and that bar is retired
// (BenchmarkCountTableGet's sharded and frozen rows still track the
// ratio).

func benchScenario(b *testing.B) *kernelScenario {
	b.Helper()
	return buildKernelScenario(b, 42, 60)
}

func BenchmarkHarvestWelds(b *testing.B) {
	sc := benchScenario(b)
	opt := GFFOptions{K: sc.k, MinWeldSupport: 2, MaxWeldsPerContig: 100}
	b.Run("map-ref", func(b *testing.B) {
		ix := buildRefContigKmerIndex(sc.contigs, sc.k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ci := i % len(sc.contigs)
			refHarvestWelds(sc.contigs[ci], ci, ix, sc.table, opt, i)
		}
	})
	b.Run("flat", func(b *testing.B) {
		ix := buildContigKmerIndex(sc.contigs, sc.k)
		scr := new(weldScratch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ci := i % len(sc.contigs)
			harvestWelds(sc.contigs[ci], ci, sc.contigs, ix, sc.frozen, opt, i, scr)
		}
	})
}

func BenchmarkScanContigForWelds(b *testing.B) {
	sc := benchScenario(b)
	welds := pooledWelds(b, sc)
	if len(welds) == 0 {
		b.Fatal("bench scenario produced no welds")
	}
	b.Run("map-ref", func(b *testing.B) {
		ix := buildRefWeldIndex(welds, sc.k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ci := i % len(sc.contigs)
			refScanContigForWelds(sc.contigs[ci], ci, ix)
		}
	})
	b.Run("flat", func(b *testing.B) {
		ix := buildWeldIndex(welds, sc.k)
		scr := new(weldScratch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ci := i % len(sc.contigs)
			scanContigForWelds(sc.contigs[ci], ci, ix, scr)
		}
	})
}

func BenchmarkBuildContigKmerIndex(b *testing.B) {
	sc := benchScenario(b)
	b.Run("map-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildRefContigKmerIndex(sc.contigs, sc.k)
		}
	})
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildContigKmerIndex(sc.contigs, sc.k)
		}
	})
	// The pipeline's default path: the same table from packed contigs.
	b.Run("packed", func(b *testing.B) {
		pcontigs := make([]seq.Packed, len(sc.contigs))
		for i, c := range sc.contigs {
			pcontigs[i] = seq.Pack(c)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buildPackedContigIndex(pcontigs, sc.k)
		}
	})
}

func BenchmarkBuildWeldIndex(b *testing.B) {
	sc := benchScenario(b)
	welds := pooledWelds(b, sc)
	b.Run("map-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildRefWeldIndex(welds, sc.k)
		}
	})
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildWeldIndex(welds, sc.k)
		}
	})
	b.Run("packed", func(b *testing.B) {
		pwelds := make([]seq.Packed, len(welds))
		for i, w := range welds {
			pwelds[i] = seq.Pack([]byte(w))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buildPackedWeldIndex(pwelds, sc.k)
		}
	})
}

func BenchmarkAssignRead(b *testing.B) {
	sc := benchScenario(b)
	comps := make([]Component, 4)
	for i := range comps {
		comps[i].ID = i
	}
	for ci := range sc.records {
		comps[ci%4].Contigs = append(comps[ci%4].Contigs, ci)
	}
	b.Run("map-ref", func(b *testing.B) {
		t := buildRefBundleKmerTable(sc.records, comps, sc.k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refAssignRead(sc.reads[i%len(sc.reads)].Seq, t, 1)
		}
	})
	b.Run("flat", func(b *testing.B) {
		t := buildBundleKmerTable(sc.records, comps, sc.k)
		scr := new(assignScratch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			assignRead(sc.reads[i%len(sc.reads)].Seq, t, 1, scr)
		}
	})
	// The kernel the pipeline runs: packed reads against the table
	// built from packed contigs.
	b.Run("packed", func(b *testing.B) {
		pcontigs := make([]seq.Packed, len(sc.records))
		for i := range sc.records {
			pcontigs[i] = seq.Pack(sc.records[i].Seq)
		}
		t := buildBundleKmerTablePacked(sc.records, pcontigs, comps, sc.k)
		preads := seq.PackRecords(sc.reads)
		scr := new(assignScratch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			assignReadPacked(preads[i%len(preads)].Seq, t, 1, scr)
		}
	})
}

var benchSink int

// deepShapedR2T builds the input shape of the benchmark's `deep`
// workload at ReadsToTranscripts: 100 transcripts of 600 bases, each a
// component together with the short one-error near-copies Inchworm
// leaves over the highly expressed ones (1 500 contigs in all), and
// 80 000 76-base reads at 0.5 % error on both strands, drawn with the
// same expression skew.
func deepShapedR2T() (reads, contigs []seq.Record, comps []Component) {
	rng := rand.New(rand.NewSource(15))
	mutate := func(s []byte, perBase int) {
		for j := range s {
			if rng.Intn(perBase) == 0 {
				s[j] = "ACGT"[rng.Intn(4)]
			}
		}
	}
	txs := make([][]byte, 100)
	comps = make([]Component, len(txs))
	for t := range txs {
		txs[t] = make([]byte, 600)
		mutate(txs[t], 1)
		comps[t] = Component{ID: t, Contigs: []int{len(contigs)}}
		contigs = append(contigs, seq.Record{ID: "c", Seq: txs[t]})
	}
	expressed := func() int { return int(rng.ExpFloat64()*6) % len(txs) }
	for len(contigs) < 1500 {
		t := expressed()
		n := 40 + rng.Intn(160)
		start := rng.Intn(len(txs[t]) - n)
		s := append([]byte(nil), txs[t][start:start+n]...)
		s[rng.Intn(n)] = "ACGT"[rng.Intn(4)]
		comps[t].Contigs = append(comps[t].Contigs, len(contigs))
		contigs = append(contigs, seq.Record{ID: "c", Seq: s})
	}
	for i := 0; i < 80000; i++ {
		tx := txs[expressed()]
		start := rng.Intn(len(tx) - 76)
		s := append([]byte(nil), tx[start:start+76]...)
		mutate(s, 200)
		if rng.Intn(2) == 0 {
			s = seq.ReverseComplement(s)
		}
		reads = append(reads, seq.Record{ID: "r", Seq: s})
	}
	return reads, contigs, comps
}

// BenchmarkR2TAssign runs ReadsToTranscripts as the pipeline does on
// deep-shaped input — one rank, packed reads, 1 000-read chunks — with
// one chunk worker and with GOMAXPROCS of them (a rank's workers are
// min(ThreadsPerRank, GOMAXPROCS/ranks)).
func BenchmarkR2TAssign(b *testing.B) {
	reads, contigs, comps := deepShapedR2T()
	preads := seq.PackRecords(reads)
	threads := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		threads = append(threads, n)
	}
	for _, th := range threads {
		name := "workers=1"
		if th > 1 {
			name = "workers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			opt := R2TOptions{K: 25, ThreadsPerRank: th, Packed: true, PackedReads: preads}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ReadsToTranscripts(reads, contigs, comps, 1, opt)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(res.Assignments)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reads)), "ns/read")
		})
	}
}

// BenchmarkQuantify runs FastaToDeBruijn + QuantifyGraph as the
// pipeline does on deep-shaped input: every component's graph built
// from its contigs and threaded with the reads ReadsToTranscripts
// assigned it, on one worker.
func BenchmarkQuantify(b *testing.B) {
	reads, contigs, comps := deepShapedR2T()
	r2t, err := ReadsToTranscripts(reads, contigs, comps, 1, R2TOptions{K: 25, Packed: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphs, _, _, err := FastaToDeBruijnParallel(contigs, comps, 25, reads, r2t.Assignments, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(graphs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(r2t.Assignments)), "ns/read")
}
