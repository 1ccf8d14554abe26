// Command trinity runs the full assembly pipeline over a FASTA/FASTQ
// read file — the analog of Trinity.pl, extended (as in §III-C of the
// paper) with an --nprocs argument that runs the Chrysalis hot spots
// under the hybrid MPI+OpenMP implementation.
//
// Usage:
//
//	trinity --reads reads.fa --out transcripts.fa [--nprocs 16] [--threads 16] [--k 25]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"gotrinity/internal/chrysalis"
	"gotrinity/internal/cluster"
	"gotrinity/internal/core"
	"gotrinity/internal/seq"
	"gotrinity/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trinity: ")

	readsPath := flag.String("reads", "", "input reads (FASTA or FASTQ; .fq/.fastq selects FASTQ)")
	outPath := flag.String("out", "transcripts.fa", "output transcript FASTA")
	nprocs := flag.Int("nprocs", 1, "MPI ranks for the hybrid Chrysalis (1 = original OpenMP-only)")
	threads := flag.Int("threads", 16, "OpenMP threads per rank")
	k := flag.Int("k", 25, "k-mer length")
	seed := flag.Int64("seed", 0, "run seed (perturbs weld harvest order)")
	shardKmers := flag.Bool("shard-kmers", false, "partition Chrysalis k-mer lookup state across ranks (distributed hash table; byte-identical output)")
	asciiSeq := flag.Bool("ascii-seq", false, "keep sequences byte-per-base ASCII on the hot paths (default: 2-bit packed end-to-end; byte-identical output)")
	external := flag.Bool("external", false, "external-memory mode: disk-partitioned k-mer counting (DSK) + packed-resident sequences for larger-than-RAM datasets")
	externalBudget := flag.Int("external-budget-mb", 0, "advisory resident-memory budget for --external in MiB (0 = unbudgeted; reported, not enforced)")
	externalTmp := flag.String("external-tmp", "", "directory for --external partition files (default: system temp dir)")
	externalParts := flag.Int("external-partitions", 0, "disk partitions for --external counting (0 = default 8)")
	minPairs := flag.Int("min-pair-support", 0, "drop transcripts spanned by fewer mate pairs (0 = keep all, and count no pairs)")
	tailWorkers := flag.Int("tail-workers", 0, "pipeline-tail worker pool (0 = GOMAXPROCS)")
	showTrace := flag.Bool("trace", false, "print the per-stage Collectl-style trace")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run (chrome://tracing, Perfetto)")
	metricsOut := flag.String("metrics-out", "", "write Prometheus-style text metrics of the run")
	timelineOut := flag.String("timeline-out", "", "write the Fig. 2/11-style stage timeline regenerated from the trace")
	faultSpec := flag.String("fault-spec", "", "inject faults into the hybrid Chrysalis, e.g. \"kill:rank=1,call=5; slow:rank=2,call=0,delay=10ms\"")
	faultSeed := flag.Int64("fault-seed", 0, "seeded fault plan killing one rank at a pseudo-random point (ignored when --fault-spec is set)")
	recover := flag.Bool("recover", false, "enable chunk checkpointing/recovery even without injected faults")
	maxRetries := flag.Int("max-retries", 3, "recovery rounds per Chrysalis pooling phase")
	retryBackoff := flag.Duration("retry-backoff", 0, "wait before each recovery round (doubles per round)")
	rankTimeout := flag.Duration("rank-timeout", 0, "evict ranks stalling a collective longer than this (0 = never)")
	flag.Parse()

	if *readsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	reads, err := loadReads(*readsPath)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %d reads from %s", len(reads), *readsPath)

	// The recorder models one virtual Blue Wonder node per rank.
	var rec *trace.Recorder
	if *traceOut != "" || *metricsOut != "" || *timelineOut != "" {
		rec = trace.New(cluster.BlueWonder(*nprocs))
		rec.Meta(fmt.Sprintf("reads: %d from %s", len(reads), *readsPath))
		rec.Meta(fmt.Sprintf("nprocs: %d threads: %d k: %d seed: %d", *nprocs, *threads, *k, *seed))
	}

	res, err := core.Run(reads, core.Config{
		K:              *k,
		Ranks:          *nprocs,
		ThreadsPerRank: *threads,
		Seed:           *seed,
		ShardKmers:     *shardKmers,
		ASCIISeq:       *asciiSeq,
		External: core.ExternalConfig{
			Enabled:      *external,
			MemoryBudget: int64(*externalBudget) << 20,
			TmpDir:       *externalTmp,
			Partitions:   *externalParts,
		},
		MinPairSupport: *minPairs,
		TailWorkers:    *tailWorkers,
		FaultSpec:      *faultSpec,
		FaultSeed:      *faultSeed,
		Recover:        *recover,
		MaxRetries:     *maxRetries,
		RetryBackoff:   *retryBackoff,
		RankTimeout:    *rankTimeout,
		Trace:          rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("inchworm: %d contigs; chrysalis: %d components; butterfly: %d transcripts",
		len(res.Contigs), len(res.GFF.Components), len(res.Transcripts))
	if rep := res.External; rep != nil {
		log.Printf("external: %d partitions, peak partition %d of %d distinct k-mers; resident peak %s (in-memory working set %s)",
			rep.Counting.Partitions, rep.Counting.PeakPartition, rep.Counting.DistinctKmers,
			fmtBytes(rep.ResidentPeakBytes), fmtBytes(rep.InMemoryBytes))
		if rep.BudgetBytes > 0 {
			verdict := "within"
			if !rep.WithinBudget {
				verdict = "OVER"
			}
			log.Printf("external: budget %s — %s budget", fmtBytes(rep.BudgetBytes), verdict)
		}
	}
	if res.Faults != nil {
		logRecovery(res.Faults)
	}

	if err := seq.WriteFastaFile(*outPath, res.TranscriptRecords()); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *outPath)
	if *showTrace {
		if err := res.Trace.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if *traceOut != "" {
		writeExport(*traceOut, "trace", func(w io.Writer) error {
			return rec.WriteChrome(w, trace.ChromeOptions{IncludeReal: true})
		})
	}
	if *metricsOut != "" {
		writeExport(*metricsOut, "metrics", func(w io.Writer) error {
			return rec.WriteMetrics(w, trace.MetricsOptions{IncludeReal: true})
		})
	}
	if *timelineOut != "" {
		writeExport(*timelineOut, "timeline", rec.WriteTimeline)
	}
}

// writeExport writes one trace export to path ("-" = stdout).
func writeExport(path, what string, write func(io.Writer) error) {
	if path == "-" {
		if err := write(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s %s", what, path)
}

// logRecovery prints what the fault layer injected and recovered.
func logRecovery(fr *core.FaultReport) {
	for _, f := range fr.Injected {
		log.Printf("fault fired: %s", f)
	}
	for _, rep := range []*chrysalis.RecoveryReport{fr.GFF, fr.R2T} {
		if rep == nil || (rep.Rounds == 0 && len(rep.DeadRanks) == 0 && rep.DroppedContribs == 0) {
			continue
		}
		log.Printf("%s: recovered in %d round(s): dead ranks %v, %d chunk(s) reassigned (%.0f units recomputed), %d dropped contribution(s)",
			rep.Stage, rep.Rounds, rep.DeadRanks, len(rep.ReassignedChunks), rep.RecomputedUnits, rep.DroppedContribs)
	}
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func loadReads(path string) ([]seq.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	lower := strings.ToLower(path)
	if strings.HasSuffix(lower, ".fq") || strings.HasSuffix(lower, ".fastq") {
		return seq.NewFastqReader(f).ReadAll()
	}
	recs, err := seq.NewFastaReader(f).ReadAll()
	if err == io.EOF {
		return nil, fmt.Errorf("trinity: %s is empty", path)
	}
	return recs, err
}
