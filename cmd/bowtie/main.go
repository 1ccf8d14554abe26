// Command bowtie aligns reads to contigs with the seed-and-extend
// aligner, writing a minimal SAM file — the role of Bowtie inside
// Chrysalis. It runs the pipeline's bowtie stage (core.RunStage) on its
// own: with --nprocs > 1 the contig set is PyFasta-split and the
// partitions aligned independently, then merged, as in §III-A.
//
// Usage:
//
//	bowtie --reads reads.fa --contigs contigs.fa --out out.sam [--nprocs 8]
package main

import (
	"flag"
	"log"
	"os"

	"gotrinity/internal/bowtie"
	"gotrinity/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bowtie: ")

	readsPath := flag.String("reads", "", "input reads FASTA")
	contigsPath := flag.String("contigs", "", "target contigs FASTA")
	out := flag.String("out", "out.sam", "output SAM file")
	nprocs := flag.Int("nprocs", 1, "contig partitions aligned independently")
	seedLen := flag.Int("seed", 16, "seed k-mer length")
	maxMM := flag.Int("max-mismatch", 0, "mismatch budget (0 = exact matches, the pipeline's setting; negative = 3)")
	threads := flag.Int("threads", 0, "alignment threads (0 = all cores)")
	flag.Parse()

	if *readsPath == "" || *contigsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	res, err := core.RunStage("bowtie",
		core.FileArtifacts{Reads: *readsPath, Contigs: *contigsPath, SAM: *out},
		core.Config{
			Ranks:  *nprocs,
			Bowtie: bowtie.Options{SeedLen: *seedLen, MaxMismatch: *maxMM, Threads: *threads},
		})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("aligned %d reads across %d partition(s) -> %s",
		len(res.Alignments), len(res.Tail.PartitionUnits), *out)
}
