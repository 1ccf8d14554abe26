// Command readstotranscripts assigns every read to the Inchworm
// bundle sharing the most k-mers — the second Chrysalis sub-step the
// paper parallelises. It runs the pipeline's readstotranscripts stage
// (core.RunStage) on its own; with --nprocs > 1 every rank streams the
// whole read file and keeps its own chunks (§III-C).
//
// Usage:
//
//	readstotranscripts --reads reads.fa --contigs contigs.fa \
//	    --components components.txt --out assignments.txt [--nprocs 32]
package main

import (
	"flag"
	"log"
	"os"

	"gotrinity/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("readstotranscripts: ")

	readsPath := flag.String("reads", "", "input reads FASTA")
	contigsPath := flag.String("contigs", "", "Inchworm contig FASTA")
	compsPath := flag.String("components", "", "component file from graphfromfasta")
	out := flag.String("out", "assignments.txt", "output assignment file")
	nprocs := flag.Int("nprocs", 1, "MPI ranks")
	threads := flag.Int("threads", 16, "OpenMP threads per rank")
	k := flag.Int("k", 25, "k-mer length")
	maxMem := flag.Int("max-mem-reads", 1000, "reads uploaded into memory per chunk")
	shardKmers := flag.Bool("shard-kmers", false, "partition the k-mer→bundle table across ranks (byte-identical output)")
	flag.Parse()

	if *readsPath == "" || *contigsPath == "" || *compsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	res, err := core.RunStage("readstotranscripts",
		core.FileArtifacts{Reads: *readsPath, Contigs: *contigsPath, Components: *compsPath, Assignments: *out},
		core.Config{
			K:              *k,
			Ranks:          *nprocs,
			ThreadsPerRank: *threads,
			MaxMemReads:    *maxMem,
			ShardKmers:     *shardKmers,
		})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("assigned %d reads to the components of %d contigs -> %s",
		len(res.R2T.Assignments), len(res.Contigs), *out)
}
