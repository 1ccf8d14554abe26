// Command graphfromfasta clusters Inchworm contigs into components by
// welding read-supported shared subsequences and joining the contig
// pairs the Bowtie alignments scaffold — the first Chrysalis sub-step
// the paper parallelises. It runs the pipeline's graphfromfasta stage
// (core.RunStage) on its own; with --nprocs > 1 that is the hybrid
// MPI+OpenMP implementation (§III-B).
//
// Usage:
//
//	graphfromfasta --contigs contigs.fa --kmers kmers.txt --sam out.sam \
//	    --out components.txt [--nprocs 16]
package main

import (
	"flag"
	"log"
	"os"

	"gotrinity/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("graphfromfasta: ")

	contigsPath := flag.String("contigs", "", "Inchworm contig FASTA")
	kmersPath := flag.String("kmers", "", "Jellyfish dump of the reads' k-mers (for weld support)")
	samPath := flag.String("sam", "", "Bowtie alignments of the reads to the contigs (for scaffold pairs)")
	out := flag.String("out", "components.txt", "output component file")
	nprocs := flag.Int("nprocs", 1, "MPI ranks")
	threads := flag.Int("threads", 16, "OpenMP threads per rank")
	k := flag.Int("k", 25, "weld k-mer length (that of the dump)")
	support := flag.Int("support", 2, "read occurrences required per weld window k-mer")
	maxWelds := flag.Int("max-welds", 100, "weld harvest cap per contig")
	seed := flag.Int64("seed", 0, "run seed")
	shardKmers := flag.Bool("shard-kmers", false, "partition the k-mer lookup state across ranks (byte-identical output)")
	flag.Parse()

	if *contigsPath == "" || *kmersPath == "" || *samPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	res, err := core.RunStage("graphfromfasta",
		core.FileArtifacts{Kmers: *kmersPath, Contigs: *contigsPath, SAM: *samPath, Components: *out},
		core.Config{
			K:              *k,
			Ranks:          *nprocs,
			ThreadsPerRank: *threads,
			Seed:           *seed,
			MinWeldSupport: *support,
			MaxWelds:       *maxWelds,
			ShardKmers:     *shardKmers,
		})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%d contigs -> %d welds, %d scaffold pairs, %d pairs, %d components -> %s",
		len(res.Contigs), len(res.GFF.Welds), len(res.Scaffolds), res.GFF.NumPairs, len(res.GFF.Components), *out)
}
