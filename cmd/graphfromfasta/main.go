// Command graphfromfasta clusters Inchworm contigs into components by
// welding read-supported shared subsequences — the first Chrysalis
// sub-step the paper parallelises. With --nprocs > 1 it runs the
// hybrid MPI+OpenMP implementation (§III-B).
//
// Usage:
//
//	graphfromfasta --contigs contigs.fa --reads reads.fa --out components.txt [--nprocs 16]
package main

import (
	"flag"
	"log"
	"os"

	"gotrinity/internal/chrysalis"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/seq"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("graphfromfasta: ")

	contigsPath := flag.String("contigs", "", "Inchworm contig FASTA")
	readsPath := flag.String("reads", "", "input reads FASTA (for weld support)")
	out := flag.String("out", "components.txt", "output component file")
	nprocs := flag.Int("nprocs", 1, "MPI ranks")
	threads := flag.Int("threads", 16, "OpenMP threads per rank")
	k := flag.Int("k", 25, "weld k-mer length")
	support := flag.Int("support", 2, "read occurrences required per weld window k-mer")
	maxWelds := flag.Int("max-welds", 100, "weld harvest cap per contig")
	seed := flag.Int64("seed", 0, "run seed")
	shardKmers := flag.Bool("shard-kmers", false, "partition the k-mer lookup state across ranks (byte-identical output)")
	flag.Parse()

	if *contigsPath == "" || *readsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	contigs, err := seq.ReadFastaFile(*contigsPath)
	if err != nil {
		log.Fatal(err)
	}
	reads, err := seq.ReadFastaFile(*readsPath)
	if err != nil {
		log.Fatal(err)
	}
	table, err := jellyfish.Count(reads, jellyfish.Options{K: *k})
	if err != nil {
		log.Fatal(err)
	}
	res, err := chrysalis.GraphFromFasta(contigs, table, *nprocs, chrysalis.GFFOptions{
		K:                 *k,
		MinWeldSupport:    *support,
		MaxWeldsPerContig: *maxWelds,
		ThreadsPerRank:    *threads,
		Seed:              *seed,
		ShardKmers:        *shardKmers,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := chrysalis.WriteComponentsFile(*out, res.Components); err != nil {
		log.Fatal(err)
	}
	log.Printf("%d contigs -> %d welds, %d pairs, %d components -> %s",
		len(contigs), len(res.Welds), res.NumPairs, len(res.Components), *out)
}
