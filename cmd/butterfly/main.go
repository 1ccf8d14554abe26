// Command butterfly reconstructs transcripts from component de Bruijn
// graphs — the final Trinity stage. It rebuilds each component's graph
// from the contigs (FastaToDebruijn), quantifies it with the assigned
// reads (QuantifyGraph), and enumerates supported paths.
//
// Usage:
//
//	butterfly --contigs contigs.fa --components components.txt \
//	    --reads reads.fa --assignments assignments.txt --out transcripts.fa
package main

import (
	"flag"
	"log"
	"os"

	"gotrinity/internal/butterfly"
	"gotrinity/internal/chrysalis"
	"gotrinity/internal/omp"
	"gotrinity/internal/seq"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("butterfly: ")

	contigsPath := flag.String("contigs", "", "Inchworm contig FASTA")
	compsPath := flag.String("components", "", "component file")
	readsPath := flag.String("reads", "", "input reads FASTA")
	assignPath := flag.String("assignments", "", "assignment file from readstotranscripts")
	out := flag.String("out", "transcripts.fa", "output transcript FASTA")
	k := flag.Int("k", 25, "k-mer length")
	maxPaths := flag.Int("max-paths", 10, "transcripts per component")
	workers := flag.Int("workers", omp.DefaultThreads(), "component-parallel workers")
	flag.Parse()

	if *contigsPath == "" || *compsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	contigs, err := seq.ReadFastaFile(*contigsPath)
	if err != nil {
		log.Fatal(err)
	}
	comps, err := chrysalis.ReadComponentsFile(*compsPath)
	if err != nil {
		log.Fatal(err)
	}
	var reads []seq.Record
	var assigns []chrysalis.Assignment
	if *readsPath != "" && *assignPath != "" {
		if reads, err = seq.ReadFastaFile(*readsPath); err != nil {
			log.Fatal(err)
		}
		if assigns, err = chrysalis.ReadAssignmentsFile(*assignPath); err != nil {
			log.Fatal(err)
		}
	}
	// Build + quantify + reconstruct component-parallel (the pipeline
	// tail).
	graphs, _, _, err := chrysalis.FastaToDeBruijnParallel(contigs, comps, *k, reads, assigns, *workers)
	if err != nil {
		log.Fatal(err)
	}
	ts, _ := butterfly.ReconstructParallel(graphs, butterfly.Options{MaxPathsPerComponent: *maxPaths}, *workers)
	if err := seq.WriteFastaFile(*out, butterfly.Records(ts)); err != nil {
		log.Fatal(err)
	}
	log.Printf("%d components -> %d transcripts -> %s", len(comps), len(ts), *out)
}
