// Command butterfly reconstructs transcripts from component de Bruijn
// graphs — the final Trinity stage. It runs the pipeline's
// fastatodebruijn and butterfly stages (core.RunStage) on their own:
// each component's graph is rebuilt from the contigs (FastaToDebruijn),
// quantified with the assigned reads (QuantifyGraph), and its supported
// paths enumerated.
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
	"gotrinity/internal/core"
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
	seed := flag.Int64("seed", 0, "run seed (breaks path-enumeration ties)")
	workers := flag.Int("workers", 0, "component-parallel workers (0 = all cores)")
	flag.Parse()

	if *contigsPath == "" || *compsPath == "" || *readsPath == "" || *assignPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	res, err := core.RunStage("butterfly",
		core.FileArtifacts{
			Reads: *readsPath, Contigs: *contigsPath, Components: *compsPath,
			Assignments: *assignPath, Transcripts: *out,
		},
		core.Config{
			K:           *k,
			Seed:        *seed,
			TailWorkers: *workers,
			Butterfly:   butterfly.Options{MaxPathsPerComponent: *maxPaths},
		})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%d components -> %d transcripts -> %s", len(res.Graphs), len(res.Transcripts), *out)
}
