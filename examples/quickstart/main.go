// Quickstart: generate a small synthetic RNA-seq dataset, assemble it
// end to end with the default single-node pipeline, and check how many
// reference transcripts were recovered.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gotrinity/internal/sw"

	trinity "gotrinity"
)

func main() {
	log.SetFlags(0)

	// A tiny transcriptome: 12 genes with up to 2 isoforms each,
	// sequenced to assembly-grade depth with error-bearing 50 bp reads.
	profile := trinity.TinyProfile(42)
	profile.Reads = 4000
	dataset := trinity.GenerateDataset(profile)
	fmt.Printf("dataset: %d reads from %d reference isoforms\n",
		len(dataset.Reads), len(dataset.Reference))

	// Assemble. The zero-ish config runs the original OpenMP-only
	// pipeline on one node.
	result, err := trinity.Assemble(dataset.Reads, trinity.Config{K: 21, ThreadsPerRank: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline: %d contigs -> %d components -> %d transcripts\n",
		len(result.Contigs), len(result.GFF.Components), len(result.Transcripts))

	// How many reference isoforms were reconstructed at full length?
	recovered := 0
	for _, ref := range dataset.Reference {
		for _, tr := range result.Transcripts {
			full, ident := sw.FullLengthIdentity(ref.Seq, tr.Seq, sw.DefaultScoring(), 0.9)
			if full && ident >= 0.95 {
				recovered++
				break
			}
		}
	}
	fmt.Printf("recovered %d/%d reference isoforms at >=90%% length, >=95%% identity\n",
		recovered, len(dataset.Reference))

	// Stage trace, Collectl style.
	fmt.Println("\nmeasured stage trace:")
	if err := result.Trace.Render(logWriter{}); err != nil {
		log.Fatal(err)
	}
}

// logWriter adapts fmt printing to the trace renderer.
type logWriter struct{}

func (logWriter) Write(p []byte) (int, error) {
	fmt.Print(string(p))
	return len(p), nil
}
