// Command bowtie aligns reads to contigs with the seed-and-extend
// aligner, writing a minimal SAM file — the role of Bowtie inside
// Chrysalis. With --nprocs > 1 the contig set is PyFasta-split and the
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
	"gotrinity/internal/pyfasta"
	"gotrinity/internal/seq"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bowtie: ")

	readsPath := flag.String("reads", "", "input reads FASTA")
	contigsPath := flag.String("contigs", "", "target contigs FASTA")
	out := flag.String("out", "out.sam", "output SAM file")
	nprocs := flag.Int("nprocs", 1, "contig partitions aligned independently")
	seedLen := flag.Int("seed", 16, "seed k-mer length")
	maxMM := flag.Int("max-mismatch", 3, "mismatch budget")
	threads := flag.Int("threads", 0, "alignment threads per partition (0 = all cores)")
	flag.Parse()

	if *readsPath == "" || *contigsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	reads, err := seq.ReadFastaFile(*readsPath)
	if err != nil {
		log.Fatal(err)
	}
	contigs, err := seq.ReadFastaFile(*contigsPath)
	if err != nil {
		log.Fatal(err)
	}
	opt := bowtie.Options{SeedLen: *seedLen, MaxMismatch: *maxMM, Threads: *threads}

	parts := [][]seq.Record{contigs}
	if *nprocs > 1 {
		parts, _, err = pyfasta.Split(contigs, *nprocs, pyfasta.EvenBases)
		if err != nil {
			log.Fatal(err)
		}
	}
	var nodeAls [][]bowtie.Alignment
	var total bowtie.Stats
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		ix, err := bowtie.NewIndex(part, opt)
		if err != nil {
			log.Fatal(err)
		}
		als, st := bowtie.NewAligner(ix).AlignAll(reads)
		nodeAls = append(nodeAls, als)
		total.Reads += st.Reads
		total.Aligned += st.Aligned
	}
	merged := bowtie.BestPerRead(bowtie.MergeSAM(nodeAls))

	refs := make([]bowtie.SAMHeaderEntry, len(contigs))
	for i, c := range contigs {
		refs[i] = bowtie.SAMHeaderEntry{Name: c.ID, Length: len(c.Seq)}
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := bowtie.WriteSAMRecords(f, refs, merged); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("aligned %d of %d reads across %d partition(s) -> %s",
		len(merged), len(reads), len(parts), *out)
}
