// Command jellyfish counts k-mers in a read file and dumps them in the
// text format Inchworm consumes — the role of `jellyfish count` +
// `jellyfish dump` in the Trinity workflow.
//
// Usage:
//
//	jellyfish --reads reads.fa --k 25 --out kmers.txt [--min 1] [--canonical]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"gotrinity/internal/dsk"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/seq"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jellyfish: ")

	readsPath := flag.String("reads", "", "input reads FASTA")
	k := flag.Int("k", 25, "k-mer length (1..31)")
	out := flag.String("out", "kmers.txt", "output dump file")
	min := flag.Int("min", 1, "minimum count to dump")
	canonical := flag.Bool("canonical", false, "count k-mer and reverse complement together")
	threads := flag.Int("threads", 0, "worker threads (0 = all cores)")
	counter := flag.String("counter", "jellyfish", "counting engine: jellyfish (in-memory) or dsk (disk-partitioned, low memory)")
	partitions := flag.Int("partitions", 8, "disk partitions for the dsk counter")
	flag.Parse()

	if *readsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	reads, err := seq.ReadFastaFile(*readsPath)
	if err != nil {
		log.Fatal(err)
	}
	var table *jellyfish.CountTable
	how := ""
	switch *counter {
	case "jellyfish":
		table, err = jellyfish.Count(reads, jellyfish.Options{
			K: *k, Canonical: *canonical, Threads: *threads,
		})
	case "dsk":
		var entries []jellyfish.Entry
		var st dsk.Stats
		entries, st, err = dsk.Count(reads, dsk.Options{
			K: *k, Canonical: *canonical, Partitions: *partitions,
		})
		table = jellyfish.FromEntries(*k, entries)
		how = fmt.Sprintf(" via %d disk partitions (%d counted at once, largest %d k-mers)",
			st.Partitions, dsk.Workers(st.Partitions), st.PeakPartition)
	default:
		log.Fatalf("unknown counter %q (use jellyfish or dsk)", *counter)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := jellyfish.DumpFile(*out, table, *min); err != nil {
		log.Fatal(err)
	}
	log.Printf("%d reads -> %d distinct k-mers (%d total)%s -> %s",
		len(reads), table.Distinct(), table.Total(), how, *out)
}
