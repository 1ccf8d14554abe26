package experiments

import (
	"fmt"
	"io"

	"gotrinity/internal/bowtie"
	"gotrinity/internal/dsk"
	"gotrinity/internal/jellyfish"
)

// Memory-footprint study. The paper's future work (§VI) targets
// "reduction of the memory footprint of de novo transcriptome
// assembly", naming the Inchworm k-mer table and the per-node memory
// of the MPI Chrysalis, and §II-A points at DSK as a lower-memory
// Jellyfish alternative. This experiment measures the alternatives the
// repository implements.

// MemoryRow compares one structure's resident footprint.
type MemoryRow struct {
	Structure string
	Variant   string
	Bytes     int64   // measured on the scaled dataset
	PaperGB   float64 // projected to paper scale
}

// MemoryFootprints measures the footprints of both k-mer counters and
// of the aligner's seed index.
func MemoryFootprints(l *Lab) ([]MemoryRow, error) {
	p, err := l.Sugarbeet()
	if err != nil {
		return nil, err
	}
	scale := p.dataset.ScaleFactor()
	var rows []MemoryRow
	add := func(structure, variant string, bytes int64) {
		rows = append(rows, MemoryRow{structure, variant, bytes, float64(bytes) * scale / 1e9})
	}

	// K-mer counting: in-memory Jellyfish vs disk-partitioned DSK.
	jf, err := jellyfish.Count(p.dataset.Reads, jellyfish.Options{K: l.K})
	if err != nil {
		return nil, err
	}
	// ~16 bytes per resident entry (packed k-mer + count + bucket
	// overhead).
	add("kmer-counter", "jellyfish (in-memory)", int64(jf.Distinct())*16)
	_, st, err := dsk.Count(p.dataset.Reads, dsk.Options{K: l.K, Partitions: 16})
	if err != nil {
		return nil, err
	}
	// dsk counts dsk.Workers(16) partitions at once; the row is one
	// counting worker's share, the largest partition.
	add("kmer-counter", "dsk (16 disk partitions, per counting worker)", int64(st.PeakPartition)*16)

	// Aligner index: the seed hash table.
	hashIx, err := bowtie.NewIndex(p.contigs, bowtie.Options{SeedLen: 16})
	if err != nil {
		return nil, err
	}
	add("bowtie-index", "hash seeds", int64(hashIx.MemoryFootprint()))
	return rows, nil
}

// RenderMemory prints the footprint comparison.
func RenderMemory(w io.Writer, rows []MemoryRow) {
	fmt.Fprintf(w, "Memory footprints (paper future work, §VI)\n")
	fmt.Fprintf(w, "%-14s %-28s %14s %12s\n", "structure", "variant", "scaled bytes", "paper GB")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-28s %14d %12.1f\n", r.Structure, r.Variant, r.Bytes, r.PaperGB)
	}
}
