// External-memory assembly mode: the k-mer counting pass runs through
// dsk's disk-partitioned counter instead of the in-memory Jellyfish
// table, and the resident sequences stay 2-bit packed end-to-end
// (Chrysalis probes packed state, ReadsToTranscripts scans the packed
// reads via the PackedReads hand-off). Peak counting memory is bounded
// by the largest disk partition times the partitions counted at once
// (dsk.Workers) instead of the full distinct-k-mer set, so a dataset
// whose ASCII working set exceeds the configured budget still
// completes. Output is byte-identical to the in-memory
// path — only where the bytes live changes.
package core

import (
	"gotrinity/internal/bowtie"
	"gotrinity/internal/dsk"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/seq"
)

// ExternalConfig selects and tunes the external-memory mode. The zero
// value (Enabled=false) keeps the in-memory counting path.
type ExternalConfig struct {
	// Enabled switches k-mer counting to dsk's disk-partitioned pass
	// and keeps the pipeline's sequence state packed end-to-end.
	Enabled bool

	// MemoryBudget is the advisory resident-byte ceiling the run is
	// expected to fit (0 = unbudgeted). The run always completes; the
	// ExternalReport records whether the peak resident state stayed
	// under the budget and what the in-memory working set would have
	// been.
	MemoryBudget int64

	// TmpDir holds the partition files (default os.TempDir()).
	TmpDir string

	// Partitions is the disk partition count (default 8). More
	// partitions lower the counting peak at the cost of more files.
	Partitions int
}

// ExternalReport meters one external-memory run: what stayed resident,
// what went to disk, and what the in-memory path would have held.
type ExternalReport struct {
	// Counting is the dsk pass's memory/disk trade-off.
	Counting dsk.Stats

	// BudgetBytes echoes ExternalConfig.MemoryBudget.
	BudgetBytes int64

	// PackedSeqBytes is the resident packed read bytes (words + N-run
	// sidecars); ASCIISeqBytes is what the same reads occupy decoded.
	PackedSeqBytes int64
	ASCIISeqBytes  int64

	// CountingPeakBytes is the counting pass's peak resident bytes:
	// dsk counts dsk.Workers(partitions) partitions at once, so it is
	// that many largest partitions × bytes per table entry.
	// InMemoryCountBytes is the full distinct-k-mer table the in-memory
	// path holds.
	CountingPeakBytes  int64
	InMemoryCountBytes int64

	// ResidentPeakBytes = PackedSeqBytes + CountingPeakBytes — the
	// external run's peak. InMemoryBytes = ASCIISeqBytes +
	// InMemoryCountBytes — the working set the external mode avoids.
	ResidentPeakBytes int64
	InMemoryBytes     int64

	// WithinBudget reports ResidentPeakBytes <= BudgetBytes (true when
	// unbudgeted).
	WithinBudget bool

	// BowtieSpill meters the Bowtie partition spill when the tail wrote
	// per-partition alignments to the temp layout instead of holding
	// every partition resident until the merge (nil when the stage did
	// not spill — e.g. a single partition).
	BowtieSpill *bowtie.SpillStats
}

// addBowtieSpill folds the Bowtie stage's partition spill into the
// report: the spilled bytes join the avoided in-memory working set,
// and the counting peak competes with the largest resident partition
// for the run's true peak (the two passes never overlap in time).
func (rep *ExternalReport) addBowtieSpill(st bowtie.SpillStats) {
	sc := st
	rep.BowtieSpill = &sc
	rep.ResidentPeakBytes = rep.PackedSeqBytes + max(rep.CountingPeakBytes, st.PeakPartitionBytes)
	rep.InMemoryBytes = rep.ASCIISeqBytes + rep.InMemoryCountBytes + st.SpillBytes
	rep.WithinBudget = rep.BudgetBytes == 0 || rep.ResidentPeakBytes <= rep.BudgetBytes
}

// countEntryBytes approximates one resident count-table entry: an
// 8-byte k-mer plus a 4-byte count.
const countEntryBytes = 12

// externalCount runs the disk-partitioned counting pass and fills the
// report. preads drives the packed streaming pass when non-nil
// (reads' ASCII payloads are still consulted for the working-set
// accounting, never for k-mers).
func externalCount(reads []seq.Record, preads []seq.PackedRecord, cfg *Config) (*jellyfish.CountTable, *ExternalReport, error) {
	opt := dsk.Options{K: cfg.K, Partitions: cfg.External.Partitions, TmpDir: cfg.External.TmpDir}
	var entries []jellyfish.Entry
	var st dsk.Stats
	var err error
	if preads != nil {
		entries, st, err = dsk.CountPacked(preads, opt)
	} else {
		entries, st, err = dsk.Count(reads, opt)
	}
	if err != nil {
		return nil, nil, err
	}
	rep := &ExternalReport{
		Counting:           st,
		BudgetBytes:        cfg.External.MemoryBudget,
		CountingPeakBytes:  int64(dsk.Workers(st.Partitions)) * int64(st.PeakPartition) * countEntryBytes,
		InMemoryCountBytes: int64(st.DistinctKmers) * countEntryBytes,
	}
	for i := range reads {
		rep.ASCIISeqBytes += int64(len(reads[i].Seq))
	}
	for i := range preads {
		rep.PackedSeqBytes += int64(preads[i].Seq.MemBytes())
	}
	rep.ResidentPeakBytes = rep.PackedSeqBytes + rep.CountingPeakBytes
	rep.InMemoryBytes = rep.ASCIISeqBytes + rep.InMemoryCountBytes
	rep.WithinBudget = rep.BudgetBytes == 0 || rep.ResidentPeakBytes <= rep.BudgetBytes
	return jellyfish.FromEntries(cfg.K, entries), rep, nil
}
