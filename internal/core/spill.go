// Bowtie partition spill: under external-memory mode the tail writes
// each partition's alignments to the dsk-style temp layout as soon as
// the partition finishes, so only one partition's alignments per
// worker are resident at a time instead of all of them until the
// merge. The merge reads the files back in partition order, keeping
// output byte-identical to the resident path.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gotrinity/internal/bowtie"
)

// alignmentSpill is one spill directory (the caller creates and removes
// it, mirroring dsk's partition-file layout) and its budget meter. put and get are safe for concurrent partitions;
// stats is read once they have all returned.
type alignmentSpill struct {
	dir   string
	mu    sync.Mutex
	stats bowtie.SpillStats
}

func (sp *alignmentSpill) partPath(p int) string {
	return filepath.Join(sp.dir, fmt.Sprintf("part%04d.aln", p))
}

// put encodes and writes partition p's alignments, updating the spill
// meter; the caller drops its resident copy afterwards.
func (sp *alignmentSpill) put(p int, als []bowtie.Alignment) error {
	buf := bowtie.AppendAlignments(nil, als)
	if err := os.WriteFile(sp.partPath(p), buf, 0o644); err != nil {
		return fmt.Errorf("core: bowtie spill write: %w", err)
	}
	sp.mu.Lock()
	sp.stats.Accumulate(bowtie.SpillStats{Partitions: 1, SpillBytes: int64(len(buf)),
		PeakPartitionBytes: int64(len(buf)), PeakPartitionAlignments: len(als)})
	sp.mu.Unlock()
	return nil
}

// get reads partition p's alignments back for the merge.
func (sp *alignmentSpill) get(p int) ([]bowtie.Alignment, error) {
	buf, err := os.ReadFile(sp.partPath(p))
	if err != nil {
		return nil, fmt.Errorf("core: bowtie spill read: %w", err)
	}
	als, err := bowtie.DecodeAlignments(buf)
	if err != nil {
		return nil, fmt.Errorf("core: bowtie spill partition %d: %w", p, err)
	}
	return als, nil
}
