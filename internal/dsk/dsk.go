// Package dsk implements disk-partitioned k-mer counting in the style
// of DSK (Rizk, Lavenier, Chikhi — ref. [20] of the paper), which §II-A
// mentions as a lower-memory alternative to Jellyfish that "is not
// part of the Trinity pipeline yet". K-mers are hashed into disk
// partitions on a first streaming pass; each partition is then counted
// independently, so memory is bounded by the largest partitions instead
// of the full distinct-k-mer set. The output is identical to
// Jellyfish's.
//
// Both passes run on the omp worker pool (GOMAXPROCS workers). Pass 1
// streams blocks of reads, each worker filling one 32 KiB block per
// partition and appending a full block to the partition file with one
// write under that partition's lock. Pass 2 counts up to Workers
// partitions at once, each worker in one reused counter fed by 64 KiB
// reads of its partition file. So the counting peak is Workers(n) ×
// Stats.PeakPartition distinct k-mers, not one partition's. Counting
// commutes and the entries are sorted by k-mer at the end, so entries
// and Stats are the same for every GOMAXPROCS.
package dsk

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/kmer"
	"gotrinity/internal/omp"
	"gotrinity/internal/seq"
)

// Options configures a counting run.
type Options struct {
	K          int    // k-mer length (1..31)
	Partitions int    // disk partitions (default 8)
	TmpDir     string // partition file directory (default os.TempDir())
	Canonical  bool   // merge strands, as jellyfish.Options.Canonical
}

func (o *Options) normalize() error {
	if o.K <= 0 || o.K > kmer.MaxK {
		return fmt.Errorf("dsk: k=%d out of range 1..%d", o.K, kmer.MaxK)
	}
	if o.Partitions <= 0 {
		o.Partitions = 8
	}
	if o.TmpDir == "" {
		o.TmpDir = os.TempDir()
	}
	return nil
}

// Stats reports the memory/disk trade-off of a run.
type Stats struct {
	TotalKmers     int64 // k-mer occurrences streamed to disk
	DistinctKmers  int   // distinct k-mers across all partitions
	PeakPartition  int   // largest partition's distinct k-mers (peak memory)
	PartitionBytes int64 // total bytes written to partition files
	Partitions     int
}

// Workers returns how many partitions pass 2 counts at once for a run
// over the given number of partitions: the counting peak is this many
// partitions of at most Stats.PeakPartition distinct k-mers each.
func Workers(partitions int) int {
	return max(1, min(omp.DefaultThreads(), partitions))
}

const (
	writeBlock    = 32 << 10 // pass 1: bytes a worker buffers per partition
	readBlock     = 64 << 10 // pass 2: bytes a worker reads at a time
	readsPerClaim = 64       // pass 1: reads a worker claims at a time
)

// Count streams the reads' k-mers into partition files and counts each
// partition independently, returning entries sorted by k-mer value
// (the same order jellyfish.CountTable.Entries uses).
func Count(reads []seq.Record, opt Options) ([]jellyfish.Entry, Stats, error) {
	return countWith(opt, len(reads), func(i int, w *spiller) {
		it := kmer.NewIterator(reads[i].Seq, opt.K)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			w.add(m)
		}
	})
}

// CountPacked is Count over 2-bit packed reads: the same two-pass
// disk-partitioned counting, fed by the packed rolling iterator so no
// ASCII decode happens on the streaming pass. The packed iterator
// emits the exact k-mer stream of the ASCII one, so the entries and
// stats are identical to Count over the decoded records.
func CountPacked(reads []seq.PackedRecord, opt Options) ([]jellyfish.Entry, Stats, error) {
	return countWith(opt, len(reads), func(i int, w *spiller) {
		it := kmer.NewPackedIterator(reads[i].Seq, opt.K)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			w.add(m)
		}
	})
}

// createPartition creates one partition file; a variable so tests can
// make pass 1's writes fail.
var createPartition = os.Create

// partitionFiles are the open partition files, each with the lock its
// appends take.
type partitionFiles struct {
	files []*os.File
	mu    []sync.Mutex
	bytes []int64 // written to each file

	errOnce sync.Once
	err     error // the first write error
}

func (pf *partitionFiles) fail(err error) {
	pf.errOnce.Do(func() { pf.err = err })
}

// write appends one block to partition p.
func (pf *partitionFiles) write(p int, block []byte) {
	pf.mu[p].Lock()
	_, err := pf.files[p].Write(block)
	pf.bytes[p] += int64(len(block))
	pf.mu[p].Unlock()
	if err != nil {
		pf.fail(err)
	}
}

func (pf *partitionFiles) close() {
	for _, f := range pf.files {
		if f != nil {
			f.Close()
		}
	}
}

// spiller is one pass-1 worker's block per partition.
type spiller struct {
	pf        *partitionFiles
	k         int
	canonical bool
	blocks    [][]byte // per partition, len = bytes buffered
}

func (w *spiller) add(m kmer.Kmer) {
	if w.canonical {
		m, _ = m.Canonical(w.k)
	}
	p := kmer.OwnerRank(m, len(w.blocks))
	b := binary.LittleEndian.AppendUint64(w.blocks[p], uint64(m))
	if len(b) == writeBlock {
		w.pf.write(p, b)
		b = b[:0]
	}
	w.blocks[p] = b
}

// flush writes every partly filled block.
func (w *spiller) flush() {
	for p, b := range w.blocks {
		if len(b) > 0 {
			w.pf.write(p, b)
			w.blocks[p] = b[:0]
		}
	}
}

// countWith runs both passes; kmersOf feeds read i's k-mers to a
// worker.
func countWith(opt Options, n int, kmersOf func(i int, w *spiller)) ([]jellyfish.Entry, Stats, error) {
	var st Stats
	if err := opt.normalize(); err != nil {
		return nil, st, err
	}
	st.Partitions = opt.Partitions

	dir, err := os.MkdirTemp(opt.TmpDir, "dsk-")
	if err != nil {
		return nil, st, err
	}
	defer os.RemoveAll(dir)

	pf := &partitionFiles{
		files: make([]*os.File, opt.Partitions),
		mu:    make([]sync.Mutex, opt.Partitions),
		bytes: make([]int64, opt.Partitions),
	}
	defer pf.close()
	for p := range pf.files {
		if pf.files[p], err = createPartition(filepath.Join(dir, fmt.Sprintf("part%d.bin", p))); err != nil {
			return nil, st, err
		}
	}

	// Pass 1: stream k-mers to partition files.
	threads := omp.DefaultThreads()
	workers := make([]spiller, threads)
	for t := range workers {
		workers[t] = spiller{pf: pf, k: opt.K, canonical: opt.Canonical, blocks: make([][]byte, opt.Partitions)}
		for p := range workers[t].blocks {
			workers[t].blocks[p] = make([]byte, 0, writeBlock)
		}
	}
	omp.ParallelFor(n, threads, omp.Schedule{Kind: omp.Dynamic, Chunk: readsPerClaim},
		func(i, tid int) { kmersOf(i, &workers[tid]) })
	for t := range workers {
		workers[t].flush()
		workers[t].blocks = nil // pass 2 does not need them resident
	}
	if pf.err != nil {
		return nil, st, pf.err
	}
	for _, b := range pf.bytes {
		st.PartitionBytes += b
	}
	st.TotalKmers = st.PartitionBytes / 8

	// Pass 2: count the partitions concurrently, each worker in one
	// counter and one read block reused across its partitions.
	parts := make([][]jellyfish.Entry, opt.Partitions)
	errs := make([]error, opt.Partitions)
	nw := Workers(opt.Partitions)
	counters := make([]*kmer.Counter, nw)
	bufs := make([][]byte, nw)
	omp.ParallelFor(opt.Partitions, nw, omp.Schedule{Kind: omp.Dynamic}, func(p, tid int) {
		if counters[tid] == nil {
			counters[tid], bufs[tid] = kmer.NewCounter(0), make([]byte, readBlock)
		}
		parts[p], errs[p] = countPartition(pf.files[p], counters[tid], bufs[tid])
		if errs[p] != nil {
			errs[p] = fmt.Errorf("dsk: partition %d: %w", p, errs[p])
		}
	})
	for p := range parts {
		if errs[p] != nil {
			return nil, st, errs[p]
		}
		st.PeakPartition = max(st.PeakPartition, len(parts[p]))
		st.DistinctKmers += len(parts[p])
	}
	entries := slices.Concat(parts...)
	jellyfish.SortByKmer(entries)
	return entries, st, nil
}

// countPartition counts one partition file from its start in counts
// (emptied first), reading it buf-sized blocks at a time, and returns
// its entries. A file whose length is not a whole number of k-mers is
// io.ErrUnexpectedEOF.
func countPartition(f *os.File, counts *kmer.Counter, buf []byte) ([]jellyfish.Entry, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	counts.Reset()
	for {
		n, err := io.ReadFull(f, buf)
		if n%8 != 0 {
			return nil, io.ErrUnexpectedEOF
		}
		for off := 0; off < n; off += 8 {
			counts.Add(kmer.Kmer(binary.LittleEndian.Uint64(buf[off:])), 1)
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	entries := make([]jellyfish.Entry, 0, counts.Len())
	counts.ForEach(func(m kmer.Kmer, _ int32, c uint32) {
		entries = append(entries, jellyfish.Entry{Kmer: m, Count: c})
	})
	return entries, nil
}
