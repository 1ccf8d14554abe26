// Package dsk implements disk-partitioned k-mer counting in the style
// of DSK (Rizk, Lavenier, Chikhi — ref. [20] of the paper), which §II-A
// mentions as a lower-memory alternative to Jellyfish that "is not
// part of the Trinity pipeline yet". K-mers are hashed into disk
// partitions on a first streaming pass; each partition is then counted
// independently, so peak memory is bounded by the largest partition
// instead of the full distinct-k-mer set. The output is identical to
// Jellyfish's.
package dsk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/kmer"
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

// Count streams the reads' k-mers into partition files and counts each
// partition independently, returning entries sorted by k-mer value
// (the same order jellyfish.CountTable.Entries uses).
func Count(reads []seq.Record, opt Options) ([]jellyfish.Entry, Stats, error) {
	return countWith(opt, len(reads), func(i int) kmerIter {
		return kmer.NewIterator(reads[i].Seq, opt.K)
	})
}

// CountPacked is Count over 2-bit packed reads: the same two-pass
// disk-partitioned counting, fed by the packed rolling iterator so no
// ASCII decode happens on the streaming pass. The packed iterator
// emits the exact k-mer stream of the ASCII one, so the entries and
// stats are identical to Count over the decoded records.
func CountPacked(reads []seq.PackedRecord, opt Options) ([]jellyfish.Entry, Stats, error) {
	var it kmer.PackedIterator // one iterator, re-aimed read by read: countWith is serial
	return countWith(opt, len(reads), func(i int) kmerIter {
		it = kmer.NewPackedIterator(reads[i].Seq, opt.K)
		return &it
	})
}

// kmerIter is the common surface of the ASCII and packed rolling
// iterators.
type kmerIter interface {
	Next() (kmer.Kmer, int, bool)
}

// countWith runs both passes over the reads' k-mer streams. opt must
// be normalized by the caller's Options value semantics; it is
// normalized here once for both entry points.
func countWith(opt Options, n int, iterOf func(i int) kmerIter) ([]jellyfish.Entry, Stats, error) {
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

	// Pass 1: stream k-mers to partition files.
	files := make([]*os.File, opt.Partitions)
	writers := make([]*bufio.Writer, opt.Partitions)
	for p := range files {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("part%d.bin", p)))
		if err != nil {
			return nil, st, err
		}
		files[p] = f
		writers[p] = bufio.NewWriterSize(f, 1<<16)
	}
	var buf [8]byte
	for i := 0; i < n; i++ {
		it := iterOf(i)
		for {
			m, _, ok := it.Next()
			if !ok {
				break
			}
			if opt.Canonical {
				m, _ = m.Canonical(opt.K)
			}
			p := kmer.OwnerRank(m, opt.Partitions)
			binary.LittleEndian.PutUint64(buf[:], uint64(m))
			if _, err := writers[p].Write(buf[:]); err != nil {
				closeAll(files)
				return nil, st, err
			}
			st.TotalKmers++
			st.PartitionBytes += 8
		}
	}
	for p := range writers {
		if err := writers[p].Flush(); err != nil {
			closeAll(files)
			return nil, st, err
		}
	}

	// Pass 2: count each partition independently, in one flat counter
	// emptied between partitions.
	var entries []jellyfish.Entry
	counts := kmer.NewCounter(0)
	for p := range files {
		if _, err := files[p].Seek(0, io.SeekStart); err != nil {
			closeAll(files)
			return nil, st, err
		}
		counts.Reset()
		br := bufio.NewReaderSize(files[p], 1<<16)
		for {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				if err == io.EOF {
					break
				}
				closeAll(files)
				return nil, st, fmt.Errorf("dsk: partition %d: %w", p, err)
			}
			counts.Add(kmer.Kmer(binary.LittleEndian.Uint64(buf[:])), 1)
		}
		st.PeakPartition = max(st.PeakPartition, counts.Len())
		st.DistinctKmers += counts.Len()
		entries = slices.Grow(entries, counts.Len())
		counts.ForEach(func(m kmer.Kmer, c uint32) {
			entries = append(entries, jellyfish.Entry{Kmer: m, Count: c})
		})
		files[p].Close()
		files[p] = nil
	}
	jellyfish.SortByKmer(entries)
	return entries, st, nil
}

func closeAll(files []*os.File) {
	for _, f := range files {
		if f != nil {
			f.Close()
		}
	}
}
