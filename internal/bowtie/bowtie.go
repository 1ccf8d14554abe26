// Package bowtie is the read-to-contig aligner of the pipeline,
// standing in for the Bowtie short-read aligner that Chrysalis invokes
// to map input reads onto Inchworm contigs. It is a seed-and-extend
// aligner: contigs are indexed by seed k-mers, each read's seeds vote
// for (contig, diagonal) candidates, and candidates are verified by
// ungapped comparison with a mismatch budget. Both strands are tried,
// as Bowtie does.
//
// The paper parallelises Bowtie without source changes by splitting
// the *target* contig FASTA across nodes with PyFasta (§III-A); the
// distributed driver here partitions the index the same way, so every
// node aligns all reads against its own contig subset.
package bowtie

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"gotrinity/internal/kmer"
	"gotrinity/internal/omp"
	"gotrinity/internal/seq"
)

// Options configures index construction and alignment.
type Options struct {
	SeedLen    int // seed k-mer length (default 16)
	SeedStride int // distance between consecutive read seeds (default 8)
	// MaxMismatch is the mismatch budget for verification. The zero
	// value means exact matches only — what core.Config{}, cmd/trinity
	// and cmd/bowtie run with; a negative value selects 3. It also sets
	// how many pairwise-disjoint seeds the packed aligner probes:
	// MaxMismatch+1, by the pigeonhole principle.
	MaxMismatch int
	MinAlignLen int // shortest read the aligner will attempt (default SeedLen)
	Threads     int // alignment worker threads (default GOMAXPROCS)
}

func (o *Options) normalize() error {
	if o.SeedLen <= 0 {
		o.SeedLen = 16
	}
	if o.SeedLen > kmer.MaxK {
		return fmt.Errorf("bowtie: seed length %d exceeds %d", o.SeedLen, kmer.MaxK)
	}
	if o.SeedStride <= 0 {
		o.SeedStride = 8
	}
	if o.MaxMismatch < 0 {
		o.MaxMismatch = 3
	}
	if o.MinAlignLen <= 0 {
		o.MinAlignLen = o.SeedLen
	}
	if o.Threads <= 0 {
		o.Threads = omp.DefaultThreads()
	}
	return nil
}

// hit is one indexed seed occurrence.
type hit struct {
	contig int32
	pos    int32
}

// Index maps seed k-mers to their occurrences in the target contigs
// through a hash table.
type Index struct {
	opt     Options
	contigs []seq.Record
	seeds   map[kmer.Kmer][]hit
	// Bases is the total indexed bases, used by cost models.
	Bases int
}

// NewIndex builds a seed index over the given contigs.
func NewIndex(contigs []seq.Record, opt Options) (*Index, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	ix := &Index{opt: opt, contigs: contigs, seeds: make(map[kmer.Kmer][]hit)}
	for ci := range contigs {
		ix.Bases += len(contigs[ci].Seq)
		it := kmer.NewIterator(contigs[ci].Seq, opt.SeedLen)
		for {
			m, pos, ok := it.Next()
			if !ok {
				break
			}
			ix.seeds[m] = append(ix.seeds[m], hit{contig: int32(ci), pos: int32(pos)})
		}
	}
	return ix, nil
}

// MemoryFootprint estimates the index's resident bytes.
func (ix *Index) MemoryFootprint() int {
	n := 0
	for _, hits := range ix.seeds {
		n += 8 + 8*len(hits) // key + hit entries
	}
	return n
}

// Contigs returns the indexed target records.
func (ix *Index) Contigs() []seq.Record { return ix.contigs }

// Alignment is one reported read placement.
type Alignment struct {
	ReadID     string
	ReadLen    int
	Contig     int // index into the aligner's contig set
	ContigID   string
	Pos        int  // 0-based leftmost position on the contig
	Reverse    bool // read aligned as its reverse complement
	Mismatches int
}

// Stats meters the work an alignment pass performed.
type Stats struct {
	Reads         int64 // reads processed
	Aligned       int64 // reads with a reported alignment
	SeedProbes    int64 // seed-index lookups made (the packed aligner skips seeds that cannot change the result)
	BasesCompared int64 // verification comparisons made (work units)

	// MakespanSec and ThreadImbalance summarise the OpenMP section
	// (wall time of the busiest worker and busiest/least-busy ratio);
	// real-time measurements, so run-dependent.
	MakespanSec     float64
	ThreadImbalance float64
}

// Accumulate folds one partition's stats into an aggregate. The
// work-unit counters (reads, alignments, probes, base comparisons) are
// exact sums either way; the real-time summaries depend on how the
// partitions executed: concurrent partitions overlap in time, so the
// aggregate makespan is the slowest partition's (max), while serial
// partitions run back to back, so makespans add. Thread imbalance
// reports the worst partition in both modes.
func (s *Stats) Accumulate(part Stats, concurrent bool) {
	s.Reads += part.Reads
	s.Aligned += part.Aligned
	s.SeedProbes += part.SeedProbes
	s.BasesCompared += part.BasesCompared
	if concurrent {
		if part.MakespanSec > s.MakespanSec {
			s.MakespanSec = part.MakespanSec
		}
	} else {
		s.MakespanSec += part.MakespanSec
	}
	if part.ThreadImbalance > s.ThreadImbalance {
		s.ThreadImbalance = part.ThreadImbalance
	}
}

// Aligner runs reads against one index.
type Aligner struct {
	ix *Index
}

// NewAligner wraps an index.
func NewAligner(ix *Index) *Aligner { return &Aligner{ix: ix} }

// AlignRead aligns a single read, returning the best alignment found
// and whether one met the mismatch budget. The stats argument, if
// non-nil, is updated (not thread-safe; use one per worker).
func (a *Aligner) AlignRead(rec *seq.Record, st *Stats) (Alignment, bool) {
	if st != nil {
		st.Reads++
	}
	if len(rec.Seq) < a.ix.opt.MinAlignLen {
		return Alignment{}, false
	}
	best, ok := a.alignOneStrand(rec.Seq, false, st)
	rc := seq.ReverseComplement(rec.Seq)
	if alt, ok2 := a.alignOneStrand(rc, true, st); ok2 && (!ok || alt.Mismatches < best.Mismatches) {
		best, ok = alt, true
	}
	if !ok {
		return Alignment{}, false
	}
	best.ReadID = rec.ID
	best.ReadLen = len(rec.Seq)
	best.ContigID = a.ix.contigs[best.Contig].ID
	if st != nil {
		st.Aligned++
	}
	return best, true
}

type diagonal struct {
	contig int32
	offset int32 // contigPos - readPos
}

func (a *Aligner) alignOneStrand(read []byte, reverse bool, st *Stats) (Alignment, bool) {
	opt := a.ix.opt
	votes := make(map[diagonal]int)
	it := kmer.NewIterator(read, opt.SeedLen)
	nextAccept := 0
	for {
		m, pos, ok := it.Next()
		if !ok {
			break
		}
		if pos < nextAccept {
			continue
		}
		nextAccept = pos + opt.SeedStride
		if st != nil {
			st.SeedProbes++
		}
		for _, h := range a.ix.seeds[m] {
			votes[diagonal{h.contig, h.pos - int32(pos)}]++
		}
	}
	// Deterministic candidate order: map iteration order must not leak
	// into tie-breaking.
	cands := make([]diagonal, 0, len(votes))
	for d := range votes {
		cands = append(cands, d)
	}
	// Order by global contig name so the winner among equal-mismatch
	// candidates is the same whether the index holds all contigs or a
	// PyFasta partition.
	slices.SortFunc(cands, func(x, y diagonal) int {
		if idX, idY := a.ix.contigs[x.contig].ID, a.ix.contigs[y.contig].ID; idX != idY {
			return strings.Compare(idX, idY)
		}
		return cmp.Compare(x.offset, y.offset)
	})
	bestMM := opt.MaxMismatch + 1
	var best Alignment
	found := false
	for _, d := range cands {
		contig := a.ix.contigs[d.contig].Seq
		start := int(d.offset)
		if start < 0 || start+len(read) > len(contig) {
			continue
		}
		mm := 0
		for i := 0; i < len(read) && mm < bestMM; i++ {
			if contig[start+i] != read[i] {
				mm++
			}
		}
		if st != nil {
			st.BasesCompared += int64(len(read))
		}
		if mm < bestMM {
			bestMM = mm
			best = Alignment{Contig: int(d.contig), Pos: start, Reverse: reverse, Mismatches: mm}
			found = true
		}
	}
	return best, found && bestMM <= opt.MaxMismatch
}

// AlignAll aligns every read using the configured thread count and
// returns the alignments (in read order, unaligned reads omitted) plus
// aggregate stats, including the OpenMP section's makespan and thread
// imbalance.
func (a *Aligner) AlignAll(reads []seq.Record) ([]Alignment, Stats) {
	threads := a.ix.opt.Threads
	perThread := make([]Stats, threads)
	results := make([]*Alignment, len(reads))
	prof := omp.ParallelForProfiled(len(reads), threads, omp.Schedule{Kind: omp.Dynamic, Chunk: 64},
		func(i, tid int) {
			if al, ok := a.AlignRead(&reads[i], &perThread[tid]); ok {
				alCopy := al
				results[i] = &alCopy
			}
		})
	var out []Alignment
	agg := Stats{MakespanSec: prof.Makespan().Seconds(), ThreadImbalance: prof.Imbalance()}
	for _, r := range results {
		if r != nil {
			out = append(out, *r)
		}
	}
	for _, st := range perThread {
		agg.Reads += st.Reads
		agg.Aligned += st.Aligned
		agg.SeedProbes += st.SeedProbes
		agg.BasesCompared += st.BasesCompared
	}
	return out, agg
}

// MergeSAM concatenates per-node alignment sets, renumbering nothing:
// contig ids are global names, so a simple append reproduces the
// paper's "files from all nodes are merged into a single file". A
// single node's set is returned as it is, not copied.
func MergeSAM(parts [][]Alignment) []Alignment {
	if len(parts) == 1 {
		return parts[0]
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]Alignment, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// BestPerRead reduces a merged alignment set to one alignment per read
// (Bowtie's default single-report mode) under the same ordering the
// aligner uses internally — fewest mismatches, then forward strand,
// then contig name, then position — so that a monolithic index and a
// set of partitioned indexes elect the same winner.
func BestPerRead(als []Alignment) []Alignment {
	better := func(a, b Alignment) bool {
		if a.Mismatches != b.Mismatches {
			return a.Mismatches < b.Mismatches
		}
		if a.Reverse != b.Reverse {
			return !a.Reverse
		}
		if a.ContigID != b.ContigID {
			return a.ContigID < b.ContigID
		}
		return a.Pos < b.Pos
	}
	// A read's slot in out is fixed at its first appearance; the map
	// holds that slot, and a better alignment overwrites it in place.
	slot := make(map[string]int32, len(als))
	out := make([]Alignment, 0, len(als))
	for _, a := range als {
		i, ok := slot[a.ReadID]
		if !ok {
			slot[a.ReadID] = int32(len(out))
			out = append(out, a)
		} else if better(a, out[i]) {
			out[i] = a
		}
	}
	return out
}
