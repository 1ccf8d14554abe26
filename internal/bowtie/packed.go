// Packed-sequence alignment path: a flat seed table over 2-bit
// packed contigs and an aligner that gathers, orders and verifies
// candidates as integers on per-thread scratch, with the word-wise
// Packed.MismatchRange as the verifier. Candidate order and the
// mismatch-budget selection rule mirror the ASCII aligner, so the
// alignments are byte-identical; unlike the exhaustive ASCII aligner it
// probes only the seeds that can decide the answer and stops once the
// answer is decided, so its SeedProbes and BasesCompared count less
// work (DESIGN.md §12).

package bowtie

import (
	"cmp"
	"slices"
	"strings"

	"gotrinity/internal/kmer"
	"gotrinity/internal/omp"
	"gotrinity/internal/seq"
)

// PackedIndex locates seed k-mers in packed target contigs through a
// kmer.Multimap from each seed to its occurrences.
type PackedIndex struct {
	opt     Options
	contigs []seq.PackedRecord
	// seeds holds every seed occurrence as contig rank<<32 | position,
	// in contig-then-position order within a seed. Subtracting a read
	// offset turns a hit into a candidate key, rank<<32 | start of the
	// read on the contig, and ascending key order is the aligner's
	// candidate order: contig name, then start.
	seeds *kmer.Multimap[uint64]
	// byRank maps a contig's rank (by ID, equal IDs by index) back to
	// its index, and lens holds contig lengths by rank. Ranking by name
	// makes the winner among equal-mismatch candidates the same whether
	// the index holds all contigs or a PyFasta partition.
	byRank []int32
	lens   []int32
	// Bases is the total indexed bases, used by cost models.
	Bases int
}

// NewPackedIndex builds a seed index over packed contigs.
func NewPackedIndex(contigs []seq.PackedRecord, opt Options) (*PackedIndex, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	ix := &PackedIndex{opt: opt, contigs: contigs, byRank: make([]int32, len(contigs))}
	total := 0
	for ci := range contigs {
		ix.byRank[ci] = int32(ci)
		ix.Bases += contigs[ci].Seq.Len()
		total += kmer.PackedCountOf(contigs[ci].Seq, opt.SeedLen)
	}
	slices.SortFunc(ix.byRank, func(a, b int32) int {
		if c := strings.Compare(contigs[a].ID, contigs[b].ID); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	rankKey := make([]uint64, len(contigs))
	ix.lens = make([]int32, len(contigs))
	for r, ci := range ix.byRank {
		rankKey[ci] = uint64(r) << 32
		ix.lens[r] = int32(contigs[ci].Seq.Len())
	}
	ix.seeds = kmer.NewMultimap[uint64](total, total)
	for ci := range contigs {
		it := kmer.NewPackedIterator(contigs[ci].Seq, opt.SeedLen)
		for m, pos, ok := it.Next(); ok; m, pos, ok = it.Next() {
			ix.seeds.Add(m, rankKey[ci]+uint64(pos))
		}
	}
	ix.seeds.Freeze()
	return ix, nil
}

// MemoryFootprint estimates the index's resident bytes (8 per distinct
// seed and 8 per occurrence, matching the ASCII accounting).
func (ix *PackedIndex) MemoryFootprint() int {
	return 8*ix.seeds.Len() + 8*len(ix.seeds.Values())
}

// Contigs returns the indexed packed target records.
func (ix *PackedIndex) Contigs() []seq.PackedRecord { return ix.contigs }

// PackedAligner runs packed reads against a packed index.
type PackedAligner struct {
	ix *PackedIndex
}

// NewPackedAligner wraps a packed index.
func NewPackedAligner(ix *PackedIndex) *PackedAligner { return &PackedAligner{ix: ix} }

// alignScratch is one worker's reusable state; once its buffers have
// grown to the workload's read length and seed multiplicity, aligning
// a read allocates nothing.
type alignScratch struct {
	rc    seq.Packed // reverse complement of the current read
	keys  []uint64   // candidate keys of the current strand
	seeds []readSeed // accepted seeds of the current strand, in read order
	picks []readSeed // their first pairwise-disjoint ones
}

// readSeed is one accepted seed of a read: its k-mer and read offset.
type readSeed struct {
	m   kmer.Kmer
	pos int
}

// AlignRead aligns a single packed read — the packed twin of
// Aligner.AlignRead, with identical strand order, tie-breaking and
// result.
func (a *PackedAligner) AlignRead(rec *seq.PackedRecord, st *Stats) (Alignment, bool) {
	return a.alignRead(rec, st, new(alignScratch))
}

func (a *PackedAligner) alignRead(rec *seq.PackedRecord, st *Stats, sc *alignScratch) (Alignment, bool) {
	if st != nil {
		st.Reads++
	}
	if rec.Seq.Len() < a.ix.opt.MinAlignLen {
		return Alignment{}, false
	}
	best, ok := a.alignOneStrand(rec.Seq, false, st, sc)
	// The reverse strand wins only with strictly fewer mismatches, which
	// an exact forward placement rules out.
	if !ok || best.Mismatches > 0 {
		rec.Seq.ReverseComplementInto(&sc.rc)
		if alt, ok2 := a.alignOneStrand(sc.rc, true, st, sc); ok2 && (!ok || alt.Mismatches < best.Mismatches) {
			best, ok = alt, true
		}
	}
	if !ok {
		return Alignment{}, false
	}
	best.ReadID = rec.ID
	best.ReadLen = rec.Seq.Len()
	best.ContigID = a.ix.contigs[best.Contig].ID
	if st != nil {
		st.Aligned++
	}
	return best, true
}

func (a *PackedAligner) alignOneStrand(read seq.Packed, reverse bool, st *Stats, sc *alignScratch) (Alignment, bool) {
	ix := a.ix
	opt := ix.opt
	n := read.Len()
	// Pigeonhole: a placement with at most MaxMismatch mismatches leaves
	// one of any MaxMismatch+1 disjoint seed windows mismatch-free, and
	// that window's contig k-mer is indexed (an accepted seed holds no N,
	// and N against a base is a mismatch). So the first MaxMismatch+1
	// pairwise-disjoint accepted seeds vote for every placement the
	// budget admits; a read with fewer probes every accepted seed.
	need := opt.MaxMismatch + 1
	seeds, picks := sc.seeds[:0], sc.picks[:0]
	it := kmer.NewPackedIterator(read, opt.SeedLen)
	nextAccept, nextDisjoint := 0, 0
	for len(picks) < need {
		m, pos, ok := it.Next()
		if !ok {
			break
		}
		if pos < nextAccept {
			continue
		}
		nextAccept = pos + opt.SeedStride
		seeds = append(seeds, readSeed{m, pos})
		if pos >= nextDisjoint {
			picks = append(picks, readSeed{m, pos})
			nextDisjoint = pos + opt.SeedLen
		}
	}
	sc.seeds, sc.picks = seeds, picks
	if len(picks) == need {
		seeds = picks
	}
	keys := sc.keys[:0]
	for _, s := range seeds {
		for _, h := range ix.seeds.Row(s.m) {
			// Only a read lying wholly on the contig is a candidate.
			if start := int(uint32(h)) - s.pos; start >= 0 && start <= int(ix.lens[h>>32])-n {
				keys = append(keys, h-uint64(s.pos))
			}
		}
	}
	sc.keys = keys
	// Seeds of one placement vote for the same key; sorted, the repeats
	// are adjacent and each candidate is verified once.
	slices.Sort(keys)
	bestMM := opt.MaxMismatch + 1
	var best Alignment
	verified := 0
	for i, key := range keys {
		if i > 0 && key == keys[i-1] {
			continue
		}
		ci := ix.byRank[key>>32]
		contig := ix.contigs[ci].Seq
		start := int(uint32(key))
		// The byte loop stops once mm reaches bestMM; MismatchRange with
		// budget=bestMM returns some mm >= bestMM in exactly those cases,
		// so the mm < bestMM selection below decides identically.
		mm, _ := contig.MismatchRange(start, read, 0, n, bestMM)
		verified++
		if mm < bestMM {
			bestMM = mm
			best = Alignment{Contig: int(ci), Pos: start, Reverse: reverse, Mismatches: mm}
			if mm == 0 {
				break // the first exact candidate in key order is final
			}
		}
	}
	if st != nil {
		st.SeedProbes += int64(len(seeds))
		st.BasesCompared += int64(verified * n)
	}
	// bestMM only ever falls below its start when a candidate was taken.
	return best, bestMM <= opt.MaxMismatch
}

// AlignAll aligns every packed read with the configured thread count —
// the packed twin of Aligner.AlignAll.
func (a *PackedAligner) AlignAll(reads []seq.PackedRecord) ([]Alignment, Stats) {
	threads := a.ix.opt.Threads
	perThread := make([]Stats, threads)
	scratch := make([]alignScratch, threads)
	results := make([]Alignment, len(reads))
	aligned := make([]bool, len(reads))
	prof := omp.ParallelForProfiled(len(reads), threads, omp.Schedule{Kind: omp.Dynamic, Chunk: 64},
		func(i, tid int) {
			results[i], aligned[i] = a.alignRead(&reads[i], &perThread[tid], &scratch[tid])
		})
	agg := Stats{MakespanSec: prof.Makespan().Seconds(), ThreadImbalance: prof.Imbalance()}
	for _, st := range perThread {
		agg.Reads += st.Reads
		agg.Aligned += st.Aligned
		agg.SeedProbes += st.SeedProbes
		agg.BasesCompared += st.BasesCompared
	}
	if agg.Aligned == 0 {
		return nil, agg
	}
	// Compact in place: the write index never passes the read index.
	out := results[:0]
	for i, ok := range aligned {
		if ok {
			out = append(out, results[i])
		}
	}
	return out, agg
}
