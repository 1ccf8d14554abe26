// Packed-sequence alignment path: a seed index over 2-bit packed
// contigs and an aligner whose verification is the word-wise
// Packed.MismatchRange instead of the byte loop. Seed votes, candidate
// ordering, the mismatch-budget selection rule, and every stats
// counter mirror the ASCII aligner exactly, so alignments and metered
// work are byte-identical — only resident sequence bytes shrink 4×.

package bowtie

import (
	"sort"

	"gotrinity/internal/kmer"
	"gotrinity/internal/omp"
	"gotrinity/internal/seq"
)

// PackedIndex locates seed k-mers in packed target contigs through a
// seed hash table.
type PackedIndex struct {
	opt     Options
	contigs []seq.PackedRecord
	seeds   map[kmer.Kmer][]hit
	// Bases is the total indexed bases, used by cost models.
	Bases int
}

// NewPackedIndex builds a seed index over packed contigs.
func NewPackedIndex(contigs []seq.PackedRecord, opt Options) (*PackedIndex, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	ix := &PackedIndex{opt: opt, contigs: contigs, seeds: make(map[kmer.Kmer][]hit)}
	for ci := range contigs {
		ix.Bases += contigs[ci].Seq.Len()
		it := kmer.NewPackedIterator(contigs[ci].Seq, opt.SeedLen)
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

// MemoryFootprint estimates the index's resident bytes (the seed
// table, matching the ASCII accounting).
func (ix *PackedIndex) MemoryFootprint() int {
	n := 0
	for _, hits := range ix.seeds {
		n += 8 + 8*len(hits)
	}
	return n
}

// Contigs returns the indexed packed target records.
func (ix *PackedIndex) Contigs() []seq.PackedRecord { return ix.contigs }

// PackedAligner runs packed reads against a packed index.
type PackedAligner struct {
	ix *PackedIndex
}

// NewPackedAligner wraps a packed index.
func NewPackedAligner(ix *PackedIndex) *PackedAligner { return &PackedAligner{ix: ix} }

// AlignRead aligns a single packed read — the packed twin of
// Aligner.AlignRead, with identical strand order, tie-breaking, and
// stats accounting.
func (a *PackedAligner) AlignRead(rec *seq.PackedRecord, st *Stats) (Alignment, bool) {
	if st != nil {
		st.Reads++
	}
	if rec.Seq.Len() < a.ix.opt.MinAlignLen {
		return Alignment{}, false
	}
	best, ok := a.alignOneStrand(rec.Seq, false, st)
	rc := rec.Seq.ReverseComplement()
	if alt, ok2 := a.alignOneStrand(rc, true, st); ok2 && (!ok || alt.Mismatches < best.Mismatches) {
		best, ok = alt, true
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

func (a *PackedAligner) alignOneStrand(read seq.Packed, reverse bool, st *Stats) (Alignment, bool) {
	opt := a.ix.opt
	votes := make(map[diagonal]int)
	it := kmer.NewPackedIterator(read, opt.SeedLen)
	nextAccept := 0
	var hitBuf []hit
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
		hitBuf = append(hitBuf[:0], a.ix.seeds[m]...)
		for _, h := range hitBuf {
			votes[diagonal{h.contig, h.pos - int32(pos)}]++
		}
	}
	cands := make([]diagonal, 0, len(votes))
	for d := range votes {
		cands = append(cands, d)
	}
	sort.Slice(cands, func(i, j int) bool {
		idI := a.ix.contigs[cands[i].contig].ID
		idJ := a.ix.contigs[cands[j].contig].ID
		if idI != idJ {
			return idI < idJ
		}
		return cands[i].offset < cands[j].offset
	})
	bestMM := opt.MaxMismatch + 1
	var best Alignment
	found := false
	for _, d := range cands {
		contig := a.ix.contigs[d.contig].Seq
		start := int(d.offset)
		if start < 0 || start+read.Len() > contig.Len() {
			continue
		}
		// The byte loop stops once mm reaches bestMM; MismatchRange with
		// budget=bestMM returns some mm >= bestMM in exactly those cases,
		// so the mm < bestMM selection below decides identically.
		mm, _ := contig.MismatchRange(start, read, 0, read.Len(), bestMM)
		if st != nil {
			st.BasesCompared += int64(read.Len())
		}
		if mm < bestMM {
			bestMM = mm
			best = Alignment{Contig: int(d.contig), Pos: start, Reverse: reverse, Mismatches: mm}
			found = true
		}
	}
	return best, found && bestMM <= opt.MaxMismatch
}

// AlignAll aligns every packed read with the configured thread count —
// the packed twin of Aligner.AlignAll.
func (a *PackedAligner) AlignAll(reads []seq.PackedRecord) ([]Alignment, Stats) {
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
