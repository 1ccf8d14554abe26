// Package inchworm implements the second Trinity stage: it reads the
// k-mer dictionary written by Jellyfish, sorts it by decreasing
// abundance, and greedily extends each unused seed k-mer in both
// directions via (k-1)-mer overlaps (Fig. 1 of the paper), reporting
// the resulting linear contigs.
package inchworm

import (
	"fmt"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// Options configures an Inchworm run.
type Options struct {
	K            int // k-mer length, must match the dictionary
	MinKmerCount int // error filter: drop k-mers rarer than this (default 2)
	MinContigLen int // shortest contig to report (default 2k-1, one join)
}

func (o *Options) normalize() error {
	if o.K <= 0 || o.K > kmer.MaxK {
		return fmt.Errorf("inchworm: k=%d out of range", o.K)
	}
	if o.MinKmerCount <= 0 {
		o.MinKmerCount = 2
	}
	if o.MinContigLen <= 0 {
		o.MinContigLen = 2*o.K - 1
	}
	return nil
}

// Stats reports what an assembly did, for profiling and the pipeline
// figures.
type Stats struct {
	KmersIn      int   // dictionary entries offered
	KmersKept    int   // entries surviving the error filter
	Contigs      int   // contigs reported
	BasesOut     int   // total contig bases
	ExtensionOps int64 // greedy extension probes performed (work units)
}

// Assembler holds the k-mer dictionary (the "hash table object" that
// dominates Inchworm's memory footprint, per §II-A): the kept entries
// in seed order, a FlatSet whose dense ids are positions in that order,
// and a used bitmap over the ids. Because id order is abundance order
// (decreasing count, ties by increasing k-mer), the best of several
// candidate extensions is simply the one with the smallest id.
type Assembler struct {
	opt         Options
	seeds       []jellyfish.Entry
	dict        *kmer.FlatSet
	used        []uint64
	left, right []byte // extend's scratch, reused across contigs
	stats       Stats
}

// DuplicateKmerError reports a dictionary that names a k-mer twice
// (a hand-edited dump): which count should seed and rank the k-mer is
// undefined, so the dictionary is rejected.
type DuplicateKmerError struct {
	Kmer   kmer.Kmer
	K      int
	Counts [2]uint32 // the two entries' counts, larger first
}

func (e *DuplicateKmerError) Error() string {
	return fmt.Sprintf("inchworm: dictionary names k-mer %s twice (counts %d and %d)",
		e.Kmer.Decode(e.K), e.Counts[0], e.Counts[1]) // ascii-ok: error text
}

// New builds an assembler from a Jellyfish dictionary, taking
// ownership of entries: entries below MinKmerCount are discarded
// ("removing likely error-containing k-mers") and the rest sorted in
// decreasing order of abundance, both in place, so the dictionary is
// never copied. The k-mers are unique, so the seed order — and the
// assembly — is the same whatever order the entries arrive in.
func New(entries []jellyfish.Entry, opt Options) (*Assembler, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	a := &Assembler{opt: opt, seeds: entries[:0]}
	a.stats.KmersIn = len(entries)
	for _, e := range entries {
		if int(e.Count) >= opt.MinKmerCount {
			a.seeds = append(a.seeds, e)
		}
	}
	a.stats.KmersKept = len(a.seeds)
	jellyfish.SortByAbundance(a.seeds)
	a.dict = kmer.NewFlatSet(len(a.seeds))
	a.used = make([]uint64, (len(a.seeds)+63)/64)
	for i, e := range a.seeds {
		if first := a.dict.Add(e.Kmer); int(first) != i {
			return nil, &DuplicateKmerError{Kmer: e.Kmer, K: opt.K, Counts: [2]uint32{a.seeds[first].Count, e.Count}}
		}
	}
	return a, nil
}

// Assemble runs the greedy extension over every seed and returns the
// contigs as FASTA-ready records named "contigN".
func (a *Assembler) Assemble() []seq.Record {
	var contigs []seq.Record
	for id, s := range a.seeds {
		if a.isUsed(int32(id)) {
			continue
		}
		c := a.extend(s.Kmer, int32(id))
		if len(c) >= a.opt.MinContigLen {
			contigs = append(contigs, seq.Record{
				ID:   fmt.Sprintf("contig%d", len(contigs)),
				Desc: fmt.Sprintf("len=%d", len(c)),
				Seq:  c,
			})
			a.stats.Contigs++
			a.stats.BasesOut += len(c)
		}
	}
	return contigs
}

// Stats returns assembly statistics; valid after Assemble.
func (a *Assembler) Stats() Stats { return a.stats }

func (a *Assembler) isUsed(id int32) bool { return a.used[id>>6]&(1<<(uint(id)&63)) != 0 }
func (a *Assembler) setUsed(id int32)     { a.used[id>>6] |= 1 << (uint(id) & 63) }

// extend grows a contig from seed in both directions, marking every
// consumed k-mer as used so each k-mer seeds at most one contig.
func (a *Assembler) extend(seedKmer kmer.Kmer, seedID int32) []byte {
	a.setUsed(seedID)
	// Extend rightwards: repeatedly find the most abundant unused
	// k-mer whose (k-1)-prefix equals the current (k-1)-suffix; then
	// leftwards symmetrically (collected in reverse order).
	walk := func(fwd bool, bases []byte) []byte {
		cur := seedKmer
		for {
			next, base, ok := a.bestExtension(cur, fwd)
			if !ok {
				return bases
			}
			bases = append(bases, base)
			cur = next
		}
	}
	a.right = walk(true, a.right[:0])
	a.left = walk(false, a.left[:0])

	contig := make([]byte, 0, len(a.left)+a.opt.K+len(a.right))
	for i := len(a.left) - 1; i >= 0; i-- {
		contig = append(contig, a.left[i])
	}
	contig = seedKmer.AppendDecode(contig, a.opt.K) // ascii-ok: contig record assembly, once per contig
	return append(contig, a.right...)
}

// bestExtension probes the four possible single-base extensions of cur
// (to the right if fwd, else to the left), marks the unused candidate
// with the highest count (ties: the smallest k-mer) used and returns
// it. Four lookups, no allocation.
func (a *Assembler) bestExtension(cur kmer.Kmer, fwd bool) (kmer.Kmer, byte, bool) {
	k := a.opt.K
	var bestK kmer.Kmer
	var bestBase byte
	best := int32(-1)
	for code := uint64(0); code < 4; code++ {
		var cand kmer.Kmer
		if fwd {
			cand = cur.AppendBase(code, k)
		} else {
			cand = cur.PrependBase(code, k)
		}
		a.stats.ExtensionOps++
		id, ok := a.dict.Lookup(cand)
		if !ok || a.isUsed(id) {
			continue
		}
		if best < 0 || id < best {
			bestK, bestBase, best = cand, seq.IndexBase(code), id
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	a.setUsed(best)
	return bestK, bestBase, true
}

// Run is the full Inchworm stage: count dictionary in, contigs out. It
// takes ownership of entries, as New does.
func Run(entries []jellyfish.Entry, opt Options) ([]seq.Record, Stats, error) {
	a, err := New(entries, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	contigs := a.Assemble()
	return contigs, a.Stats(), nil
}
