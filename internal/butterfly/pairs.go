package butterfly

import (
	"strings"

	"gotrinity/internal/chrysalis"
	"gotrinity/internal/kmer"
	"gotrinity/internal/omp"
	"gotrinity/internal/seq"
)

// Paired-end reconciliation: Butterfly "reconstructs feasible
// full-length linear transcripts by reconciling the individual de
// Bruijn graphs ... with the original reads and paired end data"
// (§II-A). A mate pair supports a transcript when both mates match it
// (in either orientation); transcripts that enumerate a graph path no
// pair ever spans are likely chimeric joins.

// PairSupportK is the k-mer length used for mate-to-transcript
// matching.
const PairSupportK = 21

// minMateKmers is how many of a mate's k-mers must hit the transcript
// for the mate to count as matching.
const minMateKmers = 3

// PairSupportParallel counts, for each transcript, the read pairs
// assigned to its component whose two mates both match the transcript
// sequence; the result is indexed like ts. It runs over a bounded
// worker pool, one component per work item: a component's pairs are
// scanned against an index of its own transcripts and every
// transcript's count is written by the one worker that holds its
// component, so the result is identical to the serial count for any
// worker count.
func PairSupportParallel(ts []Transcript, graphs []*chrysalis.ComponentGraph, reads []seq.Record, workers int) []int {
	return pairSupport(ts, graphs, reads, workers)
}

// componentPairs groups one component's assigned reads into mate
// pairs, in assignment order: a pair is emitted when its second mate is
// seen, ordered (mate 1, mate 2).
func componentPairs(cg *chrysalis.ComponentGraph, reads []seq.Record) [][2]int32 {
	var pairs [][2]int32
	mates := map[string]int32{}
	for _, ri := range cg.Reads {
		if int(ri) >= len(reads) {
			continue
		}
		base, mate, ok := splitMate(reads[ri].ID)
		if !ok {
			continue
		}
		if other, seen := mates[base]; seen {
			p := [2]int32{other, ri}
			if mate == 1 {
				p = [2]int32{ri, other}
			}
			pairs = append(pairs, p)
			delete(mates, base)
		} else {
			mates[base] = ri
		}
	}
	return pairs
}

func pairSupport(ts []Transcript, graphs []*chrysalis.ComponentGraph, reads []seq.Record, workers int) []int {
	// The unit of work is a component: its transcripts (positions in
	// ts) and its assigned reads grouped into mate pairs. Should two
	// graphs share an id, the last one that has pairs speaks for it.
	tsOf := map[int][]int{}
	for ti := range ts {
		tsOf[ts[ti].Component] = append(tsOf[ts[ti].Component], ti)
	}
	type unit struct {
		ts    []int
		pairs [][2]int32
	}
	var units []unit
	for i := len(graphs) - 1; i >= 0; i-- {
		id := graphs[i].Component.ID
		if tis := tsOf[id]; len(tis) > 0 {
			if pairs := componentPairs(graphs[i], reads); len(pairs) > 0 {
				units = append(units, unit{tis, pairs})
				delete(tsOf, id)
			}
		}
	}

	support := make([]int, len(ts))
	workers = max(workers, 1)
	indexes := make([]mateIndex, workers) // one per worker, its memory reused across components
	// Largest first: a mate k-mer costs a lookup plus a walk over the
	// transcripts that hold it.
	order := omp.LPTOrder(len(units), func(i int) float64 {
		return float64(len(units[i].pairs)) * float64(1+len(units[i].ts))
	})
	omp.ParallelFor(len(units), workers, omp.Schedule{Kind: omp.Dynamic}, func(p, tid int) {
		u, ix := units[order[p]], &indexes[tid]
		ix.build(ts, u.ts)
		for pi, pair := range u.pairs {
			// Each mate is scanned once, against all the component's
			// transcripts at a time.
			ix.scan(reads[pair[0]].Seq)
			for _, t := range ix.touched {
				if ix.matches(t) {
					ix.hits[t].mate1 = int32(pi + 1)
				}
			}
			ix.scan(reads[pair[1]].Seq)
			for _, t := range ix.touched {
				if ix.matches(t) && ix.hits[t].mate1 == int32(pi+1) {
					support[u.ts[t]]++
				}
			}
		}
	})
	return support
}

// mateIndex maps every PairSupportK-mer of one component's transcripts
// to the transcripts that hold it (positions within the component, each
// transcript listed once per k-mer), and carries the per-transcript hit
// counters one mate scan fills.
type mateIndex struct {
	txs     kmer.Multimap[int32]
	last    []int32 // build scratch: the last transcript to list k-mer id
	hits    []txHits
	touched []int32 // transcripts the current scan has hit
	epoch   int32   // the current scan's number
}

// txHits is one transcript's state within a component's scans.
type txHits struct {
	epoch int32    // scan that n belongs to
	n     [2]int32 // the mate's k-mers found forward / reverse-complemented
	mate1 int32    // pair (1-based) whose first mate matched
}

// build indexes transcripts ts[tis[0]], ts[tis[1]], ... as 0, 1, ...,
// reusing the previous component's buffers.
func (ix *mateIndex) build(ts []Transcript, tis []int) {
	bases := 0
	for _, ti := range tis {
		bases += len(ts[ti].Seq)
	}
	ix.txs.Reset(bases, bases)
	ix.last = ix.last[:0]
	for t, ti := range tis {
		it := kmer.NewIterator(ts[ti].Seq, PairSupportK)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			id := ix.txs.Key(m)
			if int(id) == len(ix.last) {
				ix.last = append(ix.last, -1)
			}
			if ix.last[id] != int32(t) { // t lists this k-mer once
				ix.last[id] = int32(t)
				ix.txs.Put(id, int32(t))
			}
		}
	}
	ix.txs.Freeze()
	ix.hits = append(ix.hits[:0], make([]txHits, len(tis))...)
	ix.epoch = 0
}

// scan counts, for every transcript of the component at once, how many
// of the read's k-mers it holds forward and reverse-complemented (the
// reverse complement's k-mers are the reverse complements of the
// read's). It allocates nothing once touched has grown.
func (ix *mateIndex) scan(read []byte) {
	ix.epoch++
	ix.touched = ix.touched[:0]
	it := kmer.NewIterator(read, PairSupportK)
	for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
		for strand, q := range [2]kmer.Kmer{m, m.ReverseComplement(PairSupportK)} {
			for _, t := range ix.txs.Row(q) {
				h := &ix.hits[t]
				if h.epoch != ix.epoch {
					h.epoch, h.n = ix.epoch, [2]int32{}
					ix.touched = append(ix.touched, t)
				}
				h.n[strand]++
			}
		}
	}
}

// matches reports whether the last scanned mate matches transcript t:
// at least minMateKmers of its k-mers, or of its reverse complement's,
// are the transcript's.
func (ix *mateIndex) matches(t int32) bool {
	h := &ix.hits[t]
	return h.epoch == ix.epoch && (h.n[0] >= minMateKmers || h.n[1] >= minMateKmers)
}

// FilterByPairSupport drops transcripts with support below min within
// components where at least one transcript meets it; components with
// no supported transcript (e.g. single-end data) are left untouched.
// The support slice is filtered in lockstep — a transcript's support
// count does not depend on which other transcripts survive, so the
// returned counts equal a fresh PairSupport over the filtered set
// without re-scanning any read.
func FilterByPairSupport(ts []Transcript, support []int, min int) ([]Transcript, []int) {
	if min <= 0 || len(ts) != len(support) {
		return ts, support
	}
	compHasSupport := map[int]bool{}
	for i := range ts {
		if support[i] >= min {
			compHasSupport[ts[i].Component] = true
		}
	}
	outT, outS := ts[:0], support[:0]
	for i := range ts {
		if !compHasSupport[ts[i].Component] || support[i] >= min {
			outT = append(outT, ts[i])
			outS = append(outS, support[i])
		}
	}
	return outT, outS
}

func splitMate(id string) (base string, mate int, ok bool) {
	switch {
	case strings.HasSuffix(id, "/1"):
		return id[:len(id)-2], 1, true
	case strings.HasSuffix(id, "/2"):
		return id[:len(id)-2], 2, true
	}
	return "", 0, false
}
