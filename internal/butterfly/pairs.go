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

// PairSupport counts, for each transcript, the read pairs assigned to
// its component whose two mates both match the transcript sequence.
// The result is indexed like ts.
func PairSupport(ts []Transcript, graphs []*chrysalis.ComponentGraph, reads []seq.Record) []int {
	return pairSupport(ts, graphs, reads, 1)
}

// PairSupportParallel is PairSupport over a bounded worker pool: each
// transcript's support is computed independently (its own k-mer set
// probed against its component's read-only pair list) and written into
// its own cell, so the result is identical to the serial count for any
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
	// Group each component's assigned reads into mate pairs. The map is
	// built once and only read afterwards.
	pairsByComp := map[int][][2]int32{}
	for _, cg := range graphs {
		if pairs := componentPairs(cg, reads); len(pairs) > 0 {
			pairsByComp[cg.Component.ID] = pairs
		}
	}

	support := make([]int, len(ts))
	supportOne := func(ti int) {
		pairs := pairsByComp[ts[ti].Component]
		if len(pairs) == 0 {
			return
		}
		kmers := transcriptKmerSet(ts[ti].Seq)
		for _, p := range pairs {
			if mateMatches(reads[p[0]].Seq, kmers) && mateMatches(reads[p[1]].Seq, kmers) {
				support[ti]++
			}
		}
	}
	if workers > 1 {
		omp.ParallelFor(len(ts), workers, omp.Schedule{Kind: omp.Dynamic},
			func(ti, tid int) { supportOne(ti) })
	} else {
		for ti := range ts {
			supportOne(ti)
		}
	}
	return support
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

func transcriptKmerSet(s []byte) map[kmer.Kmer]bool {
	set := make(map[kmer.Kmer]bool, len(s))
	it := kmer.NewIterator(s, PairSupportK)
	for {
		m, _, ok := it.Next()
		if !ok {
			return set
		}
		set[m] = true
	}
}

// mateMatches reports whether at least minMateKmers k-mers of the read
// or of its reverse complement are in kmers. The reverse complement's
// k-mers are the reverse complements of the read's, so one pass over
// the read counts both orientations.
func mateMatches(read []byte, kmers map[kmer.Kmer]bool) bool {
	fwd, rc := 0, 0
	it := kmer.NewIterator(read, PairSupportK)
	for {
		m, _, ok := it.Next()
		if !ok {
			return false
		}
		if kmers[m] {
			if fwd++; fwd >= minMateKmers {
				return true
			}
		}
		if kmers[m.ReverseComplement(PairSupportK)] {
			if rc++; rc >= minMateKmers {
				return true
			}
		}
	}
}
