// Package validate implements the paper's §IV validation methodology:
// the all-to-all Smith-Waterman comparison of transcript sets (Fig. 4),
// the full-length reconstruction counts against a reference transcript
// set (Fig. 5), and the fused-transcript counts (Fig. 6).
package validate

import (
	"slices"

	"gotrinity/internal/kmer"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
	"gotrinity/internal/sw"
)

// prefilterK is the k-mer length of the shared-k-mer screen that keeps
// the all-to-all comparison quadratic only in candidate pairs, not in
// every pair.
const prefilterK = 21

// minSharedKmers is how many k-mers two sequences must share before a
// full Smith-Waterman alignment is attempted.
const minSharedKmers = 3

// SWComparison classifies how the transcripts of one set align to
// another set — the categories of Fig. 4: (a) 100% identical over the
// full length, (b) <100% identical over the full length, (c) <100%
// identical over partial length, and the identity distribution of the
// partial category (d). Unmatched counts transcripts with no alignment
// candidate at all.
type SWComparison struct {
	FullIdentical     int
	FullNonIdentical  int
	Partial           int
	Unmatched         int
	PartialIdentities []float64
}

// Total returns the number of classified transcripts.
func (c SWComparison) Total() int {
	return c.FullIdentical + c.FullNonIdentical + c.Partial + c.Unmatched
}

// kmerIndex maps prefilter k-mers to the records containing them, each
// record listed once per k-mer, and holds the shared-k-mer counters of
// one candidates call.
type kmerIndex struct {
	recs    *kmer.Multimap[int32]
	shared  []int32 // per record: k-mers shared with the current query
	touched []int32 // records with shared > 0
}

func indexRecords(recs []seq.Record) *kmerIndex {
	bases := 0
	for i := range recs {
		bases += len(recs[i].Seq)
	}
	ix := &kmerIndex{recs: kmer.NewMultimap[int32](bases, bases), shared: make([]int32, len(recs))}
	var last []int32 // the last record to list k-mer id
	for i := range recs {
		it := kmer.NewIterator(recs[i].Seq, prefilterK)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			id := ix.recs.Key(m)
			if int(id) == len(last) {
				last = append(last, -1)
			}
			if last[id] != int32(i) { // already indexed for this record otherwise
				last[id] = int32(i)
				ix.recs.Put(id, int32(i))
			}
		}
	}
	ix.recs.Freeze()
	return ix
}

// candidates returns record ids sharing at least minSharedKmers
// prefilter k-mers with s (either strand), ascending.
func (ix *kmerIndex) candidates(s []byte) []int32 {
	tally := func(b []byte) {
		it := kmer.NewIterator(b, prefilterK)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			for _, id := range ix.recs.Row(m) {
				if ix.shared[id] == 0 {
					ix.touched = append(ix.touched, id)
				}
				ix.shared[id]++
			}
		}
	}
	tally(s)
	tally(seq.ReverseComplement(s))
	var out []int32
	for _, id := range ix.touched {
		if ix.shared[id] >= minSharedKmers {
			out = append(out, id)
		}
		ix.shared[id] = 0
	}
	ix.touched = ix.touched[:0]
	slices.Sort(out)
	return out
}

// CompareTranscriptSets classifies every transcript of `query` against
// its best Smith-Waterman match in `subject`, reproducing Fig. 4's
// methodology ("all reconstructed transcripts from the hybrid
// parallelized Trinity were aligned to those from the original
// Trinity").
func CompareTranscriptSets(query, subject []seq.Record, sc sw.Scoring) SWComparison {
	var out SWComparison
	ix := indexRecords(subject)
	for qi := range query {
		q := query[qi].Seq
		cands := ix.candidates(q)
		if len(cands) == 0 {
			out.Unmatched++
			continue
		}
		bestScore := -1
		var best sw.Result
		bestCover := -1.0
		var bestLen int
		for _, id := range cands {
			r := alignBothStrands(q, subject[id].Seq, sc)
			// Equal-scoring candidates (e.g. a transcript and a longer
			// transcript containing it) are broken by joint coverage so
			// the true counterpart wins deterministically.
			cover := float64(r.AEnd-r.AStart)/float64(len(q)) +
				float64(r.BEnd-r.BStart)/float64(len(subject[id].Seq))
			if r.Score > bestScore || (r.Score == bestScore && cover > bestCover) {
				bestScore = r.Score
				bestCover = cover
				best = r
				bestLen = len(subject[id].Seq)
			}
		}
		if bestScore <= 0 {
			out.Unmatched++
			continue
		}
		coverQ := float64(best.AEnd-best.AStart) / float64(len(q))
		coverS := float64(best.BEnd-best.BStart) / float64(bestLen)
		full := coverQ >= 0.99 && coverS >= 0.99
		switch {
		case full && best.Identity >= 0.9999:
			out.FullIdentical++
		case full:
			out.FullNonIdentical++
		default:
			out.Partial++
			out.PartialIdentities = append(out.PartialIdentities, best.Identity)
		}
	}
	return out
}

func alignBothStrands(a, b []byte, sc sw.Scoring) sw.Result {
	fwd := sw.Align(a, b, sc)
	rev := sw.Align(seq.ReverseComplement(a), b, sc)
	if rev.Score > fwd.Score {
		// Re-map coordinates onto the forward query.
		n := len(a)
		rev.AStart, rev.AEnd = n-rev.AEnd, n-rev.AStart
		return rev
	}
	return fwd
}

// FullLengthCounts are Fig. 5's two numbers for one dataset and one
// Trinity version: genes with at least one isoform reconstructed in
// full length, and isoforms reconstructed in full length.
type FullLengthCounts struct {
	Genes    int
	Isoforms int
}

// FullLengthReconstruction counts reference isoforms recovered at
// >= minCover of their length with >= minIdentity, and the genes with
// at least one such isoform.
func FullLengthReconstruction(transcripts []seq.Record, ref []rnaseq.Transcript,
	minCover, minIdentity float64) FullLengthCounts {
	ix := indexRecords(transcripts)
	sc := sw.DefaultScoring()
	genes := map[int]bool{}
	var out FullLengthCounts
	for _, r := range ref {
		if recoveredFullLength(r.Seq, transcripts, ix, sc, minCover, minIdentity) {
			out.Isoforms++
			genes[r.Gene] = true
		}
	}
	out.Genes = len(genes)
	return out
}

// recoveredFullLength reports whether any transcript covers refSeq at
// the thresholds. The full-length criterion is one-sided: the
// reconstructed transcript may be longer (e.g. a fusion) as long as
// the reference is covered.
func recoveredFullLength(refSeq []byte, transcripts []seq.Record, ix *kmerIndex,
	sc sw.Scoring, minCover, minIdentity float64) bool {
	for _, id := range ix.candidates(refSeq) {
		r := alignBothStrands(refSeq, transcripts[id].Seq, sc)
		if r.AlignLen == 0 {
			continue
		}
		cover := float64(r.AEnd-r.AStart) / float64(len(refSeq))
		if cover >= minCover && r.Identity >= minIdentity {
			return true
		}
	}
	return false
}

// FusionCounts are Fig. 6's two numbers: genes participating in fused
// reconstructions and reconstructed isoforms that are fusions.
type FusionCounts struct {
	Genes    int
	Isoforms int
}

// FusedTranscripts counts reconstructed transcripts that contain, end
// to end, full-length copies of reference transcripts from two or more
// different genes ("single reconstructed transcript including multiple
// full-length transcripts", §IV) — the likely false positives caused
// by overlapping UTRs.
func FusedTranscripts(transcripts []seq.Record, ref []rnaseq.Transcript,
	minCover, minIdentity float64) FusionCounts {
	refRecs := make([]seq.Record, len(ref))
	for i := range ref {
		refRecs[i] = seq.Record{ID: ref[i].ID, Seq: ref[i].Seq}
	}
	ix := indexRecords(refRecs)
	sc := sw.DefaultScoring()
	fusedGenes := map[int]bool{}
	var out FusionCounts
	for ti := range transcripts {
		genesHere := map[int]bool{}
		for _, id := range ix.candidates(transcripts[ti].Seq) {
			r := alignBothStrands(ref[id].Seq, transcripts[ti].Seq, sc)
			if r.AlignLen == 0 {
				continue
			}
			cover := float64(r.AEnd-r.AStart) / float64(len(ref[id].Seq))
			if cover >= minCover && r.Identity >= minIdentity {
				genesHere[ref[id].Gene] = true
			}
		}
		if len(genesHere) >= 2 {
			out.Isoforms++
			for g := range genesHere {
				fusedGenes[g] = true
			}
		}
	}
	out.Genes = len(fusedGenes)
	return out
}
