package main

import (
	"fmt"
	"math/rand"
	"sort"

	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

// transcriptomeSeed fixes the organism: every run of a workload
// sequences the same genes, isoforms and expression levels, and -seed
// draws the reads. A transcriptome of a few dozen genes differs from the
// next seed's by a third in contigs, allocation and stage shares, which
// is the generator's variance and not the assembler's; with the organism
// fixed, two seeds are two sequencing runs of one sample, so the work is
// alike and no read is the same.
const transcriptomeSeed = 1

// dataset is one workload run's input and the truth it is checked
// against. The program under test receives only Reads.
type dataset struct {
	Reads     []seq.Record
	Reference []rnaseq.Transcript
}

// generate builds the workload's transcriptome with internal/rnaseq and
// samples p.Reads reads from it with a generator seeded by seed.
func generate(p rnaseq.Profile, seed int64) *dataset {
	n := p.Reads
	p.Seed, p.Reads = transcriptomeSeed, 1
	org := rnaseq.Generate(p)
	return &dataset{
		Reads:     sampleReads(rand.New(rand.NewSource(seed)), org, n),
		Reference: org.Reference,
	}
}

// sampleReads draws n reads from org's isoforms the way rnaseq's own
// simulator does: an isoform is picked with weight expression x length,
// a read is a uniformly placed window with substitution errors, and
// PairedFrac of the draws yield a mate pair (the right mate
// reverse-complemented) an insert apart. org.Profile carries the
// defaults rnaseq.Generate filled in.
func sampleReads(rng *rand.Rand, org *rnaseq.Dataset, n int) []seq.Record {
	p := org.Profile
	var from []*rnaseq.Transcript // isoforms long enough to hold a read
	var cum []float64
	total := 0.0
	for i := range org.Reference {
		if tr := &org.Reference[i]; len(tr.Seq) >= p.ReadLen {
			total += org.Expression[tr.Gene] * float64(len(tr.Seq))
			from, cum = append(from, tr), append(cum, total)
		}
	}
	read := func(window []byte, revcomp bool) []byte {
		r := append([]byte(nil), window...)
		if revcomp {
			seq.ReverseComplementInPlace(r)
		}
		for i := range r {
			if rng.Float64() < p.ErrorRate {
				r[i] = "ACGT"[rng.Intn(4)]
			}
		}
		return r
	}
	reads := make([]seq.Record, 0, n)
	for id := 0; len(reads) < n; id++ {
		tr := from[min(sort.SearchFloat64s(cum, rng.Float64()*total), len(from)-1)].Seq
		if rng.Float64() >= p.PairedFrac || len(reads)+2 > n {
			start := rng.Intn(len(tr) - p.ReadLen + 1)
			reads = append(reads, seq.Record{ID: fmt.Sprintf("read%d", id), Seq: read(tr[start:start+p.ReadLen], false)})
			continue
		}
		insert := p.InsertMean + int(rng.NormFloat64()*float64(p.InsertSD))
		insert = min(max(insert, p.ReadLen), len(tr))
		start := rng.Intn(len(tr) - insert + 1)
		end := start + insert
		reads = append(reads,
			seq.Record{ID: fmt.Sprintf("read%d/1", id), Seq: read(tr[start:start+p.ReadLen], false)},
			seq.Record{ID: fmt.Sprintf("read%d/2", id), Seq: read(tr[end-p.ReadLen:end], true)})
	}
	return reads
}
