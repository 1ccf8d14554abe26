// Package butterfly implements the final Trinity stage: it
// reconstructs plausible full-length linear transcripts from the
// per-component de Bruijn graphs produced by Chrysalis, reconciling
// graph structure with read coverage. Each component can yield several
// transcripts, which "in most cases will correspond to alternative
// splicing of the gene product" (§II-A).
package butterfly

import (
	"fmt"
	"math"
	"sort"

	"gotrinity/internal/chrysalis"
	"gotrinity/internal/dbg"
	"gotrinity/internal/omp"
	"gotrinity/internal/seq"
)

// Options bounds the path enumeration.
type Options struct {
	MaxPathsPerComponent int     // transcripts reported per component (default 10)
	MaxDepth             int     // unitig steps per path, cycle guard (default 64)
	MinTranscriptLen     int     // shortest transcript to report (default 2k)
	MinCoverage          float64 // absolute unitig coverage floor (default 1)
	MinCoverageFrac      float64 // branch pruned if below this fraction of the best sibling (default 0.05)

	// CleanGraph runs tip clipping and bubble popping on each
	// component graph before path enumeration, removing
	// sequencing-error artifacts (the pruning real Butterfly performs
	// internally). The graphs are modified in place.
	CleanGraph bool

	// Seed perturbs the traversal order among branches of similar
	// coverage (within one ~15% bucket). When the path cap binds, the
	// reported isoform subset therefore varies from run to run — the
	// "slightly indeterministic output" of real Trinity (§IV of the
	// paper), whose Butterfly scores tie-break unstably under
	// threading. Seed 0 keeps a fixed deterministic order.
	Seed int64
}

func (o *Options) normalize() {
	if o.MaxPathsPerComponent <= 0 {
		o.MaxPathsPerComponent = 10
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 64
	}
	if o.MinCoverage <= 0 {
		o.MinCoverage = 1
	}
	if o.MinCoverageFrac <= 0 {
		o.MinCoverageFrac = 0.05
	}
}

// Transcript is one reconstructed isoform.
type Transcript struct {
	Component int
	Index     int
	ID        string // "compC_seqN", Trinity-style
	Seq       []byte
	Coverage  float64 // mean coverage along the path
}

// ReconstructParallel enumerates transcripts with a bounded worker
// pool, one component per work item. Components run largest first (LPT
// order over graph nodes plus assigned reads) under a dynamic schedule,
// and each component's transcripts land in a pre-sized slice cell, so
// the flattened output is byte-identical to Reconstruct for any worker
// count — path enumeration never looks outside its own component. The
// profile reports how the pool's threads loaded.
func ReconstructParallel(graphs []*chrysalis.ComponentGraph, opt Options, workers int) ([]Transcript, omp.Profile) {
	opt.normalize()
	order := omp.LPTOrder(len(graphs), func(i int) float64 {
		return float64(graphs[i].Graph.NodeCount() + len(graphs[i].Reads))
	})
	perComp := make([][]Transcript, len(graphs))
	prof := omp.ParallelForProfiled(len(graphs), workers, omp.Schedule{Kind: omp.Dynamic},
		func(p, tid int) {
			i := order[p]
			perComp[i] = componentTranscripts(graphs[i], opt)
		})
	var out []Transcript
	for _, ts := range perComp {
		out = append(out, ts...)
	}
	return out, prof
}

// componentTranscripts enumerates one component's transcripts — the
// shared per-component body of Reconstruct and ReconstructParallel.
// opt must already be normalized.
func componentTranscripts(cg *chrysalis.ComponentGraph, opt Options) []Transcript {
	if opt.CleanGraph {
		cg.Graph.ClipTips(0, 0.2)
		cg.Graph.PopBubbles(0, 0.2)
	}
	paths := reconstructComponent(cg.Graph, opt)
	var out []Transcript
	for i, p := range paths {
		if opt.MinTranscriptLen > 0 && len(p.seq) < opt.MinTranscriptLen {
			continue
		}
		out = append(out, Transcript{
			Component: cg.Component.ID,
			Index:     i,
			ID:        fmt.Sprintf("comp%d_seq%d", cg.Component.ID, i),
			Seq:       p.seq,
			Coverage:  p.coverage,
		})
	}
	return out
}

type path struct {
	seq      []byte
	coverage float64
}

// reconstructComponent compacts one graph and DFS-enumerates
// source→sink unitig paths, pruning weak branches.
func reconstructComponent(g *dbg.Graph, opt Options) []path {
	if g.NodeCount() == 0 {
		return nil
	}
	c := g.Compact()
	sources := c.Sources()
	if len(sources) == 0 {
		// Pure cycle: start from every unitig, the depth cap terminates.
		for i := range c.Unitigs {
			sources = append(sources, i)
		}
	}
	var paths []path
	var walk func(u int, soFar []byte, covSum float64, covN int, depth int, visited map[int]bool)
	walk = func(u int, soFar []byte, covSum float64, covN int, depth int, visited map[int]bool) {
		if len(paths) >= opt.MaxPathsPerComponent || depth > opt.MaxDepth {
			return
		}
		unit := &c.Unitigs[u]
		var ext []byte
		if len(soFar) == 0 {
			ext = unit.Seq
		} else if len(unit.Seq) >= c.K-1 {
			ext = unit.Seq[c.K-1:] // (k-1)-overlap merge
		}
		cur := append(append([]byte(nil), soFar...), ext...)
		covSum += unit.Coverage
		covN++
		// Successors passing the coverage filters, strongest first.
		var nexts []int
		bestCov := 0.0
		for _, s := range unit.Out {
			if visited[s] {
				continue
			}
			if cv := c.Unitigs[s].Coverage; cv > bestCov {
				bestCov = cv
			}
		}
		for _, s := range unit.Out {
			if visited[s] {
				continue
			}
			cv := c.Unitigs[s].Coverage
			if cv < opt.MinCoverage || cv < bestCov*opt.MinCoverageFrac {
				continue
			}
			nexts = append(nexts, s)
		}
		sortByCoverage(nexts, c, opt.Seed)
		if len(nexts) == 0 {
			paths = append(paths, path{seq: cur, coverage: covSum / float64(covN)})
			return
		}
		visited[u] = true
		for _, s := range nexts {
			walk(s, cur, covSum, covN, depth+1, visited)
			if len(paths) >= opt.MaxPathsPerComponent {
				break
			}
		}
		delete(visited, u)
	}
	// Strongest sources first so the cap keeps the best-supported paths.
	sortByCoverage(sources, c, opt.Seed)
	seenStart := map[int]bool{}
	for _, s := range sources {
		if seenStart[s] {
			continue
		}
		seenStart[s] = true
		walk(s, nil, 0, 0, 0, map[int]bool{})
		if len(paths) >= opt.MaxPathsPerComponent {
			break
		}
	}
	// Deduplicate identical sequences (diamond motifs can repeat) and
	// reverse-complement duplicates: the strand-specific contigs of one
	// transcript yield the same isoform in both orientations once the
	// component welds the strands together, and only one is reported
	// (Trinity's double-stranded mode).
	uniq := paths[:0]
	seen := map[string]bool{}
	for _, p := range paths {
		canon := string(p.seq)
		if rc := string(seq.ReverseComplement(p.seq)); rc < canon {
			canon = rc
		}
		if seen[canon] {
			continue
		}
		seen[canon] = true
		uniq = append(uniq, p)
	}
	sort.Slice(uniq, func(i, j int) bool {
		if len(uniq[i].seq) != len(uniq[j].seq) {
			return len(uniq[i].seq) > len(uniq[j].seq)
		}
		return string(uniq[i].seq) < string(uniq[j].seq)
	})
	return uniq
}

// sortByCoverage orders unitig ids by decreasing coverage bucket
// (~15%-wide logarithmic buckets), breaking ties within a bucket by id
// when seed is 0 or by a seed-keyed hash otherwise.
func sortByCoverage(ids []int, c *dbg.Compacted, seed int64) {
	bucket := func(u int) int {
		return int(math.Log(c.Unitigs[u].Coverage+1) / math.Log(1.15))
	}
	key := func(u int) uint64 {
		if seed == 0 {
			return uint64(u)
		}
		h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(u)*0xbf58476d1ce4e5b9
		h ^= h >> 31
		h *= 0x94d049bb133111eb
		return h ^ h>>29
	}
	sort.Slice(ids, func(i, j int) bool {
		bi, bj := bucket(ids[i]), bucket(ids[j])
		if bi != bj {
			return bi > bj
		}
		ki, kj := key(ids[i]), key(ids[j])
		if ki != kj {
			return ki < kj
		}
		return ids[i] < ids[j]
	})
}

// Records converts transcripts to FASTA records.
func Records(ts []Transcript) []seq.Record {
	recs := make([]seq.Record, len(ts))
	for i, tr := range ts {
		recs[i] = seq.Record{
			ID:   tr.ID,
			Desc: fmt.Sprintf("len=%d cov=%.1f", len(tr.Seq), tr.Coverage),
			Seq:  tr.Seq,
		}
	}
	return recs
}
