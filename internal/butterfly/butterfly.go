// Package butterfly implements the final Trinity stage: it
// reconstructs plausible full-length linear transcripts from the
// per-component de Bruijn graphs produced by Chrysalis, reconciling
// graph structure with read coverage. Each component can yield several
// transcripts, which "in most cases will correspond to alternative
// splicing of the gene product" (§II-A).
package butterfly

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"

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
	if workers <= 0 {
		workers = omp.DefaultThreads()
	}
	walkers := make([]walker, min(workers, len(graphs))) // one per pool thread
	for i := range walkers {
		walkers[i].opt = opt
	}
	perComp := make([][]Transcript, len(graphs))
	prof := omp.ParallelForProfiled(len(graphs), workers, omp.Schedule{Kind: omp.Dynamic},
		func(p, tid int) {
			i := order[p]
			perComp[i] = walkers[tid].componentTranscripts(graphs[i])
		})
	return slices.Concat(perComp...), prof
}

// walker is one pool thread's working memory, reused across the
// components it reconstructs: the cleaning and compaction scratch, the
// per-unitig arrays, the path buffer and the dedup set grow to the
// largest component the thread has met, so a component allocates its
// unitig graph, its emitted paths and its transcripts — not per DFS
// step.
type walker struct {
	opt     Options // normalized
	scratch dbg.Scratch
	c       *dbg.Compacted
	bucket  []int  // unitig id → coverage bucket
	visited []bool // unitig id → on the current path; all false between walks
	sources []int
	buf     []byte // the current path's sequence
	rc      []byte // a path's reverse complement, for dedup
	seen    map[string]bool
	paths   []path
}

// componentTranscripts enumerates one component's transcripts — the
// per-component body of ReconstructParallel.
func (w *walker) componentTranscripts(cg *chrysalis.ComponentGraph) []Transcript {
	if w.opt.CleanGraph {
		cg.Graph.ClipTipsWith(&w.scratch, 0, 0.2)
		cg.Graph.PopBubblesWith(&w.scratch, 0, 0.2)
	}
	paths := w.reconstructComponent(cg.Graph)
	var out []Transcript
	for i, p := range paths {
		if w.opt.MinTranscriptLen > 0 && len(p.seq) < w.opt.MinTranscriptLen {
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
// source→sink unitig paths, pruning weak branches. The returned slice
// is w's and is overwritten by the next call.
func (w *walker) reconstructComponent(g *dbg.Graph) []path {
	if g.NodeCount() == 0 {
		return nil
	}
	w.c = g.CompactWith(&w.scratch)
	n := len(w.c.Unitigs)
	w.bucket = slices.Grow(w.bucket[:0], n)[:n]
	for u := range w.bucket {
		w.bucket[u] = int(math.Log(w.c.Unitigs[u].Coverage+1) / math.Log(1.15))
	}
	w.visited = slices.Grow(w.visited[:0], n)[:n]
	clear(w.visited)
	sources := w.c.AppendSources(w.sources[:0])
	if len(sources) == 0 {
		// Pure cycle: start from every unitig, the depth cap terminates.
		for u := range w.c.Unitigs {
			sources = append(sources, u)
		}
	}
	w.sources = sources
	// Strongest sources first so the cap keeps the best-supported
	// paths. The ids are distinct, so each source is walked once.
	w.sortByCoverage(sources)
	w.paths = w.paths[:0]
	for _, s := range sources {
		w.walk(s, 0, 0, 0)
		if len(w.paths) >= w.opt.MaxPathsPerComponent {
			break
		}
	}
	// Deduplicate identical sequences (diamond motifs can repeat) and
	// reverse-complement duplicates: the strand-specific contigs of one
	// transcript yield the same isoform in both orientations once the
	// component welds the strands together, and only one is reported
	// (Trinity's double-stranded mode).
	if w.seen == nil {
		w.seen = map[string]bool{}
	}
	clear(w.seen)
	uniq := w.paths[:0]
	for _, p := range w.paths {
		w.rc = append(w.rc[:0], p.seq...)
		seq.ReverseComplementInPlace(w.rc)
		canon := p.seq
		if bytes.Compare(w.rc, canon) < 0 {
			canon = w.rc
		}
		if w.seen[string(canon)] {
			continue
		}
		w.seen[string(canon)] = true
		uniq = append(uniq, p)
	}
	slices.SortFunc(uniq, func(a, b path) int {
		if len(a.seq) != len(b.seq) {
			return len(b.seq) - len(a.seq)
		}
		return bytes.Compare(a.seq, b.seq)
	})
	return uniq
}

// walk extends the current path (w.buf) by unitig u and recurses into
// its successors passing the coverage filters, strongest first; a path
// that cannot be extended is emitted. w.buf is restored on return, so
// one buffer serves the whole DFS and only emitted paths are copied.
func (w *walker) walk(u int, covSum float64, covN, depth int) {
	if len(w.paths) >= w.opt.MaxPathsPerComponent || depth > w.opt.MaxDepth {
		return
	}
	unit := &w.c.Unitigs[u]
	n0 := len(w.buf)
	if n0 == 0 {
		w.buf = append(w.buf, unit.Seq...)
	} else if len(unit.Seq) >= w.c.K-1 {
		w.buf = append(w.buf, unit.Seq[w.c.K-1:]...) // (k-1)-overlap merge
	}
	covSum += unit.Coverage
	covN++
	// A unitig has at most four successors, one per base.
	var next [4]int
	nexts := next[:0]
	bestCov := 0.0
	for _, s := range unit.Out {
		if w.visited[s] {
			continue
		}
		if cv := w.c.Unitigs[s].Coverage; cv > bestCov {
			bestCov = cv
		}
	}
	for _, s := range unit.Out {
		if w.visited[s] {
			continue
		}
		cv := w.c.Unitigs[s].Coverage
		if cv < w.opt.MinCoverage || cv < bestCov*w.opt.MinCoverageFrac {
			continue
		}
		nexts = append(nexts, s)
	}
	w.sortByCoverage(nexts)
	if len(nexts) == 0 {
		w.paths = append(w.paths, path{seq: slices.Clone(w.buf), coverage: covSum / float64(covN)})
	} else {
		w.visited[u] = true
		for _, s := range nexts {
			w.walk(s, covSum, covN, depth+1)
			if len(w.paths) >= w.opt.MaxPathsPerComponent {
				break
			}
		}
		w.visited[u] = false
	}
	w.buf = w.buf[:n0]
}

// sortByCoverage orders unitig ids by decreasing coverage bucket
// (~15%-wide logarithmic buckets, w.bucket), breaking ties within a
// bucket by id when the seed is 0 or by a seed-keyed hash otherwise,
// then by id — a total order, so any sort yields the same sequence.
func (w *walker) sortByCoverage(ids []int) {
	seed := uint64(w.opt.Seed)
	slices.SortFunc(ids, func(a, b int) int {
		if ba, bb := w.bucket[a], w.bucket[b]; ba != bb {
			return cmp.Compare(bb, ba)
		}
		if seed != 0 {
			if ka, kb := tieKey(a, seed), tieKey(b, seed); ka != kb {
				return cmp.Compare(ka, kb)
			}
		}
		return cmp.Compare(a, b)
	})
}

// tieKey is the seed-keyed hash that orders unitigs within a coverage
// bucket.
func tieKey(u int, seed uint64) uint64 {
	h := seed*0x9e3779b97f4a7c15 + uint64(u)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	return h ^ h>>29
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
