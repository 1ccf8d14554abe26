// Package dbg implements the de Bruijn graphs that Chrysalis builds
// for each clustered component (the FastaToDebruijn sub-step) and that
// Butterfly later traverses. Nodes are k-mers; an edge connects two
// k-mers with a (k-1)-base overlap. Coverage counts how many input
// sequences (contigs or reads) supported each node.
package dbg

import (
	"fmt"
	"math/bits"
	"slices"

	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// Graph is a de Bruijn graph over k-mers, held as flat tables: nodes
// gives each k-mer a dense id and every per-node field is an array
// indexed by it. An edge bit is set on both of its ends and cleared on
// both when a node is deleted, so a node's degree is the popcount of
// its four out (or in) bits and a set bit always names a live node.
type Graph struct {
	K        int
	nodes    *kmer.FlatSet
	kmers    []kmer.Kmer // id → k-mer
	coverage []uint32
	edges    []uint8  // bit c: edge to AppendBase(c); bit 4+c: edge from PrependBase(c)
	dead     []uint64 // bitmap of deleted ids; nil until the first deleteNode
	live     int
}

// New creates an empty graph for the given k.
func New(k int) (*Graph, error) { return NewSized(k, 0) }

// NewSized is New with room for about nodes k-mers, so that a caller
// who knows its input's size (the bases it is about to thread) spares
// the tables their doubling.
func NewSized(k, nodes int) (*Graph, error) {
	if k <= 1 || k > kmer.MaxK {
		return nil, fmt.Errorf("dbg: k=%d out of range 2..%d", k, kmer.MaxK)
	}
	return &Graph{
		K:        k,
		nodes:    kmer.NewFlatSet(nodes),
		kmers:    make([]kmer.Kmer, 0, nodes),
		coverage: make([]uint32, 0, nodes),
		edges:    make([]uint8, 0, nodes),
	}, nil
}

// AddSequence threads s through the graph, creating nodes for every
// k-mer and edges between consecutive k-mers, adding `weight` coverage
// to each node. Ambiguous bases break the thread.
func (g *Graph) AddSequence(s []byte, weight uint32) {
	it := kmer.NewIterator(s, g.K)
	var prev kmer.Kmer
	prevID, prevPos := int32(-1), -2
	for {
		m, pos, ok := it.Next()
		if !ok {
			return
		}
		// A sequence that follows one already threaded (a read along a
		// contig) meets its k-mers at consecutive ids: ids are unique per
		// k-mer, so a match at prevID+1 is the id Add would return.
		var id int32
		if next := prevID + 1; pos == prevPos+1 && int(next) < len(g.kmers) && g.kmers[next] == m {
			id = next
		} else {
			id = g.nodes.Add(m)
		}
		switch {
		case int(id) == len(g.kmers):
			g.kmers = append(g.kmers, m)
			g.coverage = append(g.coverage, 0)
			g.edges = append(g.edges, 0)
			g.live++
		case g.isDead(id): // a deleted k-mer seen again starts afresh
			g.dead[id>>6] &^= 1 << (uint(id) & 63)
			g.coverage[id], g.edges[id] = 0, 0
			g.live++
		}
		g.coverage[id] += weight
		if prevID >= 0 && pos == prevPos+1 {
			g.edges[prevID] |= 1 << m.LastBase()
			g.edges[id] |= 16 << prev.FirstBase(g.K)
		}
		prev, prevID, prevPos = m, id, pos
	}
}

func (g *Graph) isDead(id int32) bool {
	return int(id>>6) < len(g.dead) && g.dead[id>>6]&(1<<(uint(id)&63)) != 0
}

// lookup returns the id of a live node.
func (g *Graph) lookup(m kmer.Kmer) (int32, bool) {
	id, ok := g.nodes.Lookup(m)
	return id, ok && !g.isDead(id)
}

// NodeCount returns the number of distinct k-mer nodes.
func (g *Graph) NodeCount() int { return g.live }

// Coverage returns the coverage of a k-mer node (0 if absent).
func (g *Graph) Coverage(m kmer.Kmer) uint32 {
	if id, ok := g.lookup(m); ok {
		return g.coverage[id]
	}
	return 0
}

// outDegree and inDegree count a live node's edges.
func (g *Graph) outDegree(id int32) int { return bits.OnesCount8(g.edges[id] & 15) }
func (g *Graph) inDegree(id int32) int  { return bits.OnesCount8(g.edges[id] >> 4) }

// neighbours returns the ids of a live node's successors (fwd) or
// predecessors in base order — the allocation-free form every walk
// inside the package uses.
func (g *Graph) neighbours(id int32, fwd bool) (ids [4]int32, n int) {
	m, e := g.kmers[id], g.edges[id]
	if !fwd {
		e >>= 4
	}
	for code := uint64(0); code < 4; code++ {
		if e&(1<<code) == 0 {
			continue
		}
		// A sequence's consecutive k-mers usually got consecutive ids:
		// try the adjacent id before the hash probe.
		next, nid := m.PrependBase(code, g.K), id-1
		if fwd {
			next, nid = m.AppendBase(code, g.K), id+1
		}
		if nid < 0 || int(nid) >= len(g.kmers) || g.kmers[nid] != next {
			var ok bool
			if nid, ok = g.nodes.Lookup(next); !ok {
				continue
			}
		}
		ids[n] = nid
		n++
	}
	return ids, n
}

func (g *Graph) neighbourKmers(m kmer.Kmer, fwd bool) []kmer.Kmer {
	id, ok := g.lookup(m)
	if !ok {
		return nil
	}
	var out []kmer.Kmer
	ids, n := g.neighbours(id, fwd)
	for _, nid := range ids[:n] {
		out = append(out, g.kmers[nid])
	}
	return out
}

// Successors returns the existing successor k-mers of m.
func (g *Graph) Successors(m kmer.Kmer) []kmer.Kmer { return g.neighbourKmers(m, true) }

// Predecessors returns the existing predecessor k-mers of m.
func (g *Graph) Predecessors(m kmer.Kmer) []kmer.Kmer { return g.neighbourKmers(m, false) }

// OutDegree returns the number of successor edges of m.
func (g *Graph) OutDegree(m kmer.Kmer) int { return len(g.Successors(m)) }

// InDegree returns the number of predecessor edges of m.
func (g *Graph) InDegree(m kmer.Kmer) int { return len(g.Predecessors(m)) }

// Nodes returns all k-mer nodes in deterministic (sorted) order.
func (g *Graph) Nodes() []kmer.Kmer {
	out := make([]kmer.Kmer, 0, g.live)
	for id, m := range g.kmers {
		if !g.isDead(int32(id)) {
			out = append(out, m)
		}
	}
	slices.Sort(out)
	return out
}

// sortedIDs returns the live node ids in increasing k-mer order: the
// k-mers sorted as plain words, then looked up — cheaper than sorting
// ids through a comparison that chases each id to its k-mer.
func (g *Graph) sortedIDs() []int32 {
	nodes := g.Nodes()
	ids := make([]int32, len(nodes))
	for i, m := range nodes {
		ids[i], _ = g.nodes.Lookup(m)
	}
	return ids
}

// Unitig is a maximal unbranched path, the unit Butterfly traverses.
type Unitig struct {
	ID       int
	Seq      []byte
	Coverage float64 // mean node coverage along the path
	Out      []int   // successor unitig ids
	In       []int   // predecessor unitig ids
	first    int32   // node ids of the path's end k-mers
	last     int32
}

// Compacted is the unitig graph produced by Compact.
type Compacted struct {
	K       int
	Unitigs []Unitig
}

// Compact collapses every maximal linear chain of the graph into a
// unitig and connects unitigs by the original k-mer edges. Unitigs are
// numbered in the order their first k-mers sort — chain starts first,
// then perfect cycles — and each Out lists successors in base order:
// Butterfly breaks coverage ties by unitig id, so this numbering is
// part of the output.
func (g *Graph) Compact() *Compacted {
	c := &Compacted{K: g.K}
	order := g.sortedIDs()               // sorted once: both passes below walk it
	owner := make([]int32, len(g.kmers)) // node id → unitig id, -1 until visited
	for i := range owner {
		owner[i] = -1
	}
	build := func(start int32) {
		if owner[start] >= 0 {
			return
		}
		u := Unitig{ID: len(c.Unitigs), first: start}
		var covSum float64
		covN := 0
		id := start
		u.Seq = g.kmers[start].AppendDecode(make([]byte, 0, g.K), g.K)
		for {
			owner[id] = int32(u.ID)
			covSum += float64(g.coverage[id])
			covN++
			if g.outDegree(id) != 1 {
				break
			}
			// next continues the chain only if id is its sole predecessor.
			succs, _ := g.neighbours(id, true)
			next := succs[0]
			if owner[next] >= 0 || g.inDegree(next) != 1 {
				break
			}
			id = next
			u.Seq = append(u.Seq, seq.IndexBase(g.kmers[id].LastBase()))
		}
		u.last = id
		u.Coverage = covSum / float64(covN)
		c.Unitigs = append(c.Unitigs, u)
	}
	// A unitig starts at any node that is not the linear continuation
	// of exactly one predecessor.
	for _, id := range order {
		if g.inDegree(id) == 1 {
			if preds, _ := g.neighbours(id, false); g.outDegree(preds[0]) == 1 {
				continue
			}
		}
		build(id)
	}
	// Remaining unvisited nodes belong to perfect cycles; break each at
	// its smallest k-mer.
	for _, id := range order {
		build(id)
	}

	// Wire unitig adjacency through the boundary k-mers.
	for i := range c.Unitigs {
		u := &c.Unitigs[i]
		succs, n := g.neighbours(u.last, true)
		for _, succ := range succs[:n] {
			if o := int(owner[succ]); o != u.ID || succ == u.first {
				u.Out = append(u.Out, o)
			}
		}
	}
	for i := range c.Unitigs {
		for _, o := range c.Unitigs[i].Out {
			c.Unitigs[o].In = append(c.Unitigs[o].In, i)
		}
	}
	return c
}

// Sources returns unitig ids with no predecessors.
func (c *Compacted) Sources() []int {
	var out []int
	for i := range c.Unitigs {
		if len(c.Unitigs[i].In) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// TotalBases returns the summed unitig lengths.
func (c *Compacted) TotalBases() int {
	n := 0
	for i := range c.Unitigs {
		n += len(c.Unitigs[i].Seq)
	}
	return n
}
