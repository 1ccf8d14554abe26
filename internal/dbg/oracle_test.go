package dbg

// The map implementation this package ran on until the k-mer spine
// moved to kmer.FlatSet ids and dense arrays — one heap node per k-mer
// in a Go map, a fresh slice from every Successors/Predecessors call,
// two more maps in Compact — kept verbatim (types renamed) as the
// oracle the flat graph is compared against in spine_test.go.

import (
	"sort"

	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

// mapGraph is the map-of-pointer-nodes de Bruijn graph.
type mapGraph struct {
	K     int
	nodes map[kmer.Kmer]*mapNode
}

type mapNode struct {
	coverage uint32
	out      [4]bool // which of the 4 successor edges exist
	in       [4]bool // which of the 4 predecessor edges exist
}

func newMapGraph(k int) *mapGraph {
	return &mapGraph{K: k, nodes: make(map[kmer.Kmer]*mapNode)}
}

// AddSequence threads s through the graph, creating nodes for every
// k-mer and edges between consecutive k-mers, adding `weight` coverage
// to each node. Ambiguous bases break the thread.
func (g *mapGraph) AddSequence(s []byte, weight uint32) {
	it := kmer.NewIterator(s, g.K)
	var prev kmer.Kmer
	hasPrev := false
	prevPos := -2
	for {
		m, pos, ok := it.Next()
		if !ok {
			return
		}
		n := g.getOrCreate(m)
		n.coverage += weight
		if hasPrev && pos == prevPos+1 {
			g.nodes[prev].out[m.LastBase()] = true
			n.in[prev.FirstBase(g.K)] = true
		}
		prev, prevPos, hasPrev = m, pos, true
	}
}

func (g *mapGraph) getOrCreate(m kmer.Kmer) *mapNode {
	if n, ok := g.nodes[m]; ok {
		return n
	}
	n := &mapNode{}
	g.nodes[m] = n
	return n
}

// NodeCount returns the number of distinct k-mer nodes.
func (g *mapGraph) NodeCount() int { return len(g.nodes) }

// Coverage returns the coverage of a k-mer node (0 if absent).
func (g *mapGraph) Coverage(m kmer.Kmer) uint32 {
	if n, ok := g.nodes[m]; ok {
		return n.coverage
	}
	return 0
}

// Successors returns the existing successor k-mers of m.
func (g *mapGraph) Successors(m kmer.Kmer) []kmer.Kmer {
	n, ok := g.nodes[m]
	if !ok {
		return nil
	}
	var out []kmer.Kmer
	for code := uint64(0); code < 4; code++ {
		if n.out[code] {
			next := m.AppendBase(code, g.K)
			if _, exists := g.nodes[next]; exists {
				out = append(out, next)
			}
		}
	}
	return out
}

// Predecessors returns the existing predecessor k-mers of m.
func (g *mapGraph) Predecessors(m kmer.Kmer) []kmer.Kmer {
	n, ok := g.nodes[m]
	if !ok {
		return nil
	}
	var out []kmer.Kmer
	for code := uint64(0); code < 4; code++ {
		if n.in[code] {
			prev := m.PrependBase(code, g.K)
			if _, exists := g.nodes[prev]; exists {
				out = append(out, prev)
			}
		}
	}
	return out
}

// OutDegree returns the number of successor edges of m.
func (g *mapGraph) OutDegree(m kmer.Kmer) int { return len(g.Successors(m)) }

// InDegree returns the number of predecessor edges of m.
func (g *mapGraph) InDegree(m kmer.Kmer) int { return len(g.Predecessors(m)) }

// Nodes returns all k-mer nodes in deterministic (sorted) order.
func (g *mapGraph) Nodes() []kmer.Kmer {
	out := make([]kmer.Kmer, 0, len(g.nodes))
	for m := range g.nodes {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mapUnitig is a maximal unbranched path, the unit Butterfly traverses.
type mapUnitig struct {
	ID       int
	Seq      []byte
	Coverage float64 // mean node coverage along the path
	Out      []int   // successor unitig ids
	In       []int   // predecessor unitig ids
	first    kmer.Kmer
	last     kmer.Kmer
}

// mapCompacted is the unitig graph produced by Compact.
type mapCompacted struct {
	K       int
	Unitigs []mapUnitig
}

// Compact collapses every maximal linear chain of the graph into a
// unitig and connects unitigs by the original k-mer edges.
func (g *mapGraph) Compact() *mapCompacted {
	c := &mapCompacted{K: g.K}
	owner := make(map[kmer.Kmer]int) // k-mer -> unitig id

	// A unitig starts at any node that is not the linear continuation
	// of exactly one predecessor.
	starts := make([]kmer.Kmer, 0)
	for _, m := range g.Nodes() {
		preds := g.Predecessors(m)
		if len(preds) != 1 || g.OutDegree(preds[0]) != 1 {
			starts = append(starts, m)
		}
	}
	visited := make(map[kmer.Kmer]bool)
	build := func(start kmer.Kmer) {
		if visited[start] {
			return
		}
		id := len(c.Unitigs)
		u := mapUnitig{ID: id, first: start}
		var covSum float64
		covN := 0
		m := start
		u.Seq = append(u.Seq, []byte(m.Decode(g.K))...)
		for {
			visited[m] = true
			owner[m] = id
			covSum += float64(g.Coverage(m))
			covN++
			succs := g.Successors(m)
			if len(succs) != 1 {
				break
			}
			// next continues the chain only if m is its sole predecessor.
			next := succs[0]
			if visited[next] || len(g.Predecessors(next)) != 1 {
				break
			}
			m = next
			u.Seq = append(u.Seq, seq.IndexBase(m.LastBase()))
		}
		u.last = m
		u.Coverage = covSum / float64(covN)
		c.Unitigs = append(c.Unitigs, u)
	}
	for _, s := range starts {
		build(s)
	}
	// Remaining unvisited nodes belong to perfect cycles; break each at
	// its smallest k-mer.
	for _, m := range g.Nodes() {
		if !visited[m] {
			build(m)
		}
	}

	// Wire unitig adjacency through the boundary k-mers.
	for i := range c.Unitigs {
		u := &c.Unitigs[i]
		for _, succ := range g.Successors(u.last) {
			if o, ok := owner[succ]; ok && (o != u.ID || succ == u.first) {
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

// deleteNode removes m and detaches it from its neighbors' edge flags.
func (g *mapGraph) deleteNode(m kmer.Kmer) {
	n, ok := g.nodes[m]
	if !ok {
		return
	}
	for code := uint64(0); code < 4; code++ {
		if n.in[code] {
			prev := m.PrependBase(code, g.K)
			if pn, ok := g.nodes[prev]; ok {
				pn.out[m.LastBase()] = false
			}
		}
		if n.out[code] {
			next := m.AppendBase(code, g.K)
			if nn, ok := g.nodes[next]; ok {
				nn.in[m.FirstBase(g.K)] = false
			}
		}
	}
	delete(g.nodes, m)
}

// chainFrom walks a linear chain starting at m in the given direction
// (fwd: successors) while degrees stay 1, up to maxLen nodes. It
// returns the chain and whether it dead-ends (tip) within the limit.
func (g *mapGraph) chainFrom(m kmer.Kmer, fwd bool, maxLen int) (chain []kmer.Kmer, deadEnd bool) {
	cur := m
	for len(chain) < maxLen {
		chain = append(chain, cur)
		var nexts []kmer.Kmer
		if fwd {
			nexts = g.Successors(cur)
		} else {
			nexts = g.Predecessors(cur)
		}
		if len(nexts) == 0 {
			return chain, true
		}
		if len(nexts) != 1 {
			return chain, false // reached a junction: not a tip end
		}
		var degIn int
		if fwd {
			degIn = g.InDegree(nexts[0])
		} else {
			degIn = g.OutDegree(nexts[0])
		}
		if degIn != 1 {
			return chain, false // next node is a junction
		}
		cur = nexts[0]
	}
	return chain, false
}

// ClipTips removes dead-end chains of at most maxLen nodes whose mean
// coverage is below covFrac of the junction node they hang off.
// It returns the number of nodes removed, iterating to a fixed point.
func (g *mapGraph) ClipTips(maxLen int, covFrac float64) int {
	if maxLen <= 0 {
		maxLen = 2 * g.K
	}
	removed := 0
	for {
		clippedThisRound := 0
		for _, m := range g.Nodes() {
			if _, ok := g.nodes[m]; !ok {
				continue // already removed this round
			}
			// A tip starts where the chain has no continuation on one
			// side and hangs off a junction on the other.
			var chain []kmer.Kmer
			var junction kmer.Kmer
			var haveJunction bool
			switch {
			case g.InDegree(m) == 0 && g.OutDegree(m) <= 1:
				c, _ := g.chainFrom(m, true, maxLen)
				chain = c
				if len(c) > 0 {
					if succs := g.Successors(c[len(c)-1]); len(succs) == 1 {
						junction, haveJunction = succs[0], true
					}
				}
			case g.OutDegree(m) == 0 && g.InDegree(m) <= 1:
				c, _ := g.chainFrom(m, false, maxLen)
				chain = c
				if len(c) > 0 {
					if preds := g.Predecessors(c[len(c)-1]); len(preds) == 1 {
						junction, haveJunction = preds[0], true
					}
				}
			default:
				continue
			}
			if len(chain) == 0 || len(chain) >= maxLen {
				continue // too long to be an error artifact
			}
			if !haveJunction {
				continue // an isolated linear component, not a tip
			}
			var covSum float64
			for _, cm := range chain {
				covSum += float64(g.Coverage(cm))
			}
			mean := covSum / float64(len(chain))
			if mean >= covFrac*float64(g.Coverage(junction)) {
				continue // well-supported: likely a real transcript end
			}
			for _, cm := range chain {
				g.deleteNode(cm)
			}
			clippedThisRound += len(chain)
		}
		removed += clippedThisRound
		if clippedThisRound == 0 {
			return removed
		}
	}
}

// PopBubbles collapses two-arm bubbles: when a junction forks into
// exactly two linear arms of at most maxLen nodes that reconverge at
// the same node, the weaker arm is removed if its mean coverage is
// below covFrac of the stronger's. Returns nodes removed.
func (g *mapGraph) PopBubbles(maxLen int, covFrac float64) int {
	if maxLen <= 0 {
		maxLen = 2 * g.K
	}
	removed := 0
	for _, m := range g.Nodes() {
		if _, ok := g.nodes[m]; !ok {
			continue
		}
		succs := g.Successors(m)
		if len(succs) != 2 {
			continue
		}
		armA, endA, okA := g.linearArm(succs[0], maxLen)
		armB, endB, okB := g.linearArm(succs[1], maxLen)
		if !okA || !okB || endA != endB {
			continue
		}
		covA := mapMeanCoverage(g, armA)
		covB := mapMeanCoverage(g, armB)
		weak, strongCov := armA, covB
		weakCov := covA
		if covB < covA {
			weak, strongCov = armB, covA
			weakCov = covB
		}
		if weakCov >= covFrac*strongCov {
			continue // both arms well supported: a real isoform bubble
		}
		for _, cm := range weak {
			g.deleteNode(cm)
		}
		removed += len(weak)
	}
	return removed
}

// linearArm follows a strictly linear run from start until the first
// node with in-degree > 1 (the reconvergence point), returning the arm
// nodes (excluding that point).
func (g *mapGraph) linearArm(start kmer.Kmer, maxLen int) (arm []kmer.Kmer, end kmer.Kmer, ok bool) {
	cur := start
	for steps := 0; steps < maxLen; steps++ {
		if g.InDegree(cur) > 1 {
			return arm, cur, len(arm) > 0
		}
		arm = append(arm, cur)
		succs := g.Successors(cur)
		if len(succs) != 1 {
			return nil, 0, false
		}
		cur = succs[0]
	}
	return nil, 0, false
}

func mapMeanCoverage(g *mapGraph, nodes []kmer.Kmer) float64 {
	if len(nodes) == 0 {
		return 0
	}
	var sum float64
	for _, m := range nodes {
		sum += float64(g.Coverage(m))
	}
	return sum / float64(len(nodes))
}
