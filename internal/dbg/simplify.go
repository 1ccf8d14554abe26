package dbg

import (
	"gotrinity/internal/kmer"
)

// Graph simplification: tip clipping and bubble popping, the standard
// cleanup passes that remove sequencing-error artifacts (dead-end
// spurs and low-coverage alternative arms) before path enumeration.
// Trinity applies equivalent pruning inside Butterfly; here they are
// optional passes the butterfly package can run per component.

// deleteNode removes m and detaches it from its neighbors' edge flags.
func (g *Graph) deleteNode(m kmer.Kmer) {
	if id, ok := g.lookup(m); ok {
		g.deleteID(id)
	}
}

func (g *Graph) deleteID(id int32) {
	m := g.kmers[id]
	preds, np := g.neighbours(id, false)
	for _, p := range preds[:np] {
		g.edges[p] &^= 1 << m.LastBase()
	}
	succs, ns := g.neighbours(id, true)
	for _, s := range succs[:ns] {
		g.edges[s] &^= 16 << m.FirstBase(g.K)
	}
	g.edges[id] = 0
	if g.dead == nil {
		g.dead = make([]uint64, (cap(g.kmers)+63)/64)
	}
	for int(id>>6) >= len(g.dead) {
		g.dead = append(g.dead, 0)
	}
	g.dead[id>>6] |= 1 << (uint(id) & 63)
	g.live--
}

// chainFrom walks a linear chain starting at id in the given direction
// (fwd: successors) while degrees stay 1, up to maxLen nodes, and
// returns the chain.
func (g *Graph) chainFrom(id int32, fwd bool, maxLen int) (chain []int32) {
	for len(chain) < maxLen {
		chain = append(chain, id)
		nexts, n := g.neighbours(id, fwd)
		// Stop at a dead end, at a junction, or before a next node that
		// is itself a junction.
		if n != 1 || (fwd && g.inDegree(nexts[0]) != 1) || (!fwd && g.outDegree(nexts[0]) != 1) {
			return chain
		}
		id = nexts[0]
	}
	return chain
}

// ClipTips removes dead-end chains of at most maxLen nodes whose mean
// coverage is below covFrac of the junction node they hang off.
// It returns the number of nodes removed, iterating to a fixed point.
func (g *Graph) ClipTips(maxLen int, covFrac float64) int {
	if maxLen <= 0 {
		maxLen = 2 * g.K
	}
	removed := 0
	for {
		clippedThisRound := 0
		for _, id := range g.sortedIDs() {
			if g.isDead(id) {
				continue // already removed this round
			}
			// A tip starts where the chain has no continuation on one
			// side and hangs off a junction on the other.
			var fwd bool
			switch {
			case g.inDegree(id) == 0 && g.outDegree(id) <= 1:
				fwd = true
			case g.outDegree(id) == 0 && g.inDegree(id) <= 1:
				fwd = false
			default:
				continue
			}
			chain := g.chainFrom(id, fwd, maxLen)
			if len(chain) >= maxLen {
				continue // too long to be an error artifact
			}
			ends, n := g.neighbours(chain[len(chain)-1], fwd)
			if n != 1 {
				continue // an isolated linear component, not a tip
			}
			if g.meanCoverage(chain) >= covFrac*float64(g.coverage[ends[0]]) {
				continue // well-supported: likely a real transcript end
			}
			for _, cid := range chain {
				g.deleteID(cid)
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
func (g *Graph) PopBubbles(maxLen int, covFrac float64) int {
	if maxLen <= 0 {
		maxLen = 2 * g.K
	}
	removed := 0
	for _, id := range g.sortedIDs() {
		if g.isDead(id) || g.outDegree(id) != 2 {
			continue
		}
		succs, _ := g.neighbours(id, true)
		armA, endA, okA := g.linearArm(succs[0], maxLen)
		armB, endB, okB := g.linearArm(succs[1], maxLen)
		if !okA || !okB || endA != endB {
			continue
		}
		covA := g.meanCoverage(armA)
		covB := g.meanCoverage(armB)
		weak, strongCov := armA, covB
		weakCov := covA
		if covB < covA {
			weak, strongCov = armB, covA
			weakCov = covB
		}
		if weakCov >= covFrac*strongCov {
			continue // both arms well supported: a real isoform bubble
		}
		for _, cid := range weak {
			g.deleteID(cid)
		}
		removed += len(weak)
	}
	return removed
}

// linearArm follows a strictly linear run from start until the first
// node with in-degree > 1 (the reconvergence point), returning the arm
// nodes (excluding that point).
func (g *Graph) linearArm(start int32, maxLen int) (arm []int32, end int32, ok bool) {
	cur := start
	for steps := 0; steps < maxLen; steps++ {
		if g.inDegree(cur) > 1 {
			return arm, cur, len(arm) > 0
		}
		arm = append(arm, cur)
		if g.outDegree(cur) != 1 {
			return nil, 0, false
		}
		succs, _ := g.neighbours(cur, true)
		cur = succs[0]
	}
	return nil, 0, false
}

func (g *Graph) meanCoverage(ids []int32) float64 {
	if len(ids) == 0 {
		return 0
	}
	var sum float64
	for _, id := range ids {
		sum += float64(g.coverage[id])
	}
	return sum / float64(len(ids))
}
