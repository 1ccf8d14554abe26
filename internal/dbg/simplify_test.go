package dbg

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func randSeq(rng *rand.Rand, n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = "ACGT"[rng.Intn(4)]
	}
	return string(s)
}

func TestClipTipsRemovesErrorSpur(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := 9
	backbone := randSeq(rng, 200)
	g := mustGraph(t, k)
	g.AddSequence([]byte(backbone), 20)
	// An error read diverges mid-way: same prefix, one bad base, short
	// continuation — a classic tip.
	spur := backbone[50:70] + "A" + randSeq(rng, 5)
	if backbone[70] == 'A' {
		spur = backbone[50:70] + "C" + randSeq(rng, 5)
	}
	g.AddSequence([]byte(spur), 1)
	before := g.NodeCount()
	removed := g.ClipTipsWith(new(Scratch), 30, 0.3)
	if removed == 0 {
		t.Fatal("no tips clipped")
	}
	if g.NodeCount() >= before {
		t.Error("node count did not drop")
	}
	// The backbone itself must survive intact.
	c := g.Compact()
	longest := ""
	for _, u := range c.Unitigs {
		if len(u.Seq) > len(longest) {
			longest = string(u.Seq)
		}
	}
	if !strings.Contains(backbone, longest) || len(longest) < len(backbone)*9/10 {
		t.Errorf("backbone damaged: longest unitig %d of %d", len(longest), len(backbone))
	}
}

func TestClipTipsKeepsSupportedEnds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k := 9
	s := randSeq(rng, 120)
	g := mustGraph(t, k)
	g.AddSequence([]byte(s), 10)
	// A linear path's own ends are not tips hanging off junctions.
	if removed := g.ClipTipsWith(new(Scratch), 30, 0.5); removed != 0 {
		t.Errorf("clipped %d nodes from a clean linear path", removed)
	}
}

func TestClipTipsKeepsLongAlternative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := 9
	shared := randSeq(rng, 100)
	altEnd := randSeq(rng, 80) // a long, real alternative 3' end
	g := mustGraph(t, k)
	g.AddSequence([]byte(shared+randSeq(rng, 60)), 10)
	g.AddSequence([]byte(shared+altEnd), 8)
	before := g.NodeCount()
	g.ClipTipsWith(new(Scratch), 20, 0.3) // maxLen 20 < the 80-base alternative
	// The well-covered long alternative must survive.
	if g.NodeCount() < before-5 {
		t.Errorf("long supported alternative clipped: %d -> %d", before, g.NodeCount())
	}
}

func TestPopBubblesRemovesWeakArm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	k := 9
	prefix := randSeq(rng, 60)
	suffix := randSeq(rng, 60)
	strong := randSeq(rng, 15)
	weak := randSeq(rng, 15)
	g := mustGraph(t, k)
	g.AddSequence([]byte(prefix+strong+suffix), 30)
	g.AddSequence([]byte(prefix+weak+suffix), 1)
	removed := g.PopBubblesWith(new(Scratch), 40, 0.2)
	if removed == 0 {
		t.Fatal("weak bubble arm not popped")
	}
	c := g.Compact()
	for _, u := range c.Unitigs {
		if strings.Contains(string(u.Seq), weak) {
			t.Error("weak arm survived")
		}
	}
	joined := ""
	for _, u := range c.Unitigs {
		joined += string(u.Seq) + "|"
	}
	if !strings.Contains(joined, strong) {
		t.Error("strong arm lost")
	}
}

func TestPopBubblesKeepsIsoformBubble(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k := 9
	prefix := randSeq(rng, 60)
	suffix := randSeq(rng, 60)
	g := mustGraph(t, k)
	// Two arms with comparable coverage: a real alternative-splicing
	// event, which must survive.
	g.AddSequence([]byte(prefix+randSeq(rng, 15)+suffix), 10)
	g.AddSequence([]byte(prefix+randSeq(rng, 15)+suffix), 7)
	if removed := g.PopBubblesWith(new(Scratch), 40, 0.2); removed != 0 {
		t.Errorf("popped %d nodes of a balanced isoform bubble", removed)
	}
}

func TestDeleteNodeDetachesEdges(t *testing.T) {
	g := mustGraph(t, 3)
	g.AddSequence([]byte("ACGTA"), 1)
	nodes := g.Nodes()
	mid := nodes[len(nodes)/2]
	g.deleteNode(mid)
	for _, m := range g.Nodes() {
		for _, s := range g.Successors(m) {
			if s == mid {
				t.Error("edge to deleted node survived")
			}
		}
		for _, p := range g.Predecessors(m) {
			if p == mid {
				t.Error("edge from deleted node survived")
			}
		}
	}
}

// flawedGraph is a backbone of n bases at coverage 20 with an error
// spur (a tip) and a one-base variant (a bubble) at coverage 1 every
// 100 bases.
func flawedGraph(t *testing.T, rng *rand.Rand, k, n int) *Graph {
	backbone := []byte(randSeq(rng, n))
	g := mustGraph(t, k)
	g.AddSequence(backbone, 20)
	flip := func(b byte) byte { return "CGTA"[strings.IndexByte("ACGT", b)] }
	for at := 50; at+2*k+10 < n; at += 100 {
		spur := append(append([]byte(nil), backbone[at:at+20]...), flip(backbone[at+20]), 'A', 'C', 'G')
		g.AddSequence(spur, 1)
		variant := append([]byte(nil), backbone[at+40:at+41+2*k]...)
		variant[k] = flip(variant[k])
		g.AddSequence(variant, 1)
	}
	return g
}

// TestCleanAllocsConstant: on warm scratch, tip clipping and bubble
// popping allocate a fixed number of times — the graph's deletion
// bitmap — however many nodes, tips and bubbles the graph has.
func TestCleanAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(f func()) uint64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		return b.Mallocs - a.Mallocs
	}
	const k = 9
	rng := rand.New(rand.NewSource(46))
	var s Scratch
	warm := flawedGraph(t, rng, k, 12000) // larger than any graph below
	warm.ClipTipsWith(&s, 0, 0.2)
	warm.PopBubblesWith(&s, 0, 0.2)
	var allocs []uint64
	for _, n := range []int{500, 2000, 8000} {
		g := flawedGraph(t, rng, k, n)
		var tips, bubbles int
		allocs = append(allocs, mallocs(func() {
			tips = g.ClipTipsWith(&s, 0, 0.2)
			bubbles = g.PopBubblesWith(&s, 0, 0.2)
		}))
		if tips == 0 || bubbles == 0 {
			t.Fatalf("n=%d: clipped %d tip nodes and popped %d bubble nodes, want both", n, tips, bubbles)
		}
	}
	if slices.Min(allocs) != slices.Max(allocs) || allocs[0] > 1 {
		t.Errorf("allocations per clean on warm scratch: %v, want the one deletion bitmap each", allocs)
	}
}
