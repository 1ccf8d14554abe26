package dbg

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gotrinity/internal/kmer"
)

func mustGraph(t *testing.T, k int) *Graph {
	t.Helper()
	g, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewRejectsBadK(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("accepted k=1")
	}
	if _, err := New(32); err == nil {
		t.Error("accepted k=32")
	}
}

func TestAddSequenceNodesAndEdges(t *testing.T) {
	g := mustGraph(t, 3)
	g.AddSequence([]byte("ACGTA"), 1)
	if g.NodeCount() != 3 {
		t.Fatalf("nodes = %d, want 3", g.NodeCount())
	}
	acg, _ := kmer.Encode([]byte("ACG"), 3)
	cgt, _ := kmer.Encode([]byte("CGT"), 3)
	gta, _ := kmer.Encode([]byte("GTA"), 3)
	if succ := g.Successors(acg); len(succ) != 1 || succ[0] != cgt {
		t.Errorf("succ(ACG) = %v", succ)
	}
	if pred := g.Predecessors(gta); len(pred) != 1 || pred[0] != cgt {
		t.Errorf("pred(GTA) = %v", pred)
	}
	if g.Coverage(cgt) != 1 {
		t.Errorf("coverage = %d", g.Coverage(cgt))
	}
}

func TestAddSequenceCoverageAccumulates(t *testing.T) {
	g := mustGraph(t, 3)
	g.AddSequence([]byte("ACGT"), 2)
	g.AddSequence([]byte("ACGT"), 3)
	acg, _ := kmer.Encode([]byte("ACG"), 3)
	if g.Coverage(acg) != 5 {
		t.Errorf("coverage = %d, want 5", g.Coverage(acg))
	}
}

func TestAmbiguousBaseBreaksThread(t *testing.T) {
	g := mustGraph(t, 3)
	g.AddSequence([]byte("ACGNTTT"), 1)
	acg, _ := kmer.Encode([]byte("ACG"), 3)
	if d := g.OutDegree(acg); d != 0 {
		t.Errorf("edge created across N: outdegree = %d", d)
	}
}

func TestBranchDegrees(t *testing.T) {
	g := mustGraph(t, 3)
	g.AddSequence([]byte("ACGA"), 1) // ACG -> CGA
	g.AddSequence([]byte("ACGT"), 1) // ACG -> CGT
	acg, _ := kmer.Encode([]byte("ACG"), 3)
	if d := g.OutDegree(acg); d != 2 {
		t.Errorf("outdegree = %d, want 2", d)
	}
}

func TestCompactLinearSequence(t *testing.T) {
	g := mustGraph(t, 5)
	s := "ACGTACGGTTACCGGATTACA"
	g.AddSequence([]byte(s), 1)
	c := g.Compact()
	if len(c.Unitigs) != 1 {
		t.Fatalf("unitigs = %d, want 1", len(c.Unitigs))
	}
	if got := string(c.Unitigs[0].Seq); got != s {
		t.Errorf("unitig = %s, want %s", got, s)
	}
	if len(c.Unitigs[0].Out) != 0 || len(c.Unitigs[0].In) != 0 {
		t.Error("linear unitig should have no edges")
	}
	if c.TotalBases() != len(s) {
		t.Errorf("total bases = %d", c.TotalBases())
	}
}

func TestCompactBubble(t *testing.T) {
	// Two alleles of one locus: shared prefix, two branches, shared
	// suffix — the alternative-splicing motif Butterfly must resolve.
	g := mustGraph(t, 5)
	prefix := "AACCGGTTAA"
	suffix := "TTGGCCAATT"
	varA := "CACAC"
	varB := "GTGTG"
	g.AddSequence([]byte(prefix+varA+suffix), 1)
	g.AddSequence([]byte(prefix+varB+suffix), 1)
	c := g.Compact()
	if len(c.Unitigs) != 4 {
		for _, u := range c.Unitigs {
			t.Logf("unitig %d: %s out=%v in=%v", u.ID, u.Seq, u.Out, u.In)
		}
		t.Fatalf("unitigs = %d, want 4 (prefix, two branches, suffix)", len(c.Unitigs))
	}
	srcs := c.AppendSources(nil)
	if len(srcs) != 1 {
		t.Fatalf("sources = %v, want exactly the prefix", srcs)
	}
	if got := c.AppendSources([]int{-1}); !slices.Equal(got, []int{-1, srcs[0]}) {
		t.Errorf("AppendSources([-1]) = %v, want [-1 %d]", got, srcs[0])
	}
	src := c.Unitigs[srcs[0]]
	if !strings.HasPrefix(prefix, string(src.Seq[:5])) {
		t.Errorf("source unitig %s does not start the prefix", src.Seq)
	}
	if len(src.Out) != 2 {
		t.Errorf("source out-degree = %d, want 2", len(src.Out))
	}
}

func TestCompactCoversAllKmers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := mustGraph(t, 7)
	var total int
	for i := 0; i < 10; i++ {
		s := make([]byte, 100+rng.Intn(200))
		for j := range s {
			s[j] = "ACGT"[rng.Intn(4)]
		}
		g.AddSequence(s, 1)
	}
	total = g.NodeCount()
	c := g.Compact()
	covered := 0
	for _, u := range c.Unitigs {
		covered += len(u.Seq) - c.K + 1
	}
	if covered != total {
		t.Errorf("unitigs cover %d k-mers, graph has %d", covered, total)
	}
}

func TestCompactCycle(t *testing.T) {
	// A perfect cycle has no start node; Compact must still emit it.
	g := mustGraph(t, 3)
	g.AddSequence([]byte("ATCATCATC"), 1) // ATC,TCA,CAT repeating
	c := g.Compact()
	if len(c.Unitigs) == 0 {
		t.Fatal("cycle produced no unitigs")
	}
	covered := 0
	for _, u := range c.Unitigs {
		covered += len(u.Seq) - c.K + 1
	}
	if covered != g.NodeCount() {
		t.Errorf("cycle unitigs cover %d of %d nodes", covered, g.NodeCount())
	}
}

func TestCompactMeanCoverage(t *testing.T) {
	g := mustGraph(t, 4)
	g.AddSequence([]byte("AAAACCCC"), 3)
	c := g.Compact()
	for _, u := range c.Unitigs {
		if u.Coverage != 3 {
			t.Errorf("unitig %s coverage = %g, want 3", u.Seq, u.Coverage)
		}
	}
}

func TestNodesSorted(t *testing.T) {
	g := mustGraph(t, 3)
	g.AddSequence([]byte("TTTAAA"), 1)
	nodes := g.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			t.Fatal("Nodes() not strictly sorted")
		}
	}
}
