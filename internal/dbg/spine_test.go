package dbg

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gotrinity/internal/kmer"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

// spineSeqs is what a component graph is built from — a generated
// transcriptome's isoforms (contig-like) then its reads, so branches,
// bubbles and error tips all occur — plus the shapes the k-mer kernels
// special-case: N runs, sequences shorter than k, a poly-A run (the
// all-A k-mer, a self-loop) and a perfect cycle.
func spineSeqs(p rnaseq.Profile) [][]byte {
	d := rnaseq.Generate(p)
	rng := rand.New(rand.NewSource(p.Seed))
	var seqs [][]byte
	for _, tr := range d.Reference {
		seqs = append(seqs, tr.Seq)
	}
	for i, r := range d.Reads {
		s := r.Seq
		if i%7 == 0 {
			s = append([]byte(nil), s...)
			s[rng.Intn(len(s))] = 'N'
		}
		seqs = append(seqs, s)
	}
	cycle := []byte("ACGGTCATTGCAGGATCCTA")
	return append(seqs, []byte("ACG"), nil, bytes.Repeat([]byte("A"), 70),
		append(append([]byte(nil), cycle...), cycle...))
}

// sameGraph compares every exported view of the flat graph with the
// map oracle's.
func sameGraph(t *testing.T, when string, g *Graph, ref *mapGraph) {
	t.Helper()
	nodes := g.Nodes()
	if !slices.Equal(nodes, ref.Nodes()) || g.NodeCount() != ref.NodeCount() {
		t.Fatalf("%s: %d nodes (NodeCount %d), map oracle %d", when, len(nodes), g.NodeCount(), ref.NodeCount())
	}
	for _, m := range nodes {
		if g.Coverage(m) != ref.Coverage(m) {
			t.Fatalf("%s: Coverage(%v) = %d, map oracle %d", when, m, g.Coverage(m), ref.Coverage(m))
		}
		if !slices.Equal(g.Successors(m), ref.Successors(m)) || !slices.Equal(g.Predecessors(m), ref.Predecessors(m)) {
			t.Fatalf("%s: neighbours of %v differ from the map oracle's", when, m)
		}
		if g.OutDegree(m) != ref.OutDegree(m) || g.InDegree(m) != ref.InDegree(m) {
			t.Fatalf("%s: degrees of %v differ from the map oracle's", when, m)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		m := kmer.Kmer(rng.Uint64() & (1<<uint(2*g.K) - 1))
		if g.Coverage(m) != ref.Coverage(m) || len(g.Successors(m)) != len(ref.Successors(m)) || g.InDegree(m) != ref.InDegree(m) {
			t.Fatalf("%s: absent-or-not k-mer %v answered differently", when, m)
		}
	}
	c, rc := g.Compact(), ref.Compact()
	if len(c.Unitigs) != len(rc.Unitigs) {
		t.Fatalf("%s: %d unitigs, map oracle %d", when, len(c.Unitigs), len(rc.Unitigs))
	}
	for i := range c.Unitigs {
		u, ru := &c.Unitigs[i], &rc.Unitigs[i]
		// Coverage is compared bit for bit: the float sum's order is
		// part of the contract.
		if u.ID != ru.ID || !bytes.Equal(u.Seq, ru.Seq) || u.Coverage != ru.Coverage ||
			!slices.Equal(u.Out, ru.Out) || !slices.Equal(u.In, ru.In) {
			t.Fatalf("%s: unitig %d = {%d %s %v %v %v}, map oracle {%d %s %v %v %v}", when, i,
				u.ID, u.Seq, u.Coverage, u.Out, u.In, ru.ID, ru.Seq, ru.Coverage, ru.Out, ru.In)
		}
	}
}

// TestGraphMatchesMapOracle drives the flat graph and the map graph it
// replaced through the same life: build, compact, clip tips, pop
// bubbles, then thread more sequence over the deletions.
func TestGraphMatchesMapOracle(t *testing.T) {
	small := rnaseq.Sugarbeet(6)
	small.Genes, small.Reads = 6, 600
	for _, p := range []rnaseq.Profile{rnaseq.Tiny(8), small} {
		seqs := spineSeqs(p)
		for _, k := range []int{2, 5, 25, 31} {
			g, err := NewSized(k, 100)
			if err != nil {
				t.Fatal(err)
			}
			ref := newMapGraph(k)
			for i, s := range seqs {
				g.AddSequence(s, uint32(1+i%3))
				ref.AddSequence(s, uint32(1+i%3))
			}
			sameGraph(t, "built", g, ref)
			if got, want := g.ClipTips(0, 0.5), ref.ClipTips(0, 0.5); got != want {
				t.Fatalf("k=%d: ClipTips removed %d, map oracle %d", k, got, want)
			}
			sameGraph(t, "tips clipped", g, ref)
			if got, want := g.PopBubbles(0, 0.9), ref.PopBubbles(0, 0.9); got != want {
				t.Fatalf("k=%d: PopBubbles removed %d, map oracle %d", k, got, want)
			}
			sameGraph(t, "bubbles popped", g, ref)
			if p.Seed == 8 && k == 25 && g.NodeCount() == len(g.kmers) {
				t.Fatal("the cleaning passes deleted nothing: the deletion paths went untested")
			}
			// Deleted k-mers seen again start afresh.
			for _, s := range seqs[:len(seqs)/3] {
				g.AddSequence(s, 2)
				ref.AddSequence(s, 2)
			}
			sameGraph(t, "rethreaded", g, ref)
		}
	}
}

// TestAddSequenceNextIDShortcut drives AddSequence's next-id probe (a
// k-mer found at prevID+1 skips the hash) through the shapes where it
// fires, where it must not, and where it meets a deleted node, against
// the map oracle. Every id must still name its own k-mer in the set.
func TestAddSequenceNextIDShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rnd := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		return s
	}
	for _, k := range []int{3, 5, 25} {
		g, err := NewSized(k, 64)
		if err != nil {
			t.Fatal(err)
		}
		ref := newMapGraph(k)
		add := func(s []byte, w uint32) {
			g.AddSequence(s, w)
			ref.AddSequence(s, w)
		}
		contigs := [][]byte{rnd(300), rnd(120), bytes.Repeat([]byte("ACGTTGCA"), 12)}
		for _, c := range contigs {
			add(c, 1)
		}
		for i := 0; i < 200; i++ {
			c := contigs[rng.Intn(len(contigs))]
			lo := rng.Intn(len(c) - 40)
			read := append([]byte(nil), c[lo:lo+40]...)
			switch i % 5 {
			case 1: // substitution errors: the path leaves the contig's ids and rejoins them
				for e := 0; e < 1+rng.Intn(3); e++ {
					read[rng.Intn(len(read))] = "ACGT"[rng.Intn(4)]
				}
			case 2: // an N break: the next k-mer is not pos+1 of the last
				read[rng.Intn(len(read))] = 'N'
			case 3: // reverse strand: the contig's ids run backwards
				read = seq.ReverseComplement(read)
			}
			add(read, 1)
		}
		// Homopolymers and short cycles revisit a k-mer, so the id after
		// the previous one is some other k-mer's.
		for _, s := range []string{strings.Repeat("A", 60), strings.Repeat("AC", 30),
			strings.Repeat("ACG", 20), strings.Repeat("AAC", 20) + strings.Repeat("A", 10)} {
			add([]byte(s), 2)
		}
		sameGraph(t, "threaded", g, ref)

		// Delete nodes in the middle of the first contig, then thread it
		// again: its next-id probes land on dead ids and must revive them.
		c := contigs[0]
		for _, pos := range []int{40, 41, 150} {
			m, _ := kmer.Encode(c[pos:], k)
			g.deleteNode(m)
			ref.deleteNode(m)
		}
		sameGraph(t, "deleted", g, ref)
		add(c, 3)
		add(c[30:200], 1)
		sameGraph(t, "revived", g, ref)
		for id, m := range g.kmers {
			if got, ok := g.nodes.Lookup(m); !ok || got != int32(id) {
				t.Fatalf("k=%d: id %d holds %v, which the set maps to %d", k, id, m, got)
			}
		}
	}
}

// A warm AddSequence — every k-mer already a node — allocates nothing.
func TestAddSequenceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	g := mustGraph(t, 25)
	s := rnaseq.Generate(rnaseq.Tiny(1)).Reference[0].Seq
	g.AddSequence(s, 1)
	if n := testing.AllocsPerRun(20, func() { g.AddSequence(s, 1) }); n != 0 {
		t.Errorf("warm AddSequence allocates %v times per call", n)
	}
}
