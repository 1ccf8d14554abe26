package chrysalis

import (
	"testing"

	"gotrinity/internal/kmer"
	"gotrinity/internal/seq"
)

type kmerT = kmer.Kmer

func encodeKmer(s string) (kmerT, bool) { return kmer.Encode([]byte(s), len(s)) }

// FastaToDeBruijn builds one de Bruijn graph per component from the
// component's contigs — the FastaToDebruijn sub-step of Chrysalis. With
// QuantifyGraph it is the serial composition FastaToDeBruijnParallel
// is checked against.
func FastaToDeBruijn(contigs []seq.Record, comps []Component, k int) ([]*ComponentGraph, error) {
	out := make([]*ComponentGraph, 0, len(comps))
	for _, comp := range comps {
		cg, err := buildComponentGraph(contigs, comp, k)
		if err != nil {
			return nil, err
		}
		out = append(out, cg)
	}
	return out, nil
}

// QuantifyGraph threads each assigned read through its component's
// graph, adding coverage — the QuantityGraph sub-step that gives
// Butterfly its read support. Reads assigned to unknown components are
// ignored.
func QuantifyGraph(graphs []*ComponentGraph, reads []seq.Record, assignments []Assignment) {
	byID := map[int]*ComponentGraph{}
	for _, cg := range graphs {
		byID[cg.Component.ID] = cg
	}
	for _, a := range assignments {
		cg, ok := byID[int(a.Component)]
		if !ok || int(a.Read) >= len(reads) {
			continue
		}
		cg.Graph.AddSequence(reads[a.Read].Seq, 1)
		cg.Reads = append(cg.Reads, a.Read)
	}
}

func TestFastaToDeBruijn(t *testing.T) {
	contigs := []seq.Record{
		{ID: "a", Seq: []byte("ACGTACGTACGTACGT")},
		{ID: "b", Seq: []byte("TTTTGGGGCCCCAAAA")},
		{ID: "c", Seq: []byte("GATTACAGATTACAGA")},
	}
	comps := []Component{
		{ID: 0, Contigs: []int{0, 1}},
		{ID: 1, Contigs: []int{2}},
	}
	graphs, err := FastaToDeBruijn(contigs, comps, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 2 {
		t.Fatalf("graphs = %d", len(graphs))
	}
	if graphs[0].Graph.NodeCount() == 0 || graphs[1].Graph.NodeCount() == 0 {
		t.Error("empty component graph")
	}
	// Component 1's graph must not contain component 0's k-mers.
	for _, m := range graphs[1].Graph.Nodes() {
		if graphs[0].Graph.Coverage(m) > 0 && graphs[1].Graph.Coverage(m) > 0 {
			// shared k-mers possible only if sequences overlap; these don't
			t.Errorf("k-mer %s leaked between components", m.Decode(5))
		}
	}
}

func TestFastaToDeBruijnErrors(t *testing.T) {
	contigs := []seq.Record{{ID: "a", Seq: []byte("ACGT")}}
	if _, err := FastaToDeBruijn(contigs, []Component{{ID: 0, Contigs: []int{5}}}, 3); err == nil {
		t.Error("accepted out-of-range contig index")
	}
	if _, err := FastaToDeBruijn(contigs, []Component{{ID: 0, Contigs: []int{0}}}, 1); err == nil {
		t.Error("accepted k=1")
	}
}

func TestQuantifyGraphAddsCoverage(t *testing.T) {
	contigs := []seq.Record{{ID: "a", Seq: []byte("ACGTACGTACGTACGTACGT")}}
	comps := []Component{{ID: 0, Contigs: []int{0}}}
	graphs, err := FastaToDeBruijn(contigs, comps, 5)
	if err != nil {
		t.Fatal(err)
	}
	reads := []seq.Record{{ID: "r0", Seq: []byte("ACGTACGTAC")}}
	before := graphs[0].Graph.Coverage(mustKmer(t, "ACGTA"))
	QuantifyGraph(graphs, reads, []Assignment{{Read: 0, Component: 0, Matches: 5}})
	after := graphs[0].Graph.Coverage(mustKmer(t, "ACGTA"))
	if after <= before {
		t.Errorf("coverage %d -> %d, want increase", before, after)
	}
	if len(graphs[0].Reads) != 1 || graphs[0].Reads[0] != 0 {
		t.Errorf("reads recorded: %v", graphs[0].Reads)
	}
}

func TestQuantifyGraphIgnoresBadAssignments(t *testing.T) {
	contigs := []seq.Record{{ID: "a", Seq: []byte("ACGTACGTAC")}}
	graphs, _ := FastaToDeBruijn(contigs, []Component{{ID: 0, Contigs: []int{0}}}, 5)
	reads := []seq.Record{{ID: "r0", Seq: []byte("ACGTA")}}
	QuantifyGraph(graphs, reads, []Assignment{
		{Read: 0, Component: 42}, // unknown component
		{Read: 99, Component: 0}, // read out of range
	})
	if len(graphs[0].Reads) != 0 {
		t.Errorf("bad assignments accepted: %v", graphs[0].Reads)
	}
}

func mustKmer(t *testing.T, s string) kmerT {
	t.Helper()
	m, ok := encodeKmer(s)
	if !ok {
		t.Fatalf("bad kmer %s", s)
	}
	return m
}

// FastaToDeBruijnParallel must reproduce the serial FastaToDeBruijn +
// QuantifyGraph composition exactly — same graphs (node sets and
// coverage), same per-component read lists in the same order — for any
// worker count.
func TestFastaToDeBruijnParallelMatchesSerial(t *testing.T) {
	contigs := []seq.Record{
		{ID: "a", Seq: []byte("ACGTACGTACGTACGT")},
		{ID: "b", Seq: []byte("TTTTGGGGCCCCAAAA")},
		{ID: "c", Seq: []byte("GATTACAGATTACAGA")},
		{ID: "d", Seq: []byte("CCCCGGGGTTTTAAAACCCC")},
	}
	comps := []Component{
		{ID: 3, Contigs: []int{0, 1}},
		{ID: 7, Contigs: []int{2}},
		{ID: 9, Contigs: []int{3}},
	}
	reads := []seq.Record{
		{ID: "r0/1", Seq: []byte("ACGTACGTAC")},
		{ID: "r0/2", Seq: []byte("TTTTGGGGCC")},
		{ID: "r1/1", Seq: []byte("GATTACAGAT")},
		{ID: "r2/1", Seq: []byte("CCCCGGGGTT")},
	}
	assigns := []Assignment{
		{Read: 0, Component: 3, Matches: 5},
		{Read: 1, Component: 3, Matches: 4},
		{Read: 2, Component: 7, Matches: 6},
		{Read: 3, Component: 9, Matches: 6},
		{Read: 0, Component: 42}, // unknown component: ignored
		{Read: 99, Component: 3}, // read out of range: ignored
	}
	const k = 5
	serial, err := FastaToDeBruijn(contigs, comps, k)
	if err != nil {
		t.Fatal(err)
	}
	QuantifyGraph(serial, reads, assigns)

	for _, workers := range []int{1, 2, 8} {
		par, units, prof, err := FastaToDeBruijnParallel(contigs, comps, k, reads, assigns, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d graphs, want %d", workers, len(par), len(serial))
		}
		if len(units) != len(comps) {
			t.Fatalf("workers=%d: %d unit entries", workers, len(units))
		}
		if prof.Threads <= 0 {
			t.Errorf("workers=%d: empty profile %+v", workers, prof)
		}
		for i := range serial {
			if par[i].Component.ID != serial[i].Component.ID {
				t.Fatalf("workers=%d comp %d: id %d vs %d", workers, i, par[i].Component.ID, serial[i].Component.ID)
			}
			if got, want := par[i].Reads, serial[i].Reads; len(got) != len(want) {
				t.Fatalf("workers=%d comp %d: reads %v vs %v", workers, i, got, want)
			} else {
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("workers=%d comp %d: reads %v vs %v", workers, i, got, want)
					}
				}
			}
			sn, pn := serial[i].Graph.Nodes(), par[i].Graph.Nodes()
			if len(sn) != len(pn) {
				t.Fatalf("workers=%d comp %d: %d nodes vs %d", workers, i, len(pn), len(sn))
			}
			for _, m := range sn {
				if par[i].Graph.Coverage(m) != serial[i].Graph.Coverage(m) {
					t.Fatalf("workers=%d comp %d: coverage differs at %s", workers, i, m.Decode(k))
				}
			}
			if units[i] <= 0 {
				t.Errorf("workers=%d comp %d: unit weight %g", workers, i, units[i])
			}
		}
	}
}

func TestFastaToDeBruijnParallelErrors(t *testing.T) {
	contigs := []seq.Record{{ID: "a", Seq: []byte("ACGT")}}
	if _, _, _, err := FastaToDeBruijnParallel(contigs, []Component{{ID: 0, Contigs: []int{5}}}, 3, nil, nil, 2); err == nil {
		t.Error("accepted out-of-range contig index")
	}
	if _, _, _, err := FastaToDeBruijnParallel(contigs, []Component{{ID: 0, Contigs: []int{0}}}, 1, nil, nil, 2); err == nil {
		t.Error("accepted k=1")
	}
}
