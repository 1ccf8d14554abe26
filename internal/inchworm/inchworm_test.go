package inchworm

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/kmer"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

func dictFromReads(t *testing.T, reads []seq.Record, k int) []jellyfish.Entry {
	t.Helper()
	table, err := jellyfish.Count(reads, jellyfish.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return table.Entries(1)
}

// A single unique sequence covered by overlapping reads must assemble
// back into (at least) that sequence.
func TestReassemblesSingleTranscript(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	transcript := make([]byte, 400)
	for i := range transcript {
		transcript[i] = "ACGT"[rng.Intn(4)]
	}
	var reads []seq.Record
	for start := 0; start+60 <= len(transcript); start += 5 {
		for c := 0; c < 3; c++ { // 3x coverage of every window
			reads = append(reads, seq.Record{Seq: transcript[start : start+60]})
		}
	}
	const k = 25
	contigs, stats, err := Run(dictFromReads(t, reads, k), Options{K: k, MinKmerCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(contigs) == 0 {
		t.Fatal("no contigs assembled")
	}
	if stats.Contigs != len(contigs) {
		t.Errorf("stats.Contigs = %d, want %d", stats.Contigs, len(contigs))
	}
	joined := ""
	for _, c := range contigs {
		joined += string(c.Seq) + "|"
	}
	// The longest contig should reconstruct essentially the whole transcript.
	longest := ""
	for _, c := range contigs {
		if len(c.Seq) > len(longest) {
			longest = string(c.Seq)
		}
	}
	if !strings.Contains(string(transcript), longest) {
		t.Errorf("longest contig is not a substring of the source transcript (len=%d)", len(longest))
	}
	if len(longest) < len(transcript)*9/10 {
		t.Errorf("longest contig %d bases, want >= 90%% of %d; contigs: %s", len(longest), len(transcript), joined[:min(200, len(joined))])
	}
}

func TestErrorKmersPruned(t *testing.T) {
	// One read with a sequencing error produces singleton k-mers that
	// MinKmerCount=2 must remove, leaving the error branch unassembled.
	rng := rand.New(rand.NewSource(5))
	transcript := make([]byte, 200)
	for i := range transcript {
		transcript[i] = "ACGT"[rng.Intn(4)]
	}
	var reads []seq.Record
	for start := 0; start+50 <= len(transcript); start += 4 {
		reads = append(reads, seq.Record{Seq: transcript[start : start+50]})
		reads = append(reads, seq.Record{Seq: transcript[start : start+50]})
	}
	bad := append([]byte(nil), transcript[40:90]...)
	bad[25] = seq.Complement(bad[25]) // guaranteed substitution
	reads = append(reads, seq.Record{Seq: bad})

	const k = 21
	a, err := New(dictFromReads(t, reads, k), Options{K: k, MinKmerCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	contigs := a.Assemble()
	for _, c := range contigs {
		if strings.Contains(string(c.Seq), string(bad[20:30])) &&
			!strings.Contains(string(transcript), string(c.Seq)) {
			t.Errorf("error branch leaked into contig %s", c.ID)
		}
	}
	st := a.Stats()
	if st.KmersKept >= st.KmersIn {
		t.Errorf("no k-mers pruned: in=%d kept=%d", st.KmersIn, st.KmersKept)
	}
}

// Fig. 1 of the paper: extension picks the *highest occurring* k-mer
// with a (k-1) overlap.
func TestExtensionPrefersMostAbundant(t *testing.T) {
	// Seed GGCA; right extensions GCAT (x5) and GCAA (x2) both overlap.
	// Build counts directly.
	entries := []jellyfish.Entry{}
	add := func(s string, c uint32) {
		m, ok := kmer.Encode([]byte(s), len(s))
		if !ok {
			t.Fatalf("bad kmer %s", s)
		}
		entries = append(entries, jellyfish.Entry{Kmer: m, Count: c})
	}
	add("GGCA", 9) // seed: most abundant
	add("GCAT", 5) // preferred right extension
	add("GCAA", 2) // rejected branch
	add("CATT", 4) // continues the preferred path
	contigs, _, err := Run(entries, Options{K: 4, MinKmerCount: 1, MinContigLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(contigs) != 1 {
		t.Fatalf("contigs = %d, want 1", len(contigs))
	}
	if got := string(contigs[0].Seq); got != "GGCATT" {
		t.Errorf("contig = %s, want GGCATT", got)
	}
}

func TestEachKmerUsedOnce(t *testing.T) {
	// Two disjoint transcripts: their contigs must not share k-mers.
	d := rnaseq.Generate(rnaseq.Tiny(31))
	const k = 21
	dict := dictFromReads(t, d.Reads, k)
	a, err := New(dict, Options{K: k, MinKmerCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	contigs := a.Assemble()
	seen := map[string]string{}
	for _, c := range contigs {
		s := string(c.Seq)
		for i := 0; i+k <= len(s); i++ {
			w := s[i : i+k]
			if prev, dup := seen[w]; dup && prev != c.ID {
				t.Fatalf("k-mer %s appears in %s and %s", w, prev, c.ID)
			}
			seen[w] = c.ID
		}
	}
}

func TestMinContigLenFilter(t *testing.T) {
	var reads []seq.Record
	for i := 0; i < 3; i++ {
		reads = append(reads, seq.Record{Seq: []byte("ACGTACGTAC")})
	}
	dict := dictFromReads(t, reads, 5)
	contigs, _, err := Run(dict, Options{K: 5, MinKmerCount: 1, MinContigLen: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(contigs) != 0 {
		t.Errorf("short contigs not filtered: %d", len(contigs))
	}
}

func TestRejectsBadK(t *testing.T) {
	if _, _, err := Run(nil, Options{K: 0}); err == nil {
		t.Error("accepted k=0")
	}
}

func TestStatsExtensionOpsCounted(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(1))
	dict := dictFromReads(t, d.Reads, 21)
	_, st, err := Run(dict, Options{K: 21})
	if err != nil {
		t.Fatal(err)
	}
	if st.ExtensionOps == 0 {
		t.Error("extension ops not metered")
	}
	if st.BasesOut == 0 {
		t.Error("no contig bases reported")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// The dictionary's order does not matter: entries given k-mer-sorted
// (Entries), abundance-sorted (a dump read back), as the count table
// lists them unsorted (Kept) or shuffled assemble to identical contigs and
// Stats, since New sorts the unique k-mers itself.
func TestEntryOrderIndependent(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(77))
	table, err := jellyfish.Count(d.Reads, jellyfish.Options{K: 21})
	if err != nil {
		t.Fatal(err)
	}
	byKmer := table.Entries(1)
	byAbundance := slices.Clone(byKmer)
	jellyfish.SortByAbundance(byAbundance)
	shuffled := slices.Clone(byKmer)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	want, wantStats, err := Run(slices.Clone(byKmer), Options{K: 21})
	if err != nil || len(want) == 0 {
		t.Fatalf("%d contigs, err %v", len(want), err)
	}
	for name, dict := range map[string][]jellyfish.Entry{"by abundance": byAbundance, "unsorted": table.Kept(1), "shuffled": shuffled} {
		got, gotStats, err := Run(dict, Options{K: 21})
		if err != nil {
			t.Fatal(err)
		}
		if gotStats != wantStats || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d contigs, stats %+v; k-mer order gave %d, %+v", name, len(got), gotStats, len(want), wantStats)
		}
	}
}
