package chrysalis

import (
	"strings"
	"testing"

	"gotrinity/internal/jellyfish"
	"gotrinity/internal/seq"
)

func FuzzReadComponents(f *testing.F) {
	f.Add("component 0: 1 2 3\n")
	f.Add("component 0:\ncomponent 1: 5\n")
	f.Add("garbage\n")
	f.Add("component x: y\n")
	f.Add(" component 7 :\t1\u00a02 \r\n")
	f.Fuzz(func(t *testing.T, data string) {
		checkComponentsParity(t, data)
		comps, err := ReadComponents(strings.NewReader(data))
		if err != nil {
			return
		}
		// Parsed components must survive a write/read round trip.
		var sb strings.Builder
		if err := WriteComponents(&sb, comps); err != nil {
			t.Fatal(err)
		}
		back, err := ReadComponents(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back) != len(comps) {
			t.Fatalf("round trip count %d != %d", len(back), len(comps))
		}
	})
}

func FuzzReadAssignments(f *testing.F) {
	f.Add("1 2 3\n4 5 6\n")
	f.Add("1 2\n")
	f.Add("a b c\n")
	f.Add(" 1\t2\u20033 \r\n")
	f.Fuzz(func(t *testing.T, data string) {
		checkAssignmentsParity(t, data)
		as, err := ReadAssignments(strings.NewReader(data))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteAssignments(&sb, as); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAssignments(strings.NewReader(sb.String()))
		if err != nil || len(back) != len(as) {
			t.Fatalf("round trip: %v (%d vs %d)", err, len(back), len(as))
		}
	})
}

// FuzzChrysalisDegenerateInput drives both Chrysalis hot spots with
// adversarial sequence data. The seed corpus covers the classic
// degenerate shapes — no reads at all, all-N sequences (no valid
// k-mers), and reads shorter than k — none of which may panic or hang.
func FuzzChrysalisDegenerateInput(f *testing.F) {
	f.Add("", "", uint8(5))
	f.Add("NNNNNNNNNNNNNNNNNNNN", "NNNNNNNN", uint8(7))
	f.Add("ACGTACGTACGTACGTACGTACGT", "ACG", uint8(9)) // read shorter than k
	f.Add("ACGTACGTACGTACGTACGTACGT", "ACGTACGTACGTACGT", uint8(4))
	f.Fuzz(func(t *testing.T, contig, read string, kk uint8) {
		k := 3 + int(kk)%13
		var reads []seq.Record
		if read != "" {
			reads = []seq.Record{{ID: "r1", Seq: []byte(read)}}
		}
		table, err := jellyfish.Count(reads, jellyfish.Options{K: k})
		if err != nil {
			return
		}
		var contigs []seq.Record
		if contig != "" {
			contigs = []seq.Record{{ID: "c1", Seq: []byte(contig)}}
		}
		res, err := GraphFromFasta(contigs, table, 1, GFFOptions{K: k, ThreadsPerRank: 1})
		if err != nil {
			return
		}
		if _, err := ReadsToTranscripts(reads, contigs, res.Components, 1,
			R2TOptions{K: k, ThreadsPerRank: 1}); err != nil {
			return
		}
	})
}
