package jellyfish

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gotrinity/internal/kmer"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

// spineReads is a generated read set with the shapes the counting
// kernels special-case: N runs, reads shorter than k, empty reads and
// a poly-A read (the all-A k-mer packs to the zero word).
func spineReads(p rnaseq.Profile) []seq.Record {
	reads := rnaseq.Generate(p).Reads
	rng := rand.New(rand.NewSource(p.Seed))
	for i := range reads {
		if i%7 == 0 {
			s := append([]byte(nil), reads[i].Seq...)
			at := rng.Intn(len(s))
			for j := at; j < min(len(s), at+1+rng.Intn(4)); j++ {
				s[j] = 'N'
			}
			reads[i].Seq = s
		}
	}
	return append(reads,
		seq.Record{ID: "short", Seq: []byte("ACGT")},
		seq.Record{ID: "empty"},
		seq.Record{ID: "polyA", Seq: bytes.Repeat([]byte("A"), 80)},
		seq.Record{ID: "allN", Seq: bytes.Repeat([]byte("N"), 40)})
}

// TestCountMatchesMapOracle pins the partitioned flat counters against
// the map code they replaced: entries, distinct, total, the dump's
// bytes and every frozen Get must be identical for every Threads ×
// Shards, ASCII and packed, stranded and canonical. Run under -race it
// is also the concurrent-use test of the batch-to-partition scheme.
func TestCountMatchesMapOracle(t *testing.T) {
	small := rnaseq.Sugarbeet(3)
	small.Genes, small.Reads = 12, 1500
	for _, p := range []rnaseq.Profile{rnaseq.Tiny(5), small} {
		reads := spineReads(p)
		preads := seq.PackRecords(reads)
		for _, k := range []int{1, 5, 25, 31} {
			for _, canonical := range []bool{false, true} {
				ref := mapCount(reads, Options{K: k, Canonical: canonical})
				wantEntries := ref.entries(1)
				var wantDump bytes.Buffer
				if err := ref.dump(&wantDump, 2); err != nil {
					t.Fatal(err)
				}
				for _, threads := range []int{1, 2, 8} {
					for _, shards := range []int{1, 4, 64} {
						opt := Options{K: k, Canonical: canonical, Threads: threads, Shards: shards}
						ascii, err := Count(reads, opt)
						if err != nil {
							t.Fatal(err)
						}
						packed, err := CountPacked(preads, opt)
						if err != nil {
							t.Fatal(err)
						}
						for name, table := range map[string]*CountTable{"Count": ascii, "CountPacked": packed} {
							if !slices.Equal(table.Entries(1), wantEntries) {
								t.Fatalf("%s k=%d %+v: entries differ from the map oracle's", name, k, opt)
							}
							if table.Distinct() != len(ref.m) || table.Total() != ref.total() {
								t.Fatalf("%s k=%d %+v: distinct/total %d/%d, want %d/%d", name, k, opt,
									table.Distinct(), table.Total(), len(ref.m), ref.total())
							}
							var dump bytes.Buffer
							if err := Dump(&dump, table, 2); err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(dump.Bytes(), wantDump.Bytes()) {
								t.Fatalf("%s k=%d %+v: dump bytes differ from the map oracle's", name, k, opt)
							}
							f := table.Freeze()
							if f.MemBytes() != table.MemBytes() {
								t.Fatalf("%s k=%d %+v: frozen MemBytes %d, table %d", name, k, opt, f.MemBytes(), table.MemBytes())
							}
							for _, e := range wantEntries {
								if f.Get(e.Kmer) != e.Count || table.Get(e.Kmer) != e.Count {
									t.Fatalf("%s k=%d %+v: Get(%v) = %d/%d, want %d", name, k, opt,
										e.Kmer, f.Get(e.Kmer), table.Get(e.Kmer), e.Count)
								}
							}
							rng := rand.New(rand.NewSource(int64(k)))
							for i := 0; i < 300; i++ {
								m := kmer.Kmer(rng.Uint64() & (1<<uint(2*k) - 1))
								if f.Get(m) != ref.m[m] || table.Get(m) != ref.m[m] {
									t.Fatalf("%s k=%d %+v: Get(%v) = %d/%d, want %d", name, k, opt,
										m, f.Get(m), table.Get(m), ref.m[m])
								}
							}
						}
					}
				}
			}
		}
	}
}

// Counts saturate at MaxUint32 instead of wrapping, in Add and in the
// bulk build from entries that repeat a k-mer.
func TestCountsSaturate(t *testing.T) {
	const m = kmer.Kmer(0) // the all-A k-mer
	table := NewCountTable(5, 4)
	table.Add(m, math.MaxUint32)
	table.Add(m, 1)
	if got := table.Get(m); got != math.MaxUint32 {
		t.Errorf("Add past MaxUint32: count = %d, want saturation at %d", got, uint32(math.MaxUint32))
	}
	table = FromEntries(5, []Entry{{m, math.MaxUint32 - 1}, {7, 3}, {m, 5}, {7, 4}})
	if got := table.Get(m); got != math.MaxUint32 {
		t.Errorf("FromEntries with a repeated k-mer: count = %d, want saturation", got)
	}
	if got := table.Get(7); got != 7 {
		t.Errorf("FromEntries with a repeated k-mer: count = %d, want the sum 7", got)
	}
	if table.Distinct() != 2 || table.Freeze().Get(m) != math.MaxUint32 {
		t.Errorf("distinct = %d, frozen count = %d", table.Distinct(), table.Freeze().Get(m))
	}
}

// The sorts behind Entries, Dump, dsk.Count and Inchworm's seed order.
func TestSortEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		in := make([]Entry, rng.Intn(600))
		for i := range in {
			in[i] = Entry{kmer.Kmer(rng.Uint64() >> uint(2+rng.Intn(60))), uint32(rng.Intn(5))}
			if rng.Intn(10) == 0 {
				in[i].Count = rng.Uint32()
			}
		}
		byKmer, byAbundance := slices.Clone(in), slices.Clone(in)
		SortByKmer(byKmer)
		SortByAbundance(byAbundance)
		if !slices.IsSortedFunc(byKmer, func(a, b Entry) int { return cmp.Compare(a.Kmer, b.Kmer) }) {
			t.Fatalf("trial %d: SortByKmer left entries unsorted", trial)
		}
		for i := 1; i < len(byAbundance); i++ {
			a, b := byAbundance[i-1], byAbundance[i]
			if a.Count < b.Count || (a.Count == b.Count && a.Kmer > b.Kmer) {
				t.Fatalf("trial %d: SortByAbundance: %v before %v", trial, a, b)
			}
		}
		for _, out := range [][]Entry{byKmer, byAbundance} {
			count := map[Entry]int{}
			for _, e := range in {
				count[e]++
			}
			for _, e := range out {
				count[e]--
			}
			for e, n := range count {
				if n != 0 {
					t.Fatalf("trial %d: entry %v count off by %d after sorting", trial, e, n)
				}
			}
		}
	}
}

// TestLoadMalformedLineTable pins Load's accepted inputs and error
// texts, line numbers included. The expectations were recorded from
// the strings.Fields/ParseUint parser the byte-level one replaced,
// which stays beside it as mapLoad.
func TestLoadMalformedLineTable(t *testing.T) {
	for _, tc := range []struct{ in, entries, err string }{
		{"5\n", "", "jellyfish: dump line 1: want 2 fields, got 1"},
		{"1\tACGTA\textra\n", "", "jellyfish: dump line 1: want 2 fields, got 3"},
		{"x\tACGTA\n", "", `jellyfish: dump line 1: bad count "x"`},
		{"-1\tACGTA\n", "", `jellyfish: dump line 1: bad count "-1"`},
		{"+1\tACGTA\n", "", `jellyfish: dump line 1: bad count "+1"`},
		{"4294967296\tACGTA\n", "", `jellyfish: dump line 1: bad count "4294967296"`},
		{"99999999999999999999999\tACGTA\n", "", `jellyfish: dump line 1: bad count "99999999999999999999999"`},
		{"4294967295\tACGTA\n", "ACGTA:4294967295", ""},
		{"1_0\tACGTA\n", "", `jellyfish: dump line 1: bad count "1_0"`},
		{"00001\tACGTA\n", "ACGTA:1", ""},
		{"000000000000000000000001\tACGTA\n", "ACGTA:1", ""},
		{"3\tACG\n", "", "jellyfish: dump line 1: k-mer length 3, want 5"},
		{"3\tACGTAC\n", "", "jellyfish: dump line 1: k-mer length 6, want 5"},
		{"3\tACGNB\n", "", `jellyfish: dump line 1: invalid k-mer "ACGNB"`},
		{"3\tacgta\n", "ACGTA:3", ""},
		{"2\tACGTA\n\n  \nbad\n", "", "jellyfish: dump line 4: want 2 fields, got 1"},
		{"2\tACGTA\r\n1\tTTTTT\r\n", "ACGTA:2 TTTTT:1", ""},
		{"  2   ACGTA  \n", "ACGTA:2", ""},
		{"2\u00a0ACGTA\n", "ACGTA:2", ""}, // no-break space
		{"2\u2003ACGTA\u3000\n", "ACGTA:2", ""},
		{"2\xffACGTA\n", "", "jellyfish: dump line 1: want 2 fields, got 1"},
		{"2\vACGTA\f\n", "ACGTA:2", ""},
		{"2\tACGTA", "ACGTA:2", ""},
		{"٣\tACGTA\n", "", "jellyfish: dump line 1: bad count \"٣\""},
		{"1\tACGTÄ\n", "", "jellyfish: dump line 1: k-mer length 6, want 5"},
		{"1\tACGTA\n2\tCCCCC\n3 \n", "", "jellyfish: dump line 3: want 2 fields, got 1"},
		{"1.5\tACGTA\n", "", `jellyfish: dump line 1: bad count "1.5"`},
		{"0x10\tACGTA\n", "", `jellyfish: dump line 1: bad count "0x10"`},
		{"0\tAAAAA\n", "AAAAA:0", ""},
		{"\t\n7\tGGGGG\n", "GGGGG:7", ""},
	} {
		for name, parse := range map[string]func(string) ([]Entry, error){
			"Load":    func(in string) ([]Entry, error) { return Load(strings.NewReader(in), 5) },
			"mapLoad": func(in string) ([]Entry, error) { return mapLoad(strings.NewReader(in), 5) },
		} {
			entries, err := parse(tc.in)
			var got []string
			for _, e := range entries {
				got = append(got, fmt.Sprintf("%s:%d", e.Kmer.Decode(5), e.Count))
			}
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			if strings.Join(got, " ") != tc.entries || msg != tc.err {
				t.Errorf("%s(%q) = %q, %q; want %q, %q", name, tc.in, got, msg, tc.entries, tc.err)
			}
		}
	}
	// An empty dump is a nil dictionary: core.runInchworm tells "no
	// dump was read" from "the dump was empty" by it.
	if entries, err := Load(strings.NewReader("\n \n"), 5); entries != nil || err != nil {
		t.Errorf("blank dump: entries %v, err %v; want nil, nil", entries, err)
	}
	// A line past the scanner's 1 MiB cap ends the parse with the
	// entries read so far, as before.
	long := "2\tACGTA\n" + strings.Repeat("A", 1<<20+1) + "\n"
	entries, err := Load(strings.NewReader(long), 5)
	if !errors.Is(err, bufio.ErrTooLong) || len(entries) != 1 {
		t.Errorf("over-long line: %d entries, err %v; want 1 entry and bufio.ErrTooLong", len(entries), err)
	}
}

// Dump formats into one reused line buffer and Load parses in the
// scanner's buffer: neither allocates per line.
func TestDumpLoadNoPerLineGarbage(t *testing.T) {
	var entries []Entry
	for i := 0; i < 5000; i++ {
		entries = append(entries, Entry{kmer.Kmer(i * 7919), uint32(1 + i%300)})
	}
	table := FromEntries(25, entries)
	var dump bytes.Buffer
	if err := Dump(&dump, table, 1); err != nil {
		t.Fatal(err)
	}
	data := dump.Bytes()
	if n := testing.AllocsPerRun(5, func() {
		dump.Reset()
		if err := Dump(&dump, table, 1); err != nil {
			t.Fatal(err)
		}
	}); n > 10 {
		t.Errorf("Dump of %d entries allocates %v times", len(entries), n)
	}
	if n := testing.AllocsPerRun(5, func() {
		if got, err := load(bytes.NewReader(data), 25, len(entries)); err != nil || len(got) != len(entries) {
			t.Fatalf("load: %d entries, err %v", len(got), err)
		}
	}); n > 10 {
		t.Errorf("Load of %d lines allocates %v times", len(entries), n)
	}
}
