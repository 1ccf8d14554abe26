package bowtie

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"gotrinity/internal/seq"
)

// The oracle SAM writer and reader: the Fprintf / strings.Split
// implementations the production ones replaced, kept as the reference
// they must agree with byte for byte and record for record.

func oracleWriteSAM(w io.Writer, refs []SAMHeaderEntry, alignments []Alignment) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintf(bw, "@HD\tVN:1.6\tSO:unsorted\n")
	for _, r := range refs {
		fmt.Fprintf(bw, "@SQ\tSN:%s\tLN:%d\n", r.Name, r.Length)
	}
	sorted := append([]Alignment(nil), alignments...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].ContigID != sorted[j].ContigID {
			return sorted[i].ContigID < sorted[j].ContigID
		}
		return sorted[i].Pos < sorted[j].Pos
	})
	for _, a := range sorted {
		flag := 0
		if a.Reverse {
			flag |= flagReverse
		}
		mapq := 42 - 10*a.Mismatches
		if mapq < 0 {
			mapq = 0
		}
		fmt.Fprintf(bw, "%s\t%d\t%s\t%d\t%d\t%dM\t*\t0\t0\t*\t*\tNM:i:%d\n",
			a.ReadID, flag, a.ContigID, a.Pos+1, mapq, a.ReadLen, a.Mismatches)
	}
	return bw.Flush()
}

// oracleReadSAM is ReadSAM (contigs nil) or ReadSAMFor.
func oracleReadSAM(r io.Reader, contigs []seq.Record) ([]Alignment, error) {
	index := make(map[string]int, len(contigs))
	for i := range contigs {
		index[contigs[i].ID] = i
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var out []Alignment
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" || line[0] == '@' {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 11 {
			return nil, fmt.Errorf("bowtie: sam line %d: %d fields", lineno, len(fields))
		}
		flag, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("bowtie: sam line %d: bad flag %q", lineno, fields[1])
		}
		if flag&flagUnmapped != 0 || fields[2] == "*" {
			continue
		}
		pos, err := strconv.Atoi(fields[3])
		if err != nil || pos < 1 {
			return nil, fmt.Errorf("bowtie: sam line %d: bad pos %q", lineno, fields[3])
		}
		a := Alignment{ReadID: fields[0], ContigID: fields[2], Pos: pos - 1, Reverse: flag&flagReverse != 0}
		if c := fields[5]; strings.HasSuffix(c, "M") {
			if n, err := strconv.Atoi(c[:len(c)-1]); err == nil {
				a.ReadLen = n
			}
		}
		for _, f := range fields[11:] {
			if v, ok := strings.CutPrefix(f, "NM:i:"); ok {
				if n, err := strconv.Atoi(v); err == nil {
					a.Mismatches = n
				}
			}
		}
		if contigs != nil {
			ci, ok := index[a.ContigID]
			n := -1
			if ok {
				n = len(contigs[ci].Seq)
			}
			if !ok || a.ReadLen < 0 || a.Pos >= n || a.Pos+a.ReadLen > n {
				return nil, &SAMRefError{Line: lineno, ReadID: a.ReadID, ContigID: a.ContigID, Pos: a.Pos, ReadLen: a.ReadLen, ContigLen: n}
			}
			a.Contig = ci
		}
		out = append(out, a)
	}
	return out, sc.Err()
}

// tiedAlignments builds n deep-shaped alignments (76 bp reads over a
// few hundred contigs, Contig resolved, as the pipeline hands them to
// the writer) with many equal (ContigID, Pos) keys, so the writer's
// sort order on ties is exercised.
func tiedAlignments(n int, seed int64) ([]seq.Record, []Alignment) {
	rng := rand.New(rand.NewSource(seed))
	contigs := make([]seq.Record, 300)
	for i := range contigs {
		contigs[i] = seq.Record{ID: contigID(i), Seq: make([]byte, 80+rng.Intn(20))}
	}
	als := make([]Alignment, n)
	for i := range als {
		c := int(rng.ExpFloat64()*20) % len(contigs)
		als[i] = Alignment{
			ReadID:     fmt.Sprintf("r%d/%d", i/2, 1+i%2),
			ReadLen:    76,
			Contig:     c,
			ContigID:   contigs[c].ID,
			Pos:        rng.Intn(len(contigs[c].Seq) - 75),
			Reverse:    rng.Intn(2) == 0,
			Mismatches: rng.Intn(6),
		}
	}
	return contigs, als
}

func samRefs(contigs []seq.Record) []SAMHeaderEntry {
	refs := make([]SAMHeaderEntry, len(contigs))
	for i, c := range contigs {
		refs[i] = SAMHeaderEntry{Name: c.ID, Length: len(c.Seq)}
	}
	return refs
}

func TestWriteSAMRecordsMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 7, 13, 500, 20000} {
		contigs, als := tiedAlignments(n, int64(n))
		var got, want bytes.Buffer
		if err := WriteSAMRecords(&got, samRefs(contigs), als); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteSAM(&want, samRefs(contigs), als); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: SAM differs from the oracle's", n)
		}
		// And it reads back as the oracle reads it.
		checkSAMParity(t, got.String(), contigs)
	}
}

// checkSAMParity requires ReadSAM and ReadSAMFor to agree with the
// oracle on data: equal records, or equal errors naming the same line.
func checkSAMParity(t *testing.T, data string, contigs []seq.Record) {
	t.Helper()
	for _, cs := range [][]seq.Record{nil, contigs} {
		want, wantErr := oracleReadSAM(strings.NewReader(data), cs)
		var got []Alignment
		var gotErr error
		if cs == nil {
			got, gotErr = ReadSAM(strings.NewReader(data))
		} else {
			got, gotErr = ReadSAMFor(strings.NewReader(data), cs)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("contigs=%v: error %v, oracle %v", cs != nil, gotErr, wantErr)
		}
		var gre, wre *SAMRefError
		if errors.As(gotErr, &gre) != errors.As(wantErr, &wre) || gre != nil && *gre != *wre {
			t.Fatalf("contigs=%v: ref error %+v, oracle %+v", cs != nil, gre, wre)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("contigs=%v: %d records differ from the oracle's %d", cs != nil, len(got), len(want))
		}
	}
}

func TestReadSAMMatchesOracle(t *testing.T) {
	contigs := []seq.Record{
		{ID: "c0", Seq: make([]byte, 40)},
		{ID: "c1", Seq: make([]byte, 100)},
		{ID: "c1", Seq: make([]byte, 60)}, // a duplicate ID resolves to its last contig
	}
	ok := "@HD\tVN:1.6\n@SQ\tSN:c1\tLN:100\nr1\t0\tc1\t11\t42\t50M\t*\t0\t0\t*\t*\tNM:i:2\n"
	for _, rec := range []string{
		"",
		"r2\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*",
		"r2\t0\t*\t0\t0\t*\t*\t0\t0\t*\t*",
		"r2\t16\tc0\t1\t42\t30M\t*\t0\t0\t*\t*\tNM:i:0\tXS:i:1\tNM:i:3",
		"r2\t16\tc0\t1\t42\t30M\t*\t0\t0\t*\t*\t\tNM:i:x",
		"r2\t+16\tc0\t+1\t42\t+30M\t*\t0\t0\t*\t*",
		"r2\t0\tc0\t1\t42\t30X\t*\t0\t0\t*\t*",
		"r2\t0\tc0\t1\t42\t-5M\t*\t0\t0\t*\t*",
		"r2\t0\tc0\t1\t42\tM\t*\t0\t0\t*\t*\r",
		"r2\t0\tc0\t1\t42\t10M\t*\t0\t0\t*",
		"r2\t0\tc1\n",
		"r2\tx\tc1\t1\t0\t5M\t*\t0\t0\t*\t*",
		"r2\t99999999999999999999\tc1\t1\t0\t5M\t*\t0\t0\t*\t*",
		"r2\t0\tc1\tzero\t0\t5M\t*\t0\t0\t*\t*",
		"r2\t0\tc1\t0\t0\t5M\t*\t0\t0\t*\t*",
		"r2\t0\tc9\t1\t42\t50M\t*\t0\t0\t*\t*",
		"r2\t0\tc1\t52\t42\t50M\t*\t0\t0\t*\t*",
		"r2\t0\tc0\t41\t42\t*\t*\t0\t0\t*\t*",
		"r2\t0\tc1\t11\t42\t50M\t*\t0\t0\t*\t*\tNM:i:1\nr3\t0\tc0\t1\t42\t40M\t*\t0\t0\t*\t*",
	} {
		checkSAMParity(t, ok+rec+"\n", contigs)
		checkSAMParity(t, rec, contigs)
	}
}

// failingReader yields data and then fails with errRead.
func failingReader(data string) io.Reader {
	return io.MultiReader(strings.NewReader(data), iotest.ErrReader(errRead))
}

var errRead = errors.New("read failed")

func TestReadSAMReportsReadErrors(t *testing.T) {
	in := "r1\t0\tc1\t11\t42\t50M\t*\t0\t0\t*\t*\tNM:i:2\n"
	if _, err := ReadSAM(failingReader(in)); !errors.Is(err, errRead) {
		t.Errorf("ReadSAM: error %v, want %v", err, errRead)
	}
	contigs := []seq.Record{{ID: "c1", Seq: make([]byte, 100)}}
	if _, err := ReadSAMFor(failingReader(in), contigs); !errors.Is(err, errRead) {
		t.Errorf("ReadSAMFor: error %v, want %v", err, errRead)
	}
}

// TestWriteSAMRecordsAllocsBounded: the writer's allocations do not
// grow with the record count (one index slice, one line buffer, one
// bufio.Writer).
func TestWriteSAMRecordsAllocsBounded(t *testing.T) {
	allocs := func(n int) float64 {
		contigs, als := tiedAlignments(n, 3)
		refs := samRefs(contigs)
		return testing.AllocsPerRun(5, func() {
			if err := WriteSAMRecords(io.Discard, refs, als); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(10000); large > small || large > 8 {
		t.Errorf("allocations: %v at 100 records, %v at 10000", small, large)
	}
}

func TestReadSAMForAllocsPerRecord(t *testing.T) {
	contigs, als := tiedAlignments(10000, 4)
	var buf bytes.Buffer
	if err := WriteSAMRecords(&buf, samRefs(contigs), als); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	perRecord := testing.AllocsPerRun(3, func() {
		if _, err := ReadSAMFor(bytes.NewReader(data), contigs); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(als))
	if perRecord > 0.1 {
		t.Errorf("ReadSAMFor makes %.3f allocations per record", perRecord)
	}
}

func BenchmarkWriteSAM(b *testing.B) {
	contigs, als := tiedAlignments(80000, 5)
	refs := samRefs(contigs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteSAMRecords(io.Discard, refs, als); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadSAM(b *testing.B) {
	contigs, als := tiedAlignments(80000, 5)
	var buf bytes.Buffer
	if err := WriteSAMRecords(&buf, samRefs(contigs), als); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ReadSAMFor(bytes.NewReader(buf.Bytes()), contigs)
		if err != nil || len(got) != len(als) {
			b.Fatal(len(got), err)
		}
	}
}
