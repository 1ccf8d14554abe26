package chrysalis

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// The oracle component and assignment formats: the Fprintf /
// strings.Fields implementations the production ones replaced, kept as
// the reference they must agree with byte for byte, record for record
// and error for error.

func oracleWriteComponents(w io.Writer, comps []Component) error {
	bw := bufio.NewWriter(w)
	for _, c := range comps {
		fmt.Fprintf(bw, "component %d:", c.ID)
		for _, ci := range c.Contigs {
			fmt.Fprintf(bw, " %d", ci)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

func oracleReadComponents(r io.Reader) ([]Component, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var out []Component
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		rest, ok := strings.CutPrefix(line, "component ")
		if !ok {
			return nil, fmt.Errorf("chrysalis: components line %d: missing prefix", lineno)
		}
		head, tail, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("chrysalis: components line %d: missing ':'", lineno)
		}
		id, err := strconv.Atoi(strings.TrimSpace(head))
		if err != nil {
			return nil, fmt.Errorf("chrysalis: components line %d: bad id %q", lineno, head)
		}
		comp := Component{ID: id}
		for _, f := range strings.Fields(tail) {
			ci, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("chrysalis: components line %d: bad contig index %q", lineno, f)
			}
			comp.Contigs = append(comp.Contigs, ci)
		}
		out = append(out, comp)
	}
	return out, sc.Err()
}

func oracleWriteAssignments(w io.Writer, as []Assignment) error {
	bw := bufio.NewWriter(w)
	for _, a := range as {
		fmt.Fprintf(bw, "%d %d %d\n", a.Read, a.Component, a.Matches)
	}
	return bw.Flush()
}

func oracleReadAssignments(r io.Reader) ([]Assignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var out []Assignment
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("chrysalis: assignments line %d: want 3 fields, got %d", lineno, len(fields))
		}
		var vals [3]int64
		for i, f := range fields {
			v, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("chrysalis: assignments line %d: bad value %q", lineno, f)
			}
			vals[i] = v
		}
		out = append(out, Assignment{Read: int32(vals[0]), Component: int32(vals[1]), Matches: int32(vals[2])})
	}
	return out, sc.Err()
}

func checkComponentsParity(t *testing.T, data string) {
	t.Helper()
	want, wantErr := oracleReadComponents(strings.NewReader(data))
	got, gotErr := ReadComponents(strings.NewReader(data))
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("components %q: %v, %v; oracle %v, %v", data, got, gotErr, want, wantErr)
	}
}

func checkAssignmentsParity(t *testing.T, data string) {
	t.Helper()
	want, wantErr := oracleReadAssignments(strings.NewReader(data))
	got, gotErr := ReadAssignments(strings.NewReader(data))
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("assignments %q: %v, %v; oracle %v, %v", data, got, gotErr, want, wantErr)
	}
}

// randomFormats builds components and assignments the size of a deep
// run's, negative values and empty components included.
func randomFormats(seed int64) ([]Component, []Assignment) {
	rng := rand.New(rand.NewSource(seed))
	comps := make([]Component, 300)
	for i := range comps {
		comps[i].ID = i - 3
		for j := rng.Intn(6); j > 0; j-- {
			comps[i].Contigs = append(comps[i].Contigs, rng.Intn(5000)-2)
		}
	}
	as := make([]Assignment, 20000)
	for i := range as {
		as[i] = Assignment{Read: int32(i), Component: int32(rng.Intn(400) - 1), Matches: rng.Int31() - 1<<30}
	}
	return comps, as
}

func TestWritersMatchOracleAndRoundTrip(t *testing.T) {
	comps, as := randomFormats(1)
	var got, want bytes.Buffer
	if err := WriteComponents(&got, comps); err != nil {
		t.Fatal(err)
	}
	oracleWriteComponents(&want, comps)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("components differ from the oracle's")
	}
	back, err := ReadComponents(&got)
	if err != nil || !reflect.DeepEqual(back, comps) {
		t.Fatalf("components round trip: %v", err)
	}
	got.Reset()
	want.Reset()
	if err := WriteAssignments(&got, as); err != nil {
		t.Fatal(err)
	}
	oracleWriteAssignments(&want, as)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("assignments differ from the oracle's")
	}
	backAs, err := ReadAssignments(&got)
	if err != nil || !reflect.DeepEqual(backAs, as) {
		t.Fatalf("assignments round trip: %v", err)
	}
}

func TestReadersMatchOracle(t *testing.T) {
	for _, in := range []string{
		"", "\n\n", "component 0: 1 2 3\n", "component 0:\ncomponent 1: 5\n", "garbage\n",
		"component x: y\n", "  component 7 :\t1 2 3 \r\n", "component  7: 1\n",
		"component +7: -1 +2\n", "component 0: 1 x\n", "component 0 1\n", "component\n",
		"component 0: 99999999999999999999\n", "component 0: 1\xff2\n", "\u0085component 3: 4\u0085\n",
	} {
		checkComponentsParity(t, in)
	}
	for _, in := range []string{
		"", "\n \n", "1 2 3\n4 5 6\n", "1 2\n", "1 2 3 4\n", "a b c\n", " 1\t2 3 \r\n",
		"+1 -2 3\n", "2147483648 0 0\n", "-2147483648 0 0\n", "1 2 3\xff\n", "1 2 3\n",
		"1 2 3\n\n7 8\n",
	} {
		checkAssignmentsParity(t, in)
	}
}

// failingReader yields data and then fails with errRead.
func failingReader(data string) io.Reader {
	return io.MultiReader(strings.NewReader(data), iotest.ErrReader(errRead))
}

var errRead = errors.New("read failed")

func TestReadersReportReadErrors(t *testing.T) {
	if _, err := ReadComponents(failingReader("component 0: 1 2\n")); !errors.Is(err, errRead) {
		t.Errorf("ReadComponents: error %v, want %v", err, errRead)
	}
	if _, err := ReadAssignments(failingReader("1 2 3\n")); !errors.Is(err, errRead) {
		t.Errorf("ReadAssignments: error %v, want %v", err, errRead)
	}
}

// TestWriteAssignmentsAllocsBounded: the writer's allocations do not
// grow with the record count.
func TestWriteAssignmentsAllocsBounded(t *testing.T) {
	_, as := randomFormats(2)
	allocs := func(as []Assignment) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := WriteAssignments(io.Discard, as); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(as[:100]), allocs(as); large > small || large > 4 {
		t.Errorf("allocations: %v at 100 records, %v at %d", small, large, len(as))
	}
}
