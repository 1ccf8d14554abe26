package seq

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// The oracle readers: the line-copying FASTA/FASTQ parsers the
// production readers replaced, kept as the reference they must agree
// with record for record, and error for error.

func oracleLine(br *bufio.Reader) ([]byte, bool, error) {
	raw, err := br.ReadBytes('\n')
	if len(raw) == 0 && err != nil {
		return nil, false, err
	}
	if err != nil && err != io.EOF {
		return nil, false, err
	}
	return bytes.Clone(bytes.TrimRight(raw, "\r\n")), err == nil, nil
}

func oracleUpper(s []byte) []byte {
	for i, b := range s {
		switch b {
		case 'A', 'C', 'G', 'T':
		case 'a', 'c', 'g', 't':
			s[i] = b - 'a' + 'A'
		default:
			s[i] = 'N'
		}
	}
	return s
}

func oracleReadFasta(r io.Reader) ([]Record, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var recs []Record
	var next []byte
	eof := false
	for {
		header := next
		next = nil
		if header == nil {
			if eof {
				return recs, nil
			}
			for {
				line, _, err := oracleLine(br)
				if err == io.EOF {
					return recs, nil
				}
				if err != nil {
					return recs, err
				}
				if len(line) > 0 {
					header = line
					break
				}
			}
		}
		if header[0] != '>' {
			return recs, fmt.Errorf("seq: malformed FASTA header %q", truncate(header))
		}
		var rec Record
		rec.ID, rec.Desc = splitHeader(string(header[1:]))
		var body bytes.Buffer
		for {
			line, _, err := oracleLine(br)
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return recs, err
			}
			if len(line) > 0 && line[0] == '>' {
				next = line
				break
			}
			body.Write(line)
		}
		rec.Seq = oracleUpper(body.Bytes())
		recs = append(recs, rec)
	}
}

func oracleReadFastq(r io.Reader) ([]Record, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	line := func() ([]byte, error) {
		for {
			l, terminated, err := oracleLine(br)
			if err != nil || len(l) > 0 || !terminated {
				return l, err
			}
		}
	}
	var recs []Record
	for {
		header, err := line()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		if len(header) == 0 || header[0] != '@' {
			return recs, fmt.Errorf("seq: malformed FASTQ header %q", truncate(header))
		}
		var rec Record
		rec.ID, rec.Desc = splitHeader(string(header[1:]))
		s, err := line()
		if err != nil {
			return recs, fmt.Errorf("seq: truncated FASTQ record %s", rec.ID)
		}
		rec.Seq = oracleUpper(s)
		plus, err := line()
		if err != nil || len(plus) == 0 || plus[0] != '+' {
			return recs, fmt.Errorf("seq: missing '+' line in FASTQ record %s", rec.ID)
		}
		q, err := line()
		if err != nil {
			return recs, fmt.Errorf("seq: truncated quality in FASTQ record %s", rec.ID)
		}
		if len(q) != len(rec.Seq) {
			return recs, fmt.Errorf("seq: quality length %d != sequence length %d in %s",
				len(q), len(rec.Seq), rec.ID)
		}
		rec.Qual = q
		recs = append(recs, rec)
	}
}

// checkFastaParity requires the production FASTA reader to agree with
// the oracle on data: the same records, or the same error.
func checkFastaParity(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := oracleReadFasta(bytes.NewReader(data))
	got, gotErr := NewFastaReader(bytes.NewReader(data)).ReadAll()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("FASTA %q: error %v, oracle %v", truncate(data), gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FASTA %q: records %v, oracle %v", truncate(data), got, want)
	}
}

func checkFastqParity(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := oracleReadFastq(bytes.NewReader(data))
	got, gotErr := NewFastqReader(bytes.NewReader(data)).ReadAll()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("FASTQ %q: error %v, oracle %v", truncate(data), gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FASTQ %q: records %v, oracle %v", truncate(data), got, want)
	}
}

func TestFastaReaderMatchesOracle(t *testing.T) {
	long := strings.Repeat("acgtRYKMn", 70<<10/9) // one line longer than the 64 KiB buffer
	for _, in := range []string{
		"",
		">",
		">\n",
		">\nACGT",
		">a desc  here \r\nAC\r\nGT\r\n>b\r\n\r\nTT\r\n",
		"\n\n>a\n\nAC\n\n\nGT\n\n>b\n\n",
		">a\nacgtnRYKMSWBDHV-*. x\n",
		">a\nACGT",
		">a\nACGT\r",
		">a\r\r\n\nAC\r\r\r\nG",
		">a\n>b\n>c\nA",
		">a\n" + long + "\n" + long + "\n>b " + long + "\nAC\n",
		">" + long,
		"no header\nACGT",
		"\n\nACGT\n>a\n",
		">a \t id2 tail \nAC\n",
	} {
		checkFastaParity(t, []byte(in))
	}
}

func TestFastqReaderMatchesOracle(t *testing.T) {
	long := strings.Repeat("acgtn", 70<<10/5)
	for _, in := range []string{
		"",
		"@a\nACGT\n+\nIIII\n",
		"@a desc\r\nacgN\r\n+a\r\nIII\r\n\r\n@b\nT\n+\nI",
		"@a\n\nAC\n\n+\n\nII\n",
		"@a\nACGT\n+",
		"@a\nAC\n+\nIII\n",
		"@a\nA\n+\nI\n\r",
		"@a\n\r",
		"@\n\n+\n\n",
		"@a\n" + long + "\n+\n" + strings.Repeat("I", len(long)) + "\n",
		"garbage",
	} {
		checkFastqParity(t, []byte(in))
	}
}

// failingReader yields data and then fails with errRead.
func failingReader(data string) io.Reader {
	return io.MultiReader(strings.NewReader(data), iotest.ErrReader(errRead))
}

var errRead = errors.New("read failed")

// TestReadersReportReadErrors: a reader that fails after whole records
// is a failed read, not a short file.
func TestReadersReportReadErrors(t *testing.T) {
	for _, in := range []string{">r1\nACGT\n>r2\nGG\n", ">r1\nACGT\n>r2\nGG", ">r1\nAC"} {
		if _, err := NewFastaReader(failingReader(in)).ReadAll(); !errors.Is(err, errRead) {
			t.Errorf("FASTA %q: error %v, want %v", in, err, errRead)
		}
	}
	// The records read before the failure come back whole.
	recs, _ := NewFastaReader(failingReader(">r1 d\nACGT\n>r2\nGG\n")).ReadAll()
	if want := []Record{{ID: "r1", Desc: "d", Seq: []byte("ACGT")}}; !reflect.DeepEqual(recs, want) {
		t.Errorf("records before the failure: %v, want %v", recs, want)
	}
	for _, in := range []string{"@r1\nACGT\n+\nIIII\n@r2\nGG\n+\nII\n", "@r1\nACGT\n+\nIIII\n@r2\nGG\n", "@r1\nAC"} {
		if _, err := NewFastqReader(failingReader(in)).ReadAll(); !errors.Is(err, errRead) {
			t.Errorf("FASTQ %q: error %v, want %v", in, err, errRead)
		}
	}
}

// TestReadAllSequencesAreCapped: sequences carved from one block must
// not grow into each other.
func TestReadAllSequencesAreCapped(t *testing.T) {
	recs, err := NewFastaReader(strings.NewReader(">a\nAC\n>b\nGT\n")).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	recs[0].Seq = append(recs[0].Seq, 'T')
	if string(recs[1].Seq) != "GT" {
		t.Fatalf("appending to one record changed the next: %q", recs[1].Seq)
	}
}

func BenchmarkReadFasta(b *testing.B) {
	var buf bytes.Buffer
	fw := NewFastaWriter(&buf)
	s := []byte(strings.Repeat("ACGTTGCAAC", 8)[:76])
	for i := 0; i < 80000; i++ {
		if err := fw.Write(&Record{ID: fmt.Sprintf("r%d/%d", i/2, 1+i%2), Seq: s}); err != nil {
			b.Fatal(err)
		}
	}
	fw.Flush()
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := NewFastaReader(bytes.NewReader(data)).ReadAll()
		if err != nil || len(recs) != 80000 {
			b.Fatal(len(recs), err)
		}
	}
}
