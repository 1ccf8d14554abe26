package bowtie

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gotrinity/internal/seq"
)

// SAM flag bits used by the writer.
const (
	flagUnmapped = 0x4
	flagReverse  = 0x10
)

// SAMHeaderEntry describes one reference sequence for the @SQ header.
type SAMHeaderEntry struct {
	Name   string
	Length int
}

// WriteSAMRecords renders a minimal, sorted SAM file.
func WriteSAMRecords(w io.Writer, refs []SAMHeaderEntry, alignments []Alignment) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "@HD\tVN:1.6\tSO:unsorted\n"); err != nil {
		return err
	}
	for _, r := range refs {
		if _, err := fmt.Fprintf(bw, "@SQ\tSN:%s\tLN:%d\n", r.Name, r.Length); err != nil {
			return err
		}
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
		if _, err := fmt.Fprintf(bw, "%s\t%d\t%s\t%d\t%d\t%dM\t*\t0\t0\t*\t*\tNM:i:%d\n",
			a.ReadID, flag, a.ContigID, a.Pos+1, mapq, a.ReadLen, a.Mismatches); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSAM parses a SAM stream produced by WriteSAMRecords (headers are
// skipped; unmapped records are dropped). Contig indices are not
// resolved — ReadSAMFor does that against a contig set.
func ReadSAM(r io.Reader) ([]Alignment, error) {
	return readSAM(r, nil)
}

// SAMRefError reports a SAM record that does not fit the contig set it
// is resolved against: its RNAME names no contig (ContigLen < 0) or its
// span [Pos, Pos+ReadLen) is not inside the contig.
type SAMRefError struct {
	Line      int // 1-based line of the record in the SAM stream
	ReadID    string
	ContigID  string
	Pos       int // 0-based
	ReadLen   int
	ContigLen int
}

func (e *SAMRefError) Error() string {
	if e.ContigLen < 0 {
		return fmt.Sprintf("bowtie: sam line %d: read %q names unknown contig %q", e.Line, e.ReadID, e.ContigID)
	}
	return fmt.Sprintf("bowtie: sam line %d: read %q spans [%d,%d) outside contig %q (length %d)",
		e.Line, e.ReadID, e.Pos, e.Pos+e.ReadLen, e.ContigID, e.ContigLen)
}

// ReadSAMFor is ReadSAM for a known contig set: each record's RNAME is
// resolved to its index in contigs (Alignment.Contig) and its span is
// checked against that contig's length. The first record that does not
// fit returns a *SAMRefError.
func ReadSAMFor(r io.Reader, contigs []seq.Record) ([]Alignment, error) {
	index := make(map[string]int, len(contigs))
	for i := range contigs {
		index[contigs[i].ID] = i
	}
	return readSAM(r, func(line int, a Alignment) (int, error) {
		ci, ok := index[a.ContigID]
		n := -1
		if ok {
			n = len(contigs[ci].Seq)
		}
		if !ok || a.ReadLen < 0 || a.Pos >= n || a.Pos+a.ReadLen > n {
			return 0, &SAMRefError{Line: line, ReadID: a.ReadID, ContigID: a.ContigID, Pos: a.Pos, ReadLen: a.ReadLen, ContigLen: n}
		}
		return ci, nil
	})
}

// readSAM is the shared parser; resolve, when non-nil, vets each mapped
// record and returns its Contig index before the record is kept. (By
// value: a pointer into the loop would put every record on the heap.)
func readSAM(r io.Reader, resolve func(line int, a Alignment) (int, error)) ([]Alignment, error) {
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
		a := Alignment{
			ReadID:   fields[0],
			ContigID: fields[2],
			Pos:      pos - 1,
			Reverse:  flag&flagReverse != 0,
		}
		// CIGAR "<n>M" carries the read length; NM:i carries mismatches.
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
		if resolve != nil {
			ci, err := resolve(lineno, a)
			if err != nil {
				return nil, err
			}
			a.Contig = ci
		}
		out = append(out, a)
	}
	return out, sc.Err()
}
