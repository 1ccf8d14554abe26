package bowtie

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"gotrinity/internal/seq"
	"gotrinity/internal/textio"
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

// WriteSAMRecords renders a minimal SAM file, its records sorted by
// (ContigID, Pos). Each line is built in one reused buffer.
func WriteSAMRecords(w io.Writer, refs []SAMHeaderEntry, alignments []Alignment) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	line := append(make([]byte, 0, 256), "@HD\tVN:1.6\tSO:unsorted\n"...)
	if _, err := bw.Write(line); err != nil {
		return err
	}
	for _, r := range refs {
		line = append(line[:0], "@SQ\tSN:"...)
		line = append(line, r.Name...)
		line = append(line, "\tLN:"...)
		line = strconv.AppendInt(line, int64(r.Length), 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	// Sort record indices, not the records: pdqsort's moves depend only
	// on comparison results, so the order (ties included) is the one
	// sorting the records themselves gives.
	order := make([]int32, len(alignments))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		a, b := &alignments[i], &alignments[j]
		if c := strings.Compare(a.ContigID, b.ContigID); c != 0 {
			return c
		}
		return cmp.Compare(a.Pos, b.Pos)
	})
	for _, i := range order {
		a := &alignments[i]
		flag := 0
		if a.Reverse {
			flag |= flagReverse
		}
		mapq := max(42-10*a.Mismatches, 0)
		line = append(line[:0], a.ReadID...)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(flag), 10)
		line = append(line, '\t')
		line = append(line, a.ContigID...)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(a.Pos+1), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(mapq), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(a.ReadLen), 10)
		line = append(line, "M\t*\t0\t0\t*\t*\tNM:i:"...)
		line = strconv.AppendInt(line, int64(a.Mismatches), 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
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
// fit returns a *SAMRefError. A record's ContigID is the matched
// contig's own ID string.
func ReadSAMFor(r io.Reader, contigs []seq.Record) ([]Alignment, error) {
	index := make(map[string]int, len(contigs))
	for i := range contigs {
		index[contigs[i].ID] = i
	}
	return readSAM(r, func(line int, read, rname []byte, a Alignment) (Alignment, error) {
		ci, ok := index[string(rname)]
		n := -1
		if ok {
			n = len(contigs[ci].Seq)
		}
		if !ok || a.ReadLen < 0 || a.Pos >= n || a.Pos+a.ReadLen > n {
			return a, &SAMRefError{Line: line, ReadID: string(read), ContigID: string(rname),
				Pos: a.Pos, ReadLen: a.ReadLen, ContigLen: n}
		}
		a.Contig, a.ContigID = ci, contigs[ci].ID
		return a, nil
	})
}

// readSAM is the shared parser. Lines are parsed in the scanner's
// buffer; the read IDs become substrings of one string at the end.
// resolve, when non-nil, vets each mapped record and fills in its
// contig from its RNAME; when nil, ContigID is one string per distinct
// RNAME. (Records pass by value: a pointer into the loop would put
// every record on the heap.)
func readSAM(r io.Reader, resolve func(line int, read, rname []byte, a Alignment) (Alignment, error)) ([]Alignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var out textio.Blocks[Alignment]
	var readIDs textio.Strings
	rnames := map[string]string{}
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '@' {
			continue
		}
		// The 11 mandatory fields; tags holds the optional ones.
		var f [11][]byte
		if n := 1 + bytes.Count(line, tab); n < len(f) {
			return nil, fmt.Errorf("bowtie: sam line %d: %d fields", lineno, n)
		}
		tags := line
		for i := range f {
			f[i], tags, _ = bytes.Cut(tags, tab)
		}
		flag, err := strconv.Atoi(string(f[1]))
		if err != nil {
			return nil, fmt.Errorf("bowtie: sam line %d: bad flag %q", lineno, f[1])
		}
		if flag&flagUnmapped != 0 || string(f[2]) == "*" {
			continue
		}
		pos, err := strconv.Atoi(string(f[3]))
		if err != nil || pos < 1 {
			return nil, fmt.Errorf("bowtie: sam line %d: bad pos %q", lineno, f[3])
		}
		a := Alignment{Pos: pos - 1, Reverse: flag&flagReverse != 0}
		// CIGAR "<n>M" carries the read length; NM:i carries mismatches.
		if c, ok := bytes.CutSuffix(f[5], []byte("M")); ok {
			if n, err := strconv.Atoi(string(c)); err == nil {
				a.ReadLen = n
			}
		}
		for len(tags) > 0 {
			var tag []byte
			tag, tags, _ = bytes.Cut(tags, tab)
			if v, ok := bytes.CutPrefix(tag, []byte("NM:i:")); ok {
				if n, err := strconv.Atoi(string(v)); err == nil {
					a.Mismatches = n
				}
			}
		}
		if resolve != nil {
			if a, err = resolve(lineno, f[0], f[2], a); err != nil {
				return nil, err
			}
		} else {
			id, ok := rnames[string(f[2])]
			if !ok {
				id = string(f[2])
				rnames[id] = id
			}
			a.ContigID = id
		}
		readIDs.Add(f[0])
		out.Append(a)
	}
	als := out.Slice()
	readIDs.Each(func(i int, id string) { als[i].ReadID = id })
	return als, sc.Err()
}

var tab = []byte{'\t'}
