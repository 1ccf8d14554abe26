package chrysalis

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"

	"gotrinity/internal/textio"
)

// File formats used between the stage executables, mirroring how the
// real Trinity modules "exchange data through files" (§II-A).
//
// Components: one line per component, "component <id>: <idx> <idx> ...".
// Assignments: one line per read, "<read> <component> <matches>".

// WriteComponents renders components in the text format ReadComponents
// parses, each line built in one reused buffer.
func WriteComponents(w io.Writer, comps []Component) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var line []byte
	for _, c := range comps {
		line = append(line[:0], "component "...)
		line = strconv.AppendInt(line, int64(c.ID), 10)
		line = append(line, ':')
		for _, ci := range c.Contigs {
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(ci), 10)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadComponents parses the WriteComponents format, each line in the
// scanner's buffer.
func ReadComponents(r io.Reader) ([]Component, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var out []Component
	lineno := 0
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rest, ok := bytes.CutPrefix(line, []byte("component "))
		if !ok {
			return nil, fmt.Errorf("chrysalis: components line %d: missing prefix", lineno)
		}
		head, tail, ok := bytes.Cut(rest, []byte(":"))
		if !ok {
			return nil, fmt.Errorf("chrysalis: components line %d: missing ':'", lineno)
		}
		id, err := strconv.Atoi(string(bytes.TrimSpace(head)))
		if err != nil {
			return nil, fmt.Errorf("chrysalis: components line %d: bad id %q", lineno, head)
		}
		comp := Component{ID: id}
		for f, rest := textio.NextField(tail); len(f) > 0; f, rest = textio.NextField(rest) {
			ci, err := strconv.Atoi(string(f))
			if err != nil {
				return nil, fmt.Errorf("chrysalis: components line %d: bad contig index %q", lineno, f)
			}
			comp.Contigs = append(comp.Contigs, ci)
		}
		out = append(out, comp)
	}
	return out, sc.Err()
}

// WriteComponentsFile writes components to path.
func WriteComponentsFile(path string, comps []Component) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteComponents(f, comps); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadComponentsFile reads components from path.
func ReadComponentsFile(path string) ([]Component, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadComponents(f)
}

// WriteAssignments renders read assignments as whitespace-separated
// triples, each line built in one reused buffer.
func WriteAssignments(w io.Writer, as []Assignment) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var line []byte
	for _, a := range as {
		line = strconv.AppendInt(line[:0], int64(a.Read), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(a.Component), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(a.Matches), 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadAssignments parses the WriteAssignments format, each line in the
// scanner's buffer.
func ReadAssignments(r io.Reader) ([]Assignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var out textio.Blocks[Assignment]
	lineno := 0
	for sc.Scan() {
		lineno++
		var fields [4][]byte // a fourth is one too many
		n, rest := 0, sc.Bytes()
		for ; n < len(fields); n++ {
			if fields[n], rest = textio.NextField(rest); len(fields[n]) == 0 {
				break
			}
		}
		if n == 0 {
			continue
		}
		if n != 3 {
			return nil, fmt.Errorf("chrysalis: assignments line %d: want 3 fields, got %d", lineno, len(bytes.Fields(sc.Bytes())))
		}
		var vals [3]int64
		for i, f := range fields[:3] {
			v, err := strconv.ParseInt(string(f), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("chrysalis: assignments line %d: bad value %q", lineno, f)
			}
			vals[i] = v
		}
		out.Append(Assignment{Read: int32(vals[0]), Component: int32(vals[1]), Matches: int32(vals[2])})
	}
	return out.Slice(), sc.Err()
}

// WriteAssignmentsFile writes assignments to path.
func WriteAssignmentsFile(path string, as []Assignment) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteAssignments(f, as); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadAssignmentsFile reads assignments from path.
func ReadAssignmentsFile(path string) ([]Assignment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAssignments(f)
}
