package seq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// FastqReader streams records from four-line FASTQ input.
type FastqReader struct {
	lines lineReader
}

// NewFastqReader wraps r in a streaming FASTQ parser.
func NewFastqReader(r io.Reader) *FastqReader {
	return &FastqReader{lines: lineReader{br: bufio.NewReaderSize(r, 1<<16)}}
}

// Read returns the next record, or io.EOF when input is exhausted.
func (fr *FastqReader) Read() (Record, error) {
	var rec Record
	header, err := fr.line()
	if err != nil {
		return rec, err
	}
	if len(header) == 0 || header[0] != '@' {
		return rec, fmt.Errorf("seq: malformed FASTQ header %q", truncate(header))
	}
	rec.ID, rec.Desc = splitHeader(string(header[1:]))
	s, err := fr.line()
	if err != nil {
		return rec, truncated(err, "seq: truncated FASTQ record %s", rec.ID)
	}
	rec.Seq = make([]byte, len(s))
	upperInto(rec.Seq, s)
	plus, err := fr.line()
	if err != nil && err != io.EOF {
		return rec, err
	}
	if err != nil || len(plus) == 0 || plus[0] != '+' {
		return rec, fmt.Errorf("seq: missing '+' line in FASTQ record %s", rec.ID)
	}
	q, err := fr.line()
	if err != nil {
		return rec, truncated(err, "seq: truncated quality in FASTQ record %s", rec.ID)
	}
	if len(q) != len(rec.Seq) {
		return rec, fmt.Errorf("seq: quality length %d != sequence length %d in %s",
			len(q), len(rec.Seq), rec.ID)
	}
	rec.Qual = bytes.Clone(q)
	return rec, nil
}

// truncated reports a record cut short: at the end of the input as the
// formatted message, on a read error as that error.
func truncated(err error, format, id string) error {
	if err == io.EOF {
		return fmt.Errorf(format, id)
	}
	return err
}

// ReadAll drains the reader into a slice of records.
func (fr *FastqReader) ReadAll() ([]Record, error) {
	var recs []Record
	for {
		rec, err := fr.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// line returns the next line, skipping stray blank ones; the slice is
// valid until the next call.
func (fr *FastqReader) line() ([]byte, error) {
	for {
		line, err := fr.lines.line()
		if err != nil || len(line) > 0 || fr.lines.last {
			return line, err
		}
	}
}

// FastqWriter writes four-line FASTQ records.
type FastqWriter struct {
	bw *bufio.Writer
}

// NewFastqWriter returns a buffered FASTQ writer.
func NewFastqWriter(w io.Writer) *FastqWriter {
	return &FastqWriter{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Write emits one record; a missing quality string is synthesised as
// maximum quality so FASTA-sourced records remain writable.
func (fw *FastqWriter) Write(rec *Record) error {
	q := rec.Qual
	if q == nil {
		q = bytes.Repeat([]byte{'I'}, len(rec.Seq))
	}
	header := rec.ID
	if rec.Desc != "" {
		header += " " + rec.Desc
	}
	_, err := fmt.Fprintf(fw.bw, "@%s\n%s\n+\n%s\n", header, rec.Seq, q)
	return err
}

// Flush commits buffered output.
func (fw *FastqWriter) Flush() error { return fw.bw.Flush() }
