package seq

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"gotrinity/internal/textio"
)

// FastaReader streams records from FASTA input. It handles multi-line
// sequences and arbitrarily large files without loading them whole.
// Lines are parsed in the input buffer; each record costs its header
// string and one exact-size sequence.
type FastaReader struct {
	lines lineReader
	next  []byte // buffered header line beginning with '>', valid until the next read
	body  []byte // the record's sequence lines, reused
	eof   bool
}

// NewFastaReader wraps r in a streaming FASTA parser.
func NewFastaReader(r io.Reader) *FastaReader {
	return &FastaReader{lines: lineReader{br: bufio.NewReaderSize(r, 1<<16)}}
}

// Read returns the next record, or io.EOF when the input is exhausted.
func (fr *FastaReader) Read() (Record, error) {
	return fr.read(nil)
}

// read is Read, or, with a batch, ReadAll's step: the sequence is
// carved from the batch's block and the header left to the batch.
func (fr *FastaReader) read(b *batch) (Record, error) {
	var rec Record
	header, err := fr.headerLine()
	if err != nil {
		return rec, err
	}
	if len(header) == 0 || header[0] != '>' {
		return rec, fmt.Errorf("seq: malformed FASTA header %q", truncate(header))
	}
	if b == nil {
		rec.ID, rec.Desc = splitHeader(string(header[1:]))
	} else {
		b.headers.Add(header[1:])
	}
	fr.body = fr.body[:0]
	for {
		line, err := fr.lines.line()
		if err == io.EOF {
			fr.eof = true
			break
		}
		if err != nil {
			return rec, err
		}
		if len(line) > 0 && line[0] == '>' {
			fr.next = line
			break
		}
		fr.body = append(fr.body, line...)
	}
	if len(fr.body) > 0 {
		rec.Seq = b.alloc(len(fr.body))
		upperInto(rec.Seq, fr.body)
	}
	return rec, nil
}

// ReadAll drains the reader into a slice of records. Their sequences
// are carved out of shared blocks, each capped at its own length, and
// their IDs and descriptions are substrings of one string.
func (fr *FastaReader) ReadAll() ([]Record, error) {
	var recs textio.Blocks[Record]
	var b batch
	for {
		rec, err := fr.read(&b)
		if err != nil {
			out := recs.Slice()
			b.headers.Each(func(i int, h string) {
				if i < len(out) { // not the header of a record that failed
					out[i].ID, out[i].Desc = splitHeader(h)
				}
			})
			if err == io.EOF {
				err = nil
			}
			return out, err
		}
		recs.Append(rec)
	}
}

func (fr *FastaReader) headerLine() ([]byte, error) {
	if fr.next != nil {
		h := fr.next
		fr.next = nil
		return h, nil
	}
	if fr.eof {
		return nil, io.EOF
	}
	for {
		line, err := fr.lines.line()
		if err != nil {
			return nil, err
		}
		if len(line) == 0 {
			continue // skip blank lines between records
		}
		return line, nil
	}
}

// lineReader reads lines in a bufio.Reader's own buffer.
type lineReader struct {
	br   *bufio.Reader
	long []byte // a line longer than br's buffer, assembled here
	last bool   // the line just returned had no '\n': the input ended
}

// line returns the next line without its trailing run of '\r' and
// '\n'. The slice is valid until the next call. It returns io.EOF only
// when no bytes remain at all, and any other read error as it is.
func (lr *lineReader) line() ([]byte, error) {
	raw, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], raw...)
		for err == bufio.ErrBufferFull {
			raw, err = lr.br.ReadSlice('\n')
			lr.long = append(lr.long, raw...)
		}
		raw = lr.long
	}
	if err != nil && (err != io.EOF || len(raw) == 0) {
		return nil, err
	}
	lr.last = err != nil
	n := len(raw)
	for n > 0 && (raw[n-1] == '\n' || raw[n-1] == '\r') {
		n--
	}
	return raw[:n], nil
}

// batchBlock is the size of the blocks ReadAll carves sequences from;
// a sequence over an eighth of it gets its own allocation.
const batchBlock = 256 << 10

// batch is what ReadAll's records share: the block their sequences are
// carved from (exact-length, capped slices) and their headers. A nil
// batch allocates each sequence on its own.
type batch struct {
	block   []byte
	headers textio.Strings
}

func (b *batch) alloc(n int) []byte {
	if b == nil || n > batchBlock/8 {
		return make([]byte, n)
	}
	if cap(b.block)-len(b.block) < n {
		b.block = make([]byte, 0, batchBlock)
	}
	i := len(b.block)
	b.block = b.block[:i+n]
	return b.block[i : i+n : i+n]
}

func splitHeader(h string) (id, desc string) {
	s := strings.TrimSpace(h)
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i], strings.TrimSpace(s[i+1:])
	}
	return s, ""
}

func truncate(b []byte) string {
	const max = 40
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

// FastaWriter writes records in FASTA format with fixed line wrapping.
type FastaWriter struct {
	bw   *bufio.Writer
	Wrap int // bases per line; <=0 means no wrapping
}

// NewFastaWriter returns a writer that wraps sequence lines at 70 bases.
func NewFastaWriter(w io.Writer) *FastaWriter {
	return &FastaWriter{bw: bufio.NewWriterSize(w, 1<<16), Wrap: 70}
}

// Write emits one record.
func (fw *FastaWriter) Write(rec *Record) error {
	if _, err := fw.bw.WriteString(">"); err != nil {
		return err
	}
	if _, err := fw.bw.WriteString(rec.ID); err != nil {
		return err
	}
	if rec.Desc != "" {
		if _, err := fw.bw.WriteString(" " + rec.Desc); err != nil {
			return err
		}
	}
	if err := fw.bw.WriteByte('\n'); err != nil {
		return err
	}
	s := rec.Seq
	if fw.Wrap <= 0 {
		if _, err := fw.bw.Write(s); err != nil {
			return err
		}
		return fw.bw.WriteByte('\n')
	}
	for len(s) > 0 {
		n := fw.Wrap
		if n > len(s) {
			n = len(s)
		}
		if _, err := fw.bw.Write(s[:n]); err != nil {
			return err
		}
		if err := fw.bw.WriteByte('\n'); err != nil {
			return err
		}
		s = s[n:]
	}
	return nil
}

// Flush commits buffered output.
func (fw *FastaWriter) Flush() error { return fw.bw.Flush() }

// ReadFastaFile loads every record of a FASTA file into memory.
func ReadFastaFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return NewFastaReader(f).ReadAll()
}

// WriteFastaFile writes records to path, creating or truncating it.
func WriteFastaFile(path string, recs []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fw := NewFastaWriter(f)
	for i := range recs {
		if err := fw.Write(&recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := fw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
