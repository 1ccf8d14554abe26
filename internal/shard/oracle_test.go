package shard

import (
	"encoding/binary"
	"fmt"

	"gotrinity/internal/kmer"
	"gotrinity/internal/mpi"
)

// The reference forms the production codec replaced, kept as oracles:
// a payload decoder that copies the queries out, a frame decoder that
// allocates its own frame table, and the per-owner query lists the
// rounds took before they took a Batch.

// unpackKmers decodes an AppendKmers payload, ignoring a trailing
// partial word (possible only on a corrupted exchange).
func unpackKmers(b []byte) []kmer.Kmer {
	n := len(b) / 8
	out := make([]kmer.Kmer, n)
	for i := 0; i < n; i++ {
		out[i] = kmer.Kmer(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// decodeFrames splits a reply blob into want uvarint-framed answers in
// a table of its own. An empty blob decodes as want nil frames and no
// error; a non-empty blob must frame exactly want answers covering the
// whole payload, else the frames decoded so far come back with an
// error.
func decodeFrames(blob []byte, want int) ([][]byte, error) {
	frames := make([][]byte, want)
	if len(blob) == 0 {
		return frames, nil
	}
	off := 0
	for i := 0; i < want; i++ {
		n, w := binary.Uvarint(blob[off:])
		if w <= 0 || w != uvarintLen(n) || n > uint64(len(blob)) || off+w+int(n) > len(blob) {
			return frames, fmt.Errorf("malformed frame %d/%d at offset %d of %d-byte blob", i, want, off, len(blob))
		}
		off += w
		frames[i] = blob[off : off+int(n) : off+int(n)]
		off += int(n)
	}
	if off != len(blob) {
		return frames, fmt.Errorf("%d trailing bytes after %d frames", len(blob)-off, want)
	}
	return frames, nil
}

// batchOf routes per-owner query lists (queries[d] addressed to rank d)
// into a Batch whose Queries equal them.
func batchOf(queries [][]kmer.Kmer) *Batch {
	var flat []kmer.Kmer
	var owner []int
	for d, qs := range queries {
		for range qs {
			owner = append(owner, d)
		}
		flat = append(flat, qs...)
	}
	i := 0
	b := &Batch{}
	b.Route(len(queries), flat, func(kmer.Kmer) int { i++; return owner[i-1] })
	return b
}

// roundFrames runs Round over per-owner query lists and returns the
// answers per owner, parallel to queries.
func roundFrames(c *mpi.Comm, queries [][]kmer.Kmer, answer func(kmer.Kmer, []byte) []byte) ([][][]byte, error) {
	b := batchOf(queries)
	err := Round(c, b, answer)
	return frames(b), err
}
