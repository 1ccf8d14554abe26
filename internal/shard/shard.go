// Package shard distributes the pipeline's k-mer lookup state across
// MPI ranks as a HipMer-style distributed hash table: k-mer space is
// partitioned by kmer.OwnerRank, each rank holds only its shard of the
// count/occurrence/weld tables in frozen flat stores, and lookups that
// land on a remote shard are batched into aggregated exchange rounds
// over the pairwise Alltoallv instead of being replicated everywhere.
//
// The package provides the shard-layer primitives that are independent
// of what is being looked up: the deterministic owner map under rank
// deaths (Owners), the k-mer query wire format (PackKmers), and the
// two-collective query/reply round (Round) with its nonblocking,
// double-buffered form (AsyncRound). The shard stores themselves are
// kmer.Multimap tables, the same build as the replicated ones; what a
// row means — contig occurrences, weld references — and how it is
// encoded in an answer is the caller's.
package shard

import (
	"encoding/binary"
	"fmt"

	"gotrinity/internal/kmer"
	"gotrinity/internal/mpi"
)

// Owners maps each shard id (the static owner given by kmer.OwnerRank)
// to the rank currently serving it: a live rank serves its own shard,
// and a dead rank's shard is adopted by a survivor chosen by the same
// deterministic rule on every rank — the i-th shard of the dead set
// goes to alive[shard % len(alive)], mirroring the chunk-reassignment
// rule of the recovery layer. All ranks agreeing on the same dead set
// (via AgreeDead) therefore route to, and rebuild, the same shards
// without a leader. With no survivors the map is all -1.
func Owners(worldSize int, dead []int) []int {
	isDead := make([]bool, worldSize)
	for _, r := range dead {
		if r >= 0 && r < worldSize {
			isDead[r] = true
		}
	}
	alive := make([]int, 0, worldSize)
	for r := 0; r < worldSize; r++ {
		if !isDead[r] {
			alive = append(alive, r)
		}
	}
	owners := make([]int, worldSize)
	for s := range owners {
		switch {
		case !isDead[s]:
			owners[s] = s
		case len(alive) > 0:
			owners[s] = alive[s%len(alive)]
		default:
			owners[s] = -1
		}
	}
	return owners
}

// PackKmers encodes k-mers as fixed 8-byte little-endian words — the
// query wire format of a lookup round.
func PackKmers(ms []kmer.Kmer) []byte {
	out := make([]byte, 8*len(ms))
	for i, m := range ms {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(m))
	}
	return out
}

// UnpackKmers decodes a PackKmers payload, ignoring a trailing partial
// word (possible only on a corrupted exchange).
func UnpackKmers(b []byte) []kmer.Kmer {
	n := len(b) / 8
	out := make([]kmer.Kmer, n)
	for i := 0; i < n; i++ {
		out[i] = kmer.Kmer(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Round runs one aggregated remote-lookup round: queries[d] are the
// k-mers this rank addresses to rank d (self-addressed queries are
// answered locally through the same path and move no wire bytes), and
// answer encodes this rank's reply to one incoming k-mer by appending
// the row payload to dst and returning the extended slice. Two
// pairwise Alltoallv collectives move the batched queries and the
// uvarint-framed replies; resps[d][i] is the answer frame for
// queries[d][i], non-nil (possibly empty) when it arrived and nil when
// it was lost — an owner that died mid-round, a dropped segment, or a
// dropped contribution all surface as nil frames for the caller's
// retry loop to re-request under a freshly agreed owner map.
//
// The error is the first collective failure observed (eviction of this
// rank aborts the round before the reply leg; peer deaths and timeouts
// still return the partial resps).
func Round(c *mpi.Comm, queries [][]kmer.Kmer, answer func(m kmer.Kmer, dst []byte) []byte) (resps [][][]byte, err error) {
	size := c.Size()
	send := make([][]byte, size)
	for d := 0; d < size; d++ {
		send[d] = PackKmers(queries[d])
	}
	in, qerr := c.TryAlltoallv(send)
	if qerr != nil {
		if fe, ok := mpi.AsFault(qerr); ok && fe.Evicted {
			return nil, qerr
		}
	}
	// Serve whatever arrived, even on a degraded exchange: every frame
	// answered now is one fewer to re-request next round.
	reply := make([][]byte, size)
	var scratch []byte
	for s, blob := range in {
		qs := UnpackKmers(blob)
		if len(qs) == 0 {
			continue
		}
		var buf []byte
		for _, m := range qs {
			scratch = answer(m, scratch[:0])
			buf = binary.AppendUvarint(buf, uint64(len(scratch)))
			buf = append(buf, scratch...)
		}
		reply[s] = buf
	}
	out, rerr := c.TryAlltoallv(reply)
	if rerr != nil {
		if fe, ok := mpi.AsFault(rerr); ok && fe.Evicted {
			return nil, rerr
		}
	}
	var decErr error
	resps = make([][][]byte, size)
	for d := 0; d < size; d++ {
		frames, ferr := decodeFrames(out[d], len(queries[d]))
		resps[d] = frames
		if ferr != nil && decErr == nil {
			decErr = fmt.Errorf("shard: reply from rank %d: %w", d, ferr)
		}
	}
	// A malformed blob from a live peer is corruption, not a fault the
	// retry loop can route around — it outranks the collective errors.
	if err = decErr; err == nil {
		if err = qerr; err == nil {
			err = rerr
		}
	}
	return resps, err
}

// decodeFrames splits a reply blob into want uvarint-framed answers.
// An empty blob is a lost or dropped segment: every frame decodes as
// nil (the caller's retry loop re-requests them) and there is no
// error. A non-empty blob must frame exactly want answers covering the
// whole payload — anything else is a malformed reply and returns an
// explicit error alongside the frames decoded so far, instead of
// silently truncating.
func decodeFrames(blob []byte, want int) ([][]byte, error) {
	frames := make([][]byte, want)
	if len(blob) == 0 {
		return frames, nil
	}
	off := 0
	for i := 0; i < want; i++ {
		n, w := binary.Uvarint(blob[off:])
		// Replies are framed with AppendUvarint, so a non-minimal length
		// prefix is corruption too: accepted blobs are exactly the
		// canonical wire form (decode∘encode is the identity).
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

// uvarintLen is the canonical encoded width of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
