// Package shard distributes the pipeline's k-mer lookup state across
// MPI ranks as a HipMer-style distributed hash table: k-mer space is
// partitioned by kmer.OwnerRank, each rank holds only its shard of the
// count/occurrence/weld tables, and lookups that
// land on a remote shard are batched into aggregated exchange rounds
// over the pairwise Alltoallv instead of being replicated everywhere.
//
// The package provides the shard-layer primitives that are independent
// of what is being looked up: the deterministic owner map under rank
// deaths (Owners), the k-mer query wire format (AppendKmers), the
// caller-owned round state that routes queries and holds their answers
// (Batch), and the two-collective query/reply round (Round) with its
// nonblocking, double-buffered form (AsyncRound). The shard stores themselves are
// kmer.Multimap tables, the same build as the replicated ones; what a
// row means — contig occurrences, weld references — and how it is
// encoded in an answer is the caller's.
package shard

import (
	"encoding/binary"
	"fmt"
	"slices"

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

// AppendKmers appends k-mers to dst as fixed 8-byte little-endian
// words — the query wire format of a lookup round.
func AppendKmers(dst []byte, ms []kmer.Kmer) []byte {
	for _, m := range ms {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m))
	}
	return dst
}

// Batch is one lookup round's caller-owned state: the queries routed to
// their owners in one owner-major array, and where each one's answer
// sits in the reply blobs. Route refills it in place, so a batch reused
// round after round allocates only when a round outgrows every earlier
// one. A batch must not be reused while the bodies of its last round
// are still needed: they alias its buffers and its reply blobs.
type Batch struct {
	// Queries[d] are the k-mers addressed to rank d: sub-slices of one
	// owner-major array.
	Queries [][]kmer.Kmer
	slot    []int32 // slot[i]: where query i of the last Route sits in flat
	flat    []kmer.Kmer
	// at[p] locates flat[p]'s answer frame: its offset in the reply blob
	// of flat[p]'s owner, lost while it is -1, and -2-o for a frame at o
	// in late (an answer a later round fetched).
	at    []int32
	split []int    // owner d's queries are flat[split[d]:split[d+1]]
	blobs [][]byte // blobs[d]: the reply blob owner d's frames sit in
	late  []byte   // frames SetBody recorded
	self  []byte   // this rank's answers to its own queries, framed
}

// lost marks a query whose answer has not arrived.
const lost = -1

// Route addresses queries to the ranks owner names, in [0, size), with
// one counting pass: rank d's sub-slice keeps the queries' order, and
// every answer starts out lost.
func (b *Batch) Route(size int, queries []kmer.Kmer, owner func(kmer.Kmer) int) {
	n := len(queries)
	b.slot = slices.Grow(b.slot[:0], n)[:n]
	b.flat = slices.Grow(b.flat[:0], n)[:n]
	b.at = slices.Grow(b.at[:0], n)[:n]
	for i := range b.at {
		b.at[i] = lost
	}
	b.late = b.late[:0]
	b.split = slices.Grow(b.split[:0], size+1)[:size+1]
	clear(b.split)
	for i, m := range queries {
		o := owner(m)
		b.slot[i] = int32(o)
		b.split[o+1]++
	}
	for d := 0; d < size; d++ {
		b.split[d+1] += b.split[d]
	}
	// split[o] walks owner o's slots and ends on the next owner's start,
	// so a shift restores it.
	for i, m := range queries {
		o := b.slot[i]
		p := b.split[o]
		b.split[o]++
		b.flat[p] = m
		b.slot[i] = int32(p)
	}
	copy(b.split[1:], b.split[:size])
	b.split[0] = 0
	b.Queries = slices.Grow(b.Queries[:0], size)[:size]
	b.blobs = slices.Grow(b.blobs[:0], size)[:size]
	clear(b.blobs)
	for d := 0; d < size; d++ {
		lo, hi := b.split[d], b.split[d+1]
		b.Queries[d] = b.flat[lo:hi:hi]
	}
}

// Body returns the answer to query i of the last Route: nil while it
// is lost, non-nil (possibly empty) once it arrived.
func (b *Batch) Body(i int) []byte {
	p := int(b.slot[i])
	o := b.at[p]
	switch {
	case o == lost:
		return nil
	case o < lost:
		return frameAt(b.late, int(-2-o))
	}
	// Its owner is the last d with split[d] <= p.
	d, hi := 0, len(b.split)-2
	for d < hi {
		if mid := (d + hi + 1) / 2; b.split[mid] <= p {
			d = mid
		} else {
			hi = mid - 1
		}
	}
	return frameAt(b.blobs[d], int(o))
}

// SetBody records body as the answer to query i of the last Route — an
// answer a later round fetched for it. A nil body marks it lost.
func (b *Batch) SetBody(i int, body []byte) {
	p := b.slot[i]
	if body == nil {
		b.at[p] = lost
		return
	}
	b.at[p] = int32(-2 - len(b.late))
	b.late = binary.AppendUvarint(b.late, uint64(len(body)))
	b.late = append(b.late, body...)
}

// Lost counts the queries of the last Route whose answers are lost.
func (b *Batch) Lost() int {
	n := 0
	for _, o := range b.at {
		if o == lost {
			n++
		}
	}
	return n
}

// decode records blob as owner d's reply to its queries (see decodeAt).
func (b *Batch) decode(d int, blob []byte) error {
	b.blobs[d] = blob
	return decodeAt(blob, b.at[b.split[d]:b.split[d+1]])
}

// drop marks every answer owner d owed as lost: an empty blob decodes
// that way, without error.
func (b *Batch) drop(d int) { _ = b.decode(d, nil) }

// frameAt returns the payload of the well-formed frame at offset o of
// blob: non-nil, since the blob holds at least its length prefix.
func frameAt(blob []byte, o int) []byte {
	n, w := binary.Uvarint(blob[o:])
	o += w
	return blob[o : o+int(n) : o+int(n)]
}

// appendAnswers frames answer's reply to every whole 8-byte query word
// of in onto dst, reading the queries in place; scratch is the reused
// buffer answer appends into.
func appendAnswers(dst, in []byte, answer func(kmer.Kmer, []byte) []byte, scratch *[]byte) []byte {
	for o := 0; o+8 <= len(in); o += 8 {
		dst = appendFrame(dst, kmer.Kmer(binary.LittleEndian.Uint64(in[o:])), answer, scratch)
	}
	return dst
}

// appendFrame appends one uvarint-framed answer to m onto dst.
func appendFrame(dst []byte, m kmer.Kmer, answer func(kmer.Kmer, []byte) []byte, scratch *[]byte) []byte {
	*scratch = answer(m, (*scratch)[:0])
	dst = binary.AppendUvarint(dst, uint64(len(*scratch)))
	return append(dst, *scratch...)
}

// Round runs one aggregated remote-lookup round over b's routed
// queries (self-addressed queries are answered locally through the same
// path and move no wire bytes); answer encodes this rank's reply to one
// incoming k-mer by appending the row payload to dst and returning the
// extended slice. Two pairwise Alltoallv collectives move the batched
// queries and the uvarint-framed replies, which decode into b: Body(i)
// is non-nil (possibly empty) when an answer arrived and nil when it was
// lost — an owner that died mid-round, a dropped segment, or a dropped
// contribution all surface as nil bodies for the caller's retry loop to
// re-request under a freshly agreed owner map.
//
// The error is the first collective failure observed (eviction of this
// rank aborts the round before the reply leg; peer deaths and timeouts
// still fill the partial bodies).
func Round(c *mpi.Comm, b *Batch, answer func(m kmer.Kmer, dst []byte) []byte) error {
	size := c.Size()
	packed := AppendKmers(nil, b.flat)
	send := make([][]byte, size)
	for d := 0; d < size; d++ {
		send[d] = packed[8*b.split[d] : 8*b.split[d+1]]
	}
	in, qerr := c.TryAlltoallv(send)
	if qerr != nil {
		if fe, ok := mpi.AsFault(qerr); ok && fe.Evicted {
			return qerr
		}
	}
	// Serve whatever arrived, even on a degraded exchange: every frame
	// answered now is one fewer to re-request next round.
	reply := make([][]byte, size)
	var scratch []byte
	for s, blob := range in {
		if len(blob) >= 8 {
			reply[s] = appendAnswers(nil, blob, answer, &scratch)
		}
	}
	out, rerr := c.TryAlltoallv(reply)
	if rerr != nil {
		if fe, ok := mpi.AsFault(rerr); ok && fe.Evicted {
			return rerr
		}
	}
	var decErr error
	for d := 0; d < size; d++ {
		if ferr := b.decode(d, out[d]); ferr != nil && decErr == nil {
			decErr = fmt.Errorf("shard: reply from rank %d: %w", d, ferr)
		}
	}
	// A malformed blob from a live peer is corruption, not a fault the
	// retry loop can route around — it outranks the collective errors.
	if decErr != nil {
		return decErr
	}
	if qerr != nil {
		return qerr
	}
	return rerr
}

// decodeAt splits a reply blob into len(at) uvarint-framed answers,
// recording each frame's offset in blob. An empty blob is a lost or
// dropped segment: every answer is marked lost (the caller's retry loop
// re-requests them) and there is no error. A non-empty blob must frame
// exactly len(at) answers covering the whole payload — anything else is
// a malformed reply and returns an explicit error, with the frames
// decoded so far recorded and the rest lost, instead of silently
// truncating.
func decodeAt(blob []byte, at []int32) error {
	if len(blob) == 0 {
		for i := range at {
			at[i] = lost
		}
		return nil
	}
	off := 0
	for i := range at {
		n, w := binary.Uvarint(blob[off:])
		// Replies are framed with AppendUvarint, so a non-minimal length
		// prefix is corruption too: accepted blobs are exactly the
		// canonical wire form (decode∘encode is the identity).
		if w <= 0 || w != uvarintLen(n) || n > uint64(len(blob)) || off+w+int(n) > len(blob) {
			for j := i; j < len(at); j++ {
				at[j] = lost
			}
			return fmt.Errorf("malformed frame %d/%d at offset %d of %d-byte blob", i, len(at), off, len(blob))
		}
		at[i] = int32(off)
		off += w + int(n)
	}
	if off != len(blob) {
		return fmt.Errorf("%d trailing bytes after %d frames", len(blob)-off, len(at))
	}
	return nil
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
