package shard

import (
	"fmt"

	"gotrinity/internal/kmer"
	"gotrinity/internal/mpi"
)

// AsyncRound is the Start/Wait split of Round that the overlap
// pipeline is built on: Start posts one tile's query segments over
// nonblocking Isend/Irecv and returns immediately, so the caller can
// compute on the previous tile's answers while the network moves this
// one; Wait serves the incoming queries, exchanges the replies, and
// decodes the frames into the tile's Batch. The wire protocol per tile
// is the same two-phase query/reply exchange as Round — AppendKmers
// query segments, uvarint-framed replies — carried on per-tile point-to-point tags
// instead of the Alltoallv collective, with exact addressed-byte
// metering per tile (TileStats).
//
// The caller contract that keeps the pipeline deadlock-free: every
// live rank calls Start(t) and Wait(t) for the same deterministic
// sequence of tile ids t (ranks with no queries of their own still
// participate — their segments are empty — because Wait(t) also
// serves the peers' tile-t queries). At most a bounded number of
// tiles may be in flight (Started but not Waited); the double-buffered
// pipeline keeps exactly one.
//
// A tile allocates only what the wire hands it: Start packs every
// segment into one reused buffer and Wait builds every reply in
// another (Isend copies its payload), incoming queries are read in
// place, and each reply decodes straight into the caller's Batch.
//
// Fault composition matches Round: answers from owners that die
// mid-tile (or whose segments are dropped) surface as nil bodies for
// the caller's retry loop — the caller re-requests them through the
// blocking fetchLedger/AgreeDead path after the pipeline drains, under
// a freshly agreed owner map.
type AsyncRound struct {
	c       *mpi.Comm
	tagBase int
	answer  func(m kmer.Kmer, dst []byte) []byte
	tiles   map[int]*asyncTile
	pack    []byte // Start's query segment, reused: Isend copies it
	reply   []byte // Wait's reply segment, reused likewise
	scratch []byte // one answer, before its frame header
}

// asyncTile is one in-flight tile: the batch this rank routed and its
// answers decode into, the posted query-leg receives, and the per-tile
// byte meter.
type asyncTile struct {
	b     *Batch
	qrecv []*mpi.Request
	stats mpi.Stats
}

// NewAsyncRound builds the per-phase pipeline state. tagBase reserves
// a tag range for this phase — tiles use tagBase+2*t (query leg) and
// tagBase+2*t+1 (reply leg), so concurrent phases must use disjoint
// bases. answer encodes this rank's reply to one incoming k-mer, as in
// Round.
func NewAsyncRound(c *mpi.Comm, tagBase int, answer func(m kmer.Kmer, dst []byte) []byte) *AsyncRound {
	return &AsyncRound{c: c, tagBase: tagBase, answer: answer, tiles: map[int]*asyncTile{}}
}

func (a *AsyncRound) qtag(tile int) int { return a.tagBase + 2*tile }
func (a *AsyncRound) rtag(tile int) int { return a.tagBase + 2*tile + 1 }

// Start posts tile's query segments from a routed batch: b.Queries[d]
// are the k-mers this rank addresses to rank d (self-addressed queries
// are answered locally in Wait and move no wire bytes). Every peer gets
// a segment — empty when this rank has nothing to ask it — because the
// peer's Wait(tile) expects one query segment per live rank. b belongs
// to the tile until Wait(tile) returns.
func (a *AsyncRound) Start(tile int, b *Batch) {
	size, rank := a.c.Size(), a.c.Rank()
	if len(b.Queries) != size {
		panic(fmt.Sprintf("shard: async round needs %d query sets, got %d", size, len(b.Queries)))
	}
	if _, dup := a.tiles[tile]; dup {
		panic(fmt.Sprintf("shard: tile %d already started", tile))
	}
	t := &asyncTile{b: b, qrecv: make([]*mpi.Request, size)}
	// Send legs walk rank-shifted orders like Alltoallv, so the pairwise
	// traffic does not converge on rank 0 first.
	for off := 1; off < size; off++ {
		dst := (rank + off) % size
		a.pack = AppendKmers(a.pack[:0], b.Queries[dst])
		a.c.Isend(dst, a.qtag(tile), a.pack)
		t.stats.BytesSent += int64(len(a.pack))
		t.stats.Messages++
	}
	for off := 1; off < size; off++ {
		src := (rank - off + size) % size
		t.qrecv[src] = a.c.Irecv(src, a.qtag(tile))
	}
	a.tiles[tile] = t
}

// Wait completes a started tile: it collects the peers' query
// segments, serves them through the answer callback, exchanges the
// framed replies, and decodes them into the batch Start got —
// b.Body(i) is the answer to the batch's query i, nil when it was lost
// (dead owner, dropped segment, timeout). stats meters the exact
// addressed wire bytes this tile moved from this rank's perspective
// (query + reply legs, sends and receives; self-answers move none).
// The first observed failure is returned alongside the partial bodies;
// a malformed reply blob from a live peer returns a non-fault decode
// error.
func (a *AsyncRound) Wait(tile int) (stats mpi.Stats, err error) {
	t, ok := a.tiles[tile]
	if !ok {
		panic(fmt.Sprintf("shard: tile %d not started", tile))
	}
	delete(a.tiles, tile)
	size, rank := a.c.Size(), a.c.Rank()
	b := t.b

	// Query leg: one segment per peer. A dead source or timeout leaves
	// in[src] nil — distinct from a live peer's empty segment.
	var faultErr error
	in := make([][]byte, size)
	got := make([]bool, size)
	for src := 0; src < size; src++ {
		if t.qrecv[src] == nil {
			continue
		}
		data, err := t.qrecv[src].TryWait(0)
		if err != nil {
			if faultErr == nil {
				faultErr = err
			}
			continue
		}
		in[src] = data
		got[src] = true
		t.stats.BytesRecv += int64(len(data))
	}

	// Serve and reply. Every peer whose segment arrived gets a reply —
	// even an empty one — because it has a reply-leg receive posted.
	for off := 1; off < size; off++ {
		dst := (rank + off) % size
		if !got[dst] {
			continue
		}
		a.reply = appendAnswers(a.reply[:0], in[dst], a.answer, &a.scratch)
		a.c.Isend(dst, a.rtag(tile), a.reply)
		t.stats.BytesSent += int64(len(a.reply))
		t.stats.Messages++
	}

	// Reply leg, plus the local answers for self-addressed queries —
	// framed into the batch's own buffer (its bodies alias it, so it
	// lives as long as the batch) and decoded through the same frame
	// format, so present bodies are non-nil under exactly the same
	// conditions as Round's.
	rrecv := make([]*mpi.Request, size)
	for off := 1; off < size; off++ {
		src := (rank - off + size) % size
		rrecv[src] = a.c.Irecv(src, a.rtag(tile))
	}
	var decErr error
	for d := 0; d < size; d++ {
		if d == rank {
			b.self = b.self[:0]
			for _, m := range b.Queries[d] {
				b.self = appendFrame(b.self, m, a.answer, &a.scratch)
			}
			if ferr := b.decode(d, b.self); ferr != nil && decErr == nil {
				decErr = fmt.Errorf("shard: self reply: %w", ferr)
			}
			continue
		}
		data, err := rrecv[d].TryWait(0)
		if err != nil {
			b.drop(d)
			if faultErr == nil {
				faultErr = err
			}
			continue
		}
		t.stats.BytesRecv += int64(len(data))
		if ferr := b.decode(d, data); ferr != nil && decErr == nil {
			decErr = fmt.Errorf("shard: reply from rank %d: %w", d, ferr)
		}
	}
	if err = decErr; err == nil {
		err = faultErr
	}
	return t.stats, err
}
