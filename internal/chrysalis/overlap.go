package chrysalis

import (
	"slices"

	"gotrinity/internal/kmer"
	"gotrinity/internal/mpi"
	"gotrinity/internal/shard"
)

// Double-buffered tile pipeline over the sharded lookup rounds.
//
// A sharded rank splits its chunk list into deterministic tiles and
// pipelines them with one tile of lookahead: while tile t's answers are
// being computed on, tile t+1's lookup round is already in flight over
// nonblocking Isend/Irecv (shard.AsyncRound), so the fetch latency
// hides behind compute. Each tile state owns a dedup set: it collects
// the tile's distinct probes, its ids order the queries on the wire,
// and it is then the key half of the tile's replica, the answers
// decoded beside it as columns by id — so a tile hashes each query once.
// Two states alternate, because tile t+1 fills while tile t computes.
// Results are byte-identical to the replicated path — every probe gets
// the answer the full tables would give.
//
// Fault composition: during the pipeline, queries are routed by the
// static owner map only (no per-tile agreement — agreement is a
// blocking collective and must not interleave with in-flight tiles).
// Frames lost to a mid-tile death or drop defer their tile; after the
// pipeline fully drains, every rank enters the blocking
// fetchShardAnswers cleanup (ledger + AgreeDead + owner remap), which
// re-requests the lost frames from the adopting survivors, and the
// deferred tiles are then computed in tile order. On a clean run the
// cleanup degenerates to one agreement round with an all-zero ledger.
// Deferral can only happen under the fault layer, where per-chunk
// results go through the chunk-keyed checkpoint stores — so the late
// compute order never changes any output.

// Per-phase tag bases for the async rounds; concurrent phases must not
// overlap ranges (each phase uses tagBase+2t and tagBase+2t+1).
const (
	overlapTagLoop1 = 0x10000000
	overlapTagLoop2 = 0x20000000
	overlapTagR2T   = 0x30000000
)

// fetchTileChunks is the tile granularity: how many of a rank's chunks
// share one lookup round. Smaller tiles re-fetch more duplicate k-mers
// across tile boundaries (1 costs +21 % allocated bytes end to end);
// larger ones measure the same as 8 (EXPERIMENTS.md).
const fetchTileChunks = 8

// TileMeter meters one tile of an overlapped fetch/compute pipeline:
// the wire bytes its lookup round moved and the work units computed on
// its answers. The experiments layer replays the meters through the
// cluster cost model to estimate how much fetch wall-time the
// double-buffering hid (tile t+1's fetch runs under tile t's compute).
type TileMeter struct {
	Fetch        mpi.Stats // this tile's lookup-round traffic (this rank's view)
	Queries      int       // distinct k-mers the tile looked up
	ComputeUnits float64   // work units computed on this tile's answers
	Deferred     bool      // lost frames pushed this tile through the cleanup path
}

// tileCount returns the pipeline depth every rank must step through:
// the maximum over all ranks of their chunk-list tile count, never
// below one, so the Start/Wait sequences stay aligned world-wide even
// for ranks whose chunks run out early (they keep participating with
// empty tiles, serving the others' queries).
func tileCount(nchunks func(rank int) int, ranks int) int {
	tiles := 1
	for r := 0; r < ranks; r++ {
		if n := (nchunks(r) + fetchTileChunks - 1) / fetchTileChunks; n > tiles {
			tiles = n
		}
	}
	return tiles
}

// tileSlice cuts tile t out of a rank's chunk list (empty once the
// list is exhausted — the rank still steps the pipeline).
func tileSlice(chunks []int, t int) []int {
	lo := t * fetchTileChunks
	if lo >= len(chunks) {
		return nil
	}
	hi := lo + fetchTileChunks
	if hi > len(chunks) {
		hi = len(chunks)
	}
	return chunks[lo:hi]
}

// overlapFetcher drives one phase's double-buffered tile pipeline.
// collect emits tile t's probes (duplicates included), at most bound
// per tile; answer serves one incoming k-mer from this rank's shards;
// and compute consumes tile t's answers — set is the tile's dedup set,
// whose ids are the queries' indices, and b.Body(i) answers queries[i],
// all non-nil — returning the work units it spent. state holds the
// buffers the rank reuses. env, stage, exchanged and led parameterise
// the blocking fetchShardAnswers pass that re-requests anything the
// pipeline lost.
type overlapFetcher struct {
	c         *Comm
	env       *loopEnv
	stage     string // fetch-phase label in errors and lookup_round events
	exchanged *int64 // accumulates the addressed bytes the lookups moved
	led       *fetchLedger
	tagBase   int
	tiles     int
	bound     int
	state     *fetchState
	collect   func(tile int, add func(kmer.Kmer))
	answer    func(m kmer.Kmer, dst []byte) []byte
	compute   func(tile int, set *kmer.FlatSet, queries []kmer.Kmer, b *shard.Batch) (float64, error)
}

// fetchState is what one rank's tile pipelines reuse, tile after tile
// and phase after phase (GraphFromFasta's two loops share it): the
// two-state ring, and the distinct-query count of the last tile filled,
// which sizes the next dedup set the ring has to allocate.
type fetchState struct {
	ring     [2]*tileState
	distinct int
}

// tileState is one tile's flat state: its dedup set, whose dense ids
// are first-seen order and index the tile replica's answer columns,
// its distinct queries in that order, and the batch that routes them
// owner-major and holds their answers. The pipeline keeps two and
// reuses them tile after tile (a pipeline of one tile never allocates
// the second set); a deferred tile keeps its own until the cleanup has
// answered it and it has computed.
type tileState struct {
	tile    int
	seen    *kmer.FlatSet
	queries []kmer.Kmer
	batch   shard.Batch
}

// fill collects tile t's distinct probes into st's dedup set and routes
// them by the static owner map. Deduplication is per tile — a k-mer
// probed by two tiles is fetched by both, the price of not holding the
// union resident. A new set starts from the last tile's distinct count,
// or half the phase's emission bound, grows if that was low, and is fit
// to what it holds if that was high: the bound counts every repeat, so
// at high read coverage even half of it is many times the distinct
// count.
func (f *overlapFetcher) fill(st *tileState, t int) {
	fresh := st.seen == nil
	if fresh {
		hint := f.state.distinct
		if hint == 0 {
			hint = f.bound / 2
		}
		st.seen = kmer.NewFlatSet(hint)
	} else {
		st.seen.Reset()
	}
	seen := st.seen
	f.collect(t, func(m kmer.Kmer) { seen.Add(m) })
	if fresh {
		seen.Fit()
	}
	n := seen.Len()
	f.state.distinct = n
	st.tile = t
	st.queries = slices.Grow(st.queries[:0], n)[:n]
	seen.ForEach(func(m kmer.Kmer, id int32) { st.queries[id] = m })
	// Static owner routing only: remapping needs an agreement
	// collective, which cannot run while tiles are in flight. A dead
	// owner's frames come back nil and route through the cleanup.
	size := f.c.Size()
	st.batch.Route(size, st.queries, func(m kmer.Kmer) int { return kmer.OwnerRank(m, size) })
}

// run executes the pipeline: Start(0), then for each tile Start(t+1)
// before Wait(t) so exactly one lookahead round is in flight during
// every compute. Tiles with lost frames are deferred; after the
// drain, the blocking cleanup answers the leftovers and the deferred
// tiles compute in order. Returned meters are indexed by tile.
func (f *overlapFetcher) run() ([]TileMeter, error) {
	meters := make([]TileMeter, f.tiles)
	// A two-state ring: tile t+1 fills one state while tile t computes
	// on the other.
	fs := f.state
	if fs.ring[0] == nil {
		fs.ring = [2]*tileState{{}, {}}
	}
	ring := &fs.ring
	ar := shard.NewAsyncRound(f.c, f.tagBase, f.answer)
	start := func(t int) {
		st := ring[t%2]
		f.fill(st, t)
		ar.Start(t, &st.batch)
	}
	start(0)
	var deferred []*tileState
	for t := 0; t < f.tiles; t++ {
		if t+1 < f.tiles {
			start(t + 1)
		}
		st := ring[t%2]
		stats, rerr := ar.Wait(t)
		meters[t].Fetch, meters[t].Queries = stats, len(st.queries)
		*f.exchanged += stats.BytesSent + stats.BytesRecv
		if rerr != nil {
			// Faults are routable — the lost frames defer their tile to
			// the cleanup pass. A decode error from a live peer is
			// corruption and aborts.
			if _, ok := mpi.AsFault(rerr); !ok {
				return meters, rerr
			}
		}
		if st.batch.Lost() > 0 {
			// The deferred tile keeps its state; tile t+2 gets a new one.
			meters[t].Deferred = true
			deferred = append(deferred, st)
			ring[t%2] = &tileState{}
			continue
		}
		units, cerr := f.compute(t, st.seen, st.queries, &st.batch)
		if cerr != nil {
			return meters, cerr
		}
		meters[t].ComputeUnits = units
	}

	// Cleanup: every rank enters (it contains collectives — the ledger
	// post and AgreeDead — and possibly adopts a dead rank's shard to
	// answer a survivor's re-request). With nothing lost anywhere the
	// all-zero ledger exits it after a single agreement round.
	var leftQ []kmer.Kmer
	type framePos struct {
		st *tileState
		i  int
	}
	var leftPos []framePos
	for _, st := range deferred {
		for i, m := range st.queries {
			if st.batch.Body(i) == nil {
				leftQ = append(leftQ, m)
				leftPos = append(leftPos, framePos{st, i})
			}
		}
	}
	bodies, ferr := fetchShardAnswers(f.c, f.env, f.stage, f.exchanged, f.led, leftQ, f.answer)
	if ferr != nil {
		return meters, ferr
	}
	for j, b := range bodies {
		p := leftPos[j]
		p.st.batch.SetBody(p.i, b)
	}
	for _, st := range deferred {
		units, cerr := f.compute(st.tile, st.seen, st.queries, &st.batch)
		if cerr != nil {
			return meters, cerr
		}
		meters[st.tile].ComputeUnits = units
	}
	return meters, nil
}

// OverlapHiddenSeconds replays one rank's tile meters through a
// cluster cost model and returns (hidden, total) fetch seconds: total
// is the serial cost of every tile's lookup round, hidden is the part
// the double-buffered schedule pays under compute — tile t+1's fetch
// runs while tile t computes, so min(fetch_{t+1}, compute_t) of it
// never reaches the critical path. Tile 0's fetch is always exposed,
// as is any fetch longer than the compute it hides under. Deferred
// tiles' compute ran after the pipeline and hides nothing.
func OverlapHiddenSeconds(meters []TileMeter, comm func(mpi.Stats) float64,
	work func(units float64) float64) (hidden, total float64) {
	for t, m := range meters {
		fetch := comm(m.Fetch)
		total += fetch
		if t == 0 {
			continue
		}
		prev := meters[t-1]
		if prev.Deferred {
			continue
		}
		if c := work(prev.ComputeUnits); c < fetch {
			hidden += c
		} else {
			hidden += fetch
		}
	}
	return hidden, total
}
