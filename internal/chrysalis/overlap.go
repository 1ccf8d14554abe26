package chrysalis

import (
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
// hides behind compute. Results are byte-identical to the replicated
// path — every probe gets the answer the full tables would give.
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
// collect builds tile t's query list, answer serves one incoming
// k-mer from this rank's shards, and compute consumes tile t's
// answers (bodies parallel to queries, all non-nil) returning the
// work units it spent. env, stage, exchanged and led parameterise the
// blocking fetchShardAnswers pass that re-requests anything the
// pipeline lost.
type overlapFetcher struct {
	c         *Comm
	env       *loopEnv
	stage     string // fetch-phase label in errors and lookup_round events
	exchanged *int64 // accumulates the addressed bytes the lookups moved
	led       *fetchLedger
	tagBase   int
	tiles     int
	collect   func(tile int) []kmer.Kmer
	answer    func(m kmer.Kmer, dst []byte) []byte
	compute   func(tile int, queries []kmer.Kmer, bodies [][]byte) (float64, error)
}

// overlapTile is one tile's in-flight bookkeeping: the flat query
// list, its routing (qs[d]/idxs[d] = queries and flat indices
// addressed to rank d under the static owner map), and the answer
// bodies filled in as frames arrive.
type overlapTile struct {
	queries []kmer.Kmer
	qs      [][]kmer.Kmer
	idxs    [][]int
	bodies  [][]byte
	missing int
}

// run executes the pipeline: Start(0), then for each tile Start(t+1)
// before Wait(t) so exactly one lookahead round is in flight during
// every compute. Tiles with lost frames are deferred; after the
// drain, the blocking cleanup answers the leftovers and the deferred
// tiles compute in order. Returned meters are indexed by tile.
func (f *overlapFetcher) run() ([]TileMeter, error) {
	size := f.c.Size()
	meters := make([]TileMeter, f.tiles)
	states := make([]*overlapTile, f.tiles)
	ar := shard.NewAsyncRound(f.c, f.tagBase, f.answer)
	start := func(t int) {
		st := &overlapTile{
			queries: f.collect(t),
			qs:      make([][]kmer.Kmer, size),
			idxs:    make([][]int, size),
		}
		// Static owner routing only: remapping needs an agreement
		// collective, which cannot run while tiles are in flight. A dead
		// owner's frames come back nil and route through the cleanup.
		for i, m := range st.queries {
			o := kmer.OwnerRank(m, size)
			st.qs[o] = append(st.qs[o], m)
			st.idxs[o] = append(st.idxs[o], i)
		}
		st.bodies = make([][]byte, len(st.queries))
		states[t] = st
		ar.Start(t, st.qs)
	}
	start(0)
	var deferred []int
	for t := 0; t < f.tiles; t++ {
		if t+1 < f.tiles {
			start(t + 1)
		}
		st := states[t]
		resps, stats, rerr := ar.Wait(t)
		meters[t].Fetch = stats
		*f.exchanged += stats.BytesSent + stats.BytesRecv
		if rerr != nil {
			// Faults are routable — the lost frames defer their tile to
			// the cleanup pass. A decode error from a live peer is
			// corruption and aborts.
			if _, ok := mpi.AsFault(rerr); !ok {
				return meters, rerr
			}
		}
		for d := range resps {
			for j, frame := range resps[d] {
				if frame != nil {
					st.bodies[st.idxs[d][j]] = frame
				} else {
					st.missing++
				}
			}
		}
		if st.missing > 0 {
			meters[t].Deferred = true
			deferred = append(deferred, t)
			continue
		}
		units, cerr := f.compute(t, st.queries, st.bodies)
		if cerr != nil {
			return meters, cerr
		}
		meters[t].ComputeUnits = units
		states[t] = nil
	}

	// Cleanup: every rank enters (it contains collectives — the ledger
	// post and AgreeDead — and possibly adopts a dead rank's shard to
	// answer a survivor's re-request). With nothing lost anywhere the
	// all-zero ledger exits it after a single agreement round.
	var leftQ []kmer.Kmer
	type framePos struct{ tile, i int }
	var leftPos []framePos
	for _, t := range deferred {
		st := states[t]
		for i, b := range st.bodies {
			if b == nil {
				leftQ = append(leftQ, st.queries[i])
				leftPos = append(leftPos, framePos{t, i})
			}
		}
	}
	bodies, ferr := fetchShardAnswers(f.c, f.env, f.stage, f.exchanged, f.led, leftQ, f.answer)
	if ferr != nil {
		return meters, ferr
	}
	for j, b := range bodies {
		p := leftPos[j]
		states[p.tile].bodies[p.i] = b
	}
	for _, t := range deferred {
		st := states[t]
		units, cerr := f.compute(t, st.queries, st.bodies)
		if cerr != nil {
			return meters, cerr
		}
		meters[t].ComputeUnits = units
		states[t] = nil
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
