package chrysalis

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gotrinity/internal/mpi"
	"gotrinity/internal/trace"
)

// Fault recovery for the hybrid Chrysalis.
//
// The paper's production runs are >50 h on hundreds of ranks, where a
// single dead or straggling rank would otherwise lose the whole job.
// The recovery layer makes both distributed hot spots restartable at
// chunk granularity:
//
//   - every chunk of the chunked round-robin distribution checkpoints
//     its partial result (welds, pairs, or read assignments) into a
//     chunkStore — the simulation analog of per-chunk files on the
//     shared filesystem that real Chrysalis already writes;
//   - after each pooling collective, the live ranks agree on the dead
//     set (mpi.Comm.AgreeDead — every participant observes the same
//     phase-consistent snapshot), deterministically reassign the dead
//     ranks' unfinished chunks among themselves, recompute them, and
//     exchange the recovered payloads (metered, so the cluster model
//     charges the retry);
//   - rounds repeat with backoff until the store is complete or the
//     round budget is exhausted, which surfaces a typed
//     *UnrecoverableError instead of a hang.
//
// Because chunk results are deterministic functions of the input and
// the run seed, and because pooling canonicalises (sorted dedup), a
// recovered run produces output byte-identical to a fault-free run —
// the property the fault-scenario tests assert.

// RecoveryOptions configures the fault-tolerance layer of the hybrid
// Chrysalis stages.
type RecoveryOptions struct {
	// Enabled switches on chunk checkpointing and recovery even without
	// an injected fault plan (a fault plan implies it).
	Enabled bool
	// MaxRounds bounds the retry rounds of each recovering pass — chunk
	// recovery after a pooling phase, and the lookup cleanup after a
	// sharded fetch phase; each round tolerates one more wave of
	// failures (default 3). See spent.
	MaxRounds int
	// Backoff is the real-time wait before each recovery round,
	// doubling per round (default 0; the cluster model charges virtual
	// time for it independently).
	Backoff time.Duration
	// RankTimeout bounds every barrier and blocking receive: ranks that
	// keep a collective waiting longer are evicted as stragglers and
	// their chunks reassigned (0 = never evict).
	RankTimeout time.Duration
}

func (o RecoveryOptions) withDefaults() RecoveryOptions {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 3
	}
	return o
}

// spent is the round budget, stated once for both retry loops
// (recoverChunks and fetchShardAnswers): a pass that has run MaxRounds
// rounds and still has work left gives up with an *UnrecoverableError
// whose Rounds is MaxRounds.
func (o RecoveryOptions) spent(round int) bool { return round >= o.MaxRounds }

// RecoveryReport records what the fault-tolerance layer did during one
// stage execution.
type RecoveryReport struct {
	Stage            string  // "graphfromfasta" or "readstotranscripts"
	Rounds           int     // recovery rounds run (0 = clean)
	DeadRanks        []int   // ranks killed or evicted, ascending
	ReassignedChunks []int   // chunks recomputed by survivors, in recovery order
	RecomputedUnits  float64 // work units spent recomputing
	DroppedContribs  int     // lost collective contributions detected (and recovered)
	ShardRounds      int     // extra sharded-lookup rounds forced by failures (ShardKmers only)
	ReassignedShards []int   // k-mer shards rebuilt by an adopting survivor, ascending unique
}

// UnrecoverableError reports a Chrysalis phase that could not be
// completed within the recovery budget.
type UnrecoverableError struct {
	Stage         string
	Rounds        int
	MissingChunks []int
	Dead          []int
}

func (e *UnrecoverableError) Error() string {
	return fmt.Sprintf("chrysalis: %s unrecoverable after %d recovery rounds: %d chunks missing, dead ranks %v",
		e.Stage, e.Rounds, len(e.MissingChunks), e.Dead)
}

// chunkStore is the simulated shared-filesystem checkpoint store: the
// rank that completes a chunk writes the chunk's items and per-item
// costs exactly once; later writers of the same chunk (a straggler
// that was already evicted, say) are ignored. All methods are safe for
// concurrent use by every rank.
type chunkStore[T any] struct {
	mu    sync.Mutex
	done  []bool
	data  [][]T
	costs [][]float64
}

func newChunkStore[T any](n int) *chunkStore[T] {
	return &chunkStore[T]{done: make([]bool, n), data: make([][]T, n), costs: make([][]float64, n)}
}

// put checkpoints one chunk's results; the first writer wins (results
// are deterministic, so any duplicate compute produced identical data).
func (s *chunkStore[T]) put(chunk int, items []T, costs []float64) {
	s.mu.Lock()
	if !s.done[chunk] {
		s.done[chunk] = true
		s.data[chunk] = items
		s.costs[chunk] = costs
	}
	s.mu.Unlock()
}

// missing returns the chunks not yet checkpointed, ascending.
func (s *chunkStore[T]) missing() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for ch, d := range s.done {
		if !d {
			out = append(out, ch)
		}
	}
	return out
}

// chunk returns one checkpointed chunk's items (nil if absent).
func (s *chunkStore[T]) chunk(ch int) []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data[ch]
}

// itemCosts scatters the per-item costs of every checkpointed chunk
// into a fresh slice of n items, using chunkRange to locate each
// chunk's item range. Each caller gets its own copy, so late writes by
// an evicted straggler can never race with readers.
func (s *chunkStore[T]) itemCosts(n int, chunkRange func(ch int) (lo, hi int)) []float64 {
	out := make([]float64, n)
	s.mu.Lock()
	defer s.mu.Unlock()
	for ch, d := range s.done {
		if !d {
			continue
		}
		lo, _ := chunkRange(ch)
		for i, u := range s.costs[ch] {
			if lo+i < n {
				out[lo+i] = u
			}
		}
	}
	return out
}

// recReport is the thread-safe accumulator behind a RecoveryReport.
type recReport struct {
	mu sync.Mutex
	r  RecoveryReport
}

func (r *recReport) addRound() {
	r.mu.Lock()
	r.r.Rounds++
	r.mu.Unlock()
}

func (r *recReport) addReassigned(chunk int, units float64) {
	r.mu.Lock()
	r.r.ReassignedChunks = append(r.r.ReassignedChunks, chunk)
	r.r.RecomputedUnits += units
	r.mu.Unlock()
}

func (r *recReport) addDropped() {
	r.mu.Lock()
	r.r.DroppedContribs++
	r.mu.Unlock()
}

func (r *recReport) addShardRound() {
	r.mu.Lock()
	r.r.ShardRounds++
	r.mu.Unlock()
}

// addShard records a shard adoption once per shard id, keeping the
// list sorted so reports are deterministic regardless of which fetch
// phase triggered the rebuild.
func (r *recReport) addShard(s int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.SearchInts(r.r.ReassignedShards, s)
	if i < len(r.r.ReassignedShards) && r.r.ReassignedShards[i] == s {
		return
	}
	r.r.ReassignedShards = append(r.r.ReassignedShards, 0)
	copy(r.r.ReassignedShards[i+1:], r.r.ReassignedShards[i:])
	r.r.ReassignedShards[i] = s
}

func (r *recReport) snapshot(stage string, dead []int) *RecoveryReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.r
	out.Stage = stage
	out.DeadRanks = append([]int(nil), dead...)
	out.ReassignedChunks = append([]int(nil), out.ReassignedChunks...)
	out.ReassignedShards = append([]int(nil), out.ReassignedShards...)
	return &out
}

// stageError folds the per-rank errors of a failed stage into the most
// informative single error: a typed *UnrecoverableError if any rank
// reported one, else the first failure.
func stageError(stage string, errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var ue *UnrecoverableError
		if errors.As(err, &ue) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	if first == nil {
		return fmt.Errorf("chrysalis: %s produced no result", stage)
	}
	return first
}

// countDrops compares the sizes each rank announced against the parts
// a collective actually delivered and records the losses (a dead rank
// or an injected dropped contribution); the data itself is recovered
// from the checkpoint store. Called on one rank only to avoid
// multi-counting.
func countDrops(rep *recReport, counts []int, parts [][]byte) {
	for r := range parts {
		if r < len(counts) && len(parts[r]) != counts[r] {
			rep.addDropped()
		}
	}
}

// packInt64s encodes pair payloads for the recovery exchange — the
// meter only needs the true byte volume.
func packInt64s(xs []int64) []byte {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		u := uint64(x)
		for b := 0; b < 8; b++ {
			buf[8*i+b] = byte(u >> (8 * b))
		}
	}
	return buf
}

// recoverChunks drives the recovery rounds of one pooling phase. Every
// live rank executes it symmetrically: while chunks are missing from
// the checkpoint store, the ranks agree on the dead set, split the
// missing chunks deterministically among the survivors (missing[i]
// goes to alive[i mod len(alive)]), recompute and checkpoint their
// shares, and exchange the recovered payloads so the retry traffic is
// metered. compute must checkpoint the chunk and return the payload
// bytes its exchange would carry, plus the work units spent. rec (may
// be nil) receives one "agree_dead" event per round and one
// "chunk_reassigned" event per recomputed chunk.
func recoverChunks(c *mpi.Comm, stage string, opt RecoveryOptions, rep *recReport,
	rec *trace.Recorder, missing func() []int, compute func(chunk int) ([]byte, float64)) error {
	for round := 0; ; round++ {
		miss := missing()
		if len(miss) == 0 {
			return nil
		}
		if opt.spent(round) {
			return &UnrecoverableError{Stage: stage, Rounds: round, MissingChunks: miss, Dead: c.WorldDeadRanks()}
		}
		if opt.Backoff > 0 {
			time.Sleep(opt.Backoff << round) // exponential backoff between retries
		}
		dead, err := c.AgreeDead()
		if err != nil {
			if fe, ok := mpi.AsFault(err); ok && fe.Timeout && !fe.Evicted {
				continue // failed agreement round; retry
			}
			return err // this rank itself was killed or evicted
		}
		isDead := map[int]bool{}
		for _, r := range dead {
			isDead[r] = true
		}
		var alive []int
		for r := 0; r < c.Size(); r++ {
			if !isDead[r] {
				alive = append(alive, r)
			}
		}
		if len(alive) == 0 {
			return &UnrecoverableError{Stage: stage, Rounds: round + 1, MissingChunks: miss, Dead: dead}
		}
		if c.Rank() == alive[0] {
			rep.addRound() // every survivor runs the round; record it once
			rec.Event("recovery", "agree_dead", c.Rank(),
				fmt.Sprintf("stage=%s round=%d dead=%v missing=%d", stage, round+1, dead, len(miss)))
		}
		var payload []byte
		for i, ch := range miss {
			if alive[i%len(alive)] != c.Rank() {
				continue
			}
			part, units := compute(ch)
			rep.addReassigned(ch, units)
			rec.Event("recovery", "chunk_reassigned", c.Rank(),
				fmt.Sprintf("stage=%s chunk=%d units=%.0f", stage, ch, units))
			payload = append(payload, part...)
			c.Probe()
		}
		// Metered exchange of the recovered payloads; it doubles as the
		// sync point that publishes this round's checkpoints. Peer
		// failures are tolerated — the next round's AgreeDead folds a
		// rank that died during this exchange into the reassignment —
		// but this rank's own eviction must propagate: an evicted rank
		// that kept looping would keep writing checkpoints and running
		// collectives the survivors no longer include it in.
		if _, err := c.TryAllgatherv(payload); err != nil {
			if fe, ok := mpi.AsFault(err); !ok || fe.Evicted {
				return err
			}
		}
	}
}
