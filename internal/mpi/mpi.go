// Package mpi provides an in-process message-passing runtime with MPI
// semantics: a fixed set of ranks, point-to-point sends and receives
// with tag matching, and the collectives the paper's hybrid Chrysalis
// relies on (Barrier, Bcast, Gatherv, Allgatherv, Allreduce).
//
// Ranks are goroutines. Although they share one address space, the
// programming model is distributed-memory by convention: all data that
// crosses rank boundaries is copied through explicit communication
// calls, exactly as with real MPI, and every call is metered so a
// cluster cost model can charge latency and bandwidth for it.
//
// The runtime is failure-aware (see fault.go): a FaultPlan can kill
// ranks, drop or delay messages, and break collectives; barriers
// complete among the surviving ranks; the Try* operation variants
// report failures as typed *FaultError values while the plain variants
// abort the observing rank, and Run returns per-rank errors instead of
// assuming every rank completes.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Op identifies a reduction operator.
type Op int

// Reduction operators supported by Reduce/Allreduce.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

// Stats meters the traffic a single rank generated. The cluster cost
// model converts these into virtual communication time.
type Stats struct {
	BytesSent      int64 // payload bytes this rank sent (P2P + its collective contributions)
	BytesRecv      int64 // payload bytes this rank received
	Messages       int64 // point-to-point messages sent
	CollectiveOps  int64 // collective operations participated in
	CollectiveWait int64 // barriers (including those inside collectives)
}

type message struct {
	tag  int
	data []byte
}

// Observer receives telemetry callbacks from a World: one per
// point-to-point send, one per completed collective, one per rank
// death. Implementations must be safe for concurrent use by all rank
// goroutines and must not call back into the World. RankDeath is
// delivered asynchronously, in death order, by a dedicated dispatcher
// goroutine — never with internal locks held — so an observer may
// forward fault events over a (possibly momentarily full) channel to
// downstream consumers without deadlocking the world; Run/RunE do not
// return until every death has been delivered.
type Observer interface {
	// Message is called after rank src sends bytes payload bytes to dst.
	Message(src, dst, tag, bytes int)
	// Collective is called as a collective completes on one rank, with
	// the payload bytes that rank sent/received inside it.
	Collective(rank int, op string, bytesSent, bytesRecv int64, participants int)
	// RankDeath is called once per death; evicted distinguishes the
	// straggler policy from an injected kill.
	RankDeath(rank int, evicted bool)
}

// deathNote is one queued RankDeath notification.
type deathNote struct {
	rank    int
	evicted bool
}

// World owns the shared state of one simulated MPI job: the mailbox
// matrix, the reusable barrier, the collective exchange slots, and the
// fault-injection state.
type World struct {
	size  int
	boxes [][]chan message // boxes[src][dst]

	barrier sharedBarrier

	slotMu sync.Mutex // protects slots between the two barriers of a collective
	slots  [][]byte

	plan           *FaultPlan    // nil = no fault injection
	barrierTimeout time.Duration // straggler eviction bound (0 = wait forever)
	recvTimeout    time.Duration // blocking-receive bound (0 = wait forever)
	obs            Observer      // nil = no telemetry

	deathMu sync.Mutex
	deathCh chan struct{} // closed and replaced at every rank death

	// Rank deaths are announced to the observer from a dispatcher
	// goroutine, not from under the barrier lock where they are
	// detected: a RankDeath implementation that blocks (forwarding the
	// event over a channel) must not freeze every surviving rank. The
	// queue holds at most one note per rank, so enqueueing under the
	// lock never blocks.
	deathQ  chan deathNote
	deathWG sync.WaitGroup

	// ended is closed when RunE's ranks have all returned: a receive
	// still matching then (an Irecv for a tag its peer never sent) has
	// no one left to wait for it and exits instead of leaking. It is
	// closed once, so a World runs once: ran makes a second RunE panic
	// instead of running ranks whose receives could end early.
	ended chan struct{}
	ran   atomic.Bool
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: world size %d must be positive", size))
	}
	w := &World{size: size, slots: make([][]byte, size), deathCh: make(chan struct{}),
		deathQ: make(chan deathNote, size), ended: make(chan struct{})}
	w.boxes = make([][]chan message, size)
	for s := 0; s < size; s++ {
		w.boxes[s] = make([]chan message, size)
		for d := 0; d < size; d++ {
			w.boxes[s][d] = make(chan message, 64)
		}
	}
	w.barrier.init(size)
	w.barrier.onKill = func(rank int, evicted bool) {
		// Runs with barrier.mu held; slotMu/deathMu are only ever taken
		// after barrier.mu on this path, never the other way around.
		w.slotMu.Lock()
		w.slots[rank] = nil // a dead rank contributes nothing further
		w.slotMu.Unlock()
		w.deathMu.Lock()
		close(w.deathCh) // wake receivers blocked on the dead rank
		w.deathCh = make(chan struct{})
		w.deathMu.Unlock()
		select {
		case w.deathQ <- deathNote{rank: rank, evicted: evicted}:
		default: // unreachable: at most one death per rank fits the buffer
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// SetFaults attaches a fault plan; must be called before Run.
func (w *World) SetFaults(p *FaultPlan) { w.plan = p }

// SetObserver attaches a telemetry observer; must be called before Run.
func (w *World) SetObserver(o Observer) { w.obs = o }

// SetBarrierTimeout bounds every barrier wait: ranks that have not
// arrived when the bound expires are evicted from the world (the
// straggler policy). 0 disables eviction. Must be set before Run.
func (w *World) SetBarrierTimeout(d time.Duration) { w.barrierTimeout = d }

// SetRecvTimeout bounds every blocking receive. 0 waits forever. Must
// be set before Run.
func (w *World) SetRecvTimeout(d time.Duration) { w.recvTimeout = d }

// DeadRanks returns the ranks that have been killed or evicted so far,
// ascending.
func (w *World) DeadRanks() []int {
	w.barrier.mu.Lock()
	defer w.barrier.mu.Unlock()
	return w.barrier.deadLocked()
}

func (w *World) isDead(rank int) bool {
	w.barrier.mu.Lock()
	defer w.barrier.mu.Unlock()
	return w.barrier.dead[rank]
}

// kill removes a rank from the world: barriers stop waiting for it,
// its exchange slot is cleared, and blocked receivers are woken.
func (w *World) kill(rank int) {
	w.barrier.mu.Lock()
	w.barrier.killLocked(rank, false)
	w.barrier.mu.Unlock()
}

// faulty reports whether any failure machinery is active (fault plan
// or straggler eviction) — if not, ranks can never die and the fast
// paths skip the dead-rank checks.
func (w *World) faulty() bool { return w.plan != nil || w.barrierTimeout > 0 }

func (w *World) deathChan() <-chan struct{} {
	w.deathMu.Lock()
	ch := w.deathCh
	w.deathMu.Unlock()
	return ch
}

// Run launches one goroutine per rank executing body and blocks until
// all ranks return or die. It returns the per-rank communication
// statistics and the per-rank errors: a nil error means the rank
// completed; a *FaultError records an injected or observed failure.
func (w *World) Run(body func(c *Comm)) ([]Stats, []error) {
	return w.RunE(func(c *Comm) error { body(c); return nil })
}

// RunE is Run for bodies that return an error. A rank returning a
// non-nil error is treated as failed and removed from the world so
// surviving ranks do not block on it. A World runs one job: create a
// fresh World per RunE call (the run closes its ended channel and the
// observer's death queue, and keeps its dead ranks); a second RunE on
// the same World panics.
func (w *World) RunE(body func(c *Comm) error) ([]Stats, []error) {
	if w.ran.Swap(true) {
		panic("mpi: World already ran; create a new World per Run")
	}
	stats := make([]Stats, w.size)
	errs := make([]error, w.size)
	if w.obs != nil {
		w.deathWG.Add(1)
		go func() {
			defer w.deathWG.Done()
			for d := range w.deathQ {
				w.obs.RankDeath(d.rank, d.evicted)
			}
		}()
	}
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{world: w, rank: rank, pending: make([][]message, w.size), sentTo: make([]int, w.size)}
			defer func() {
				stats[rank] = c.Stats
				if r := recover(); r != nil {
					ab, ok := r.(rankAbort)
					if !ok {
						panic(r) // programming error, not an injected fault
					}
					errs[rank] = ab.err
					w.kill(rank)
				}
			}()
			if err := body(c); err != nil {
				errs[rank] = err
				w.kill(rank)
			}
		}(r)
	}
	wg.Wait()
	close(w.ended)
	if w.obs != nil {
		// Drain the death dispatcher: every observed death is delivered
		// before RunE returns, so exports built right after a run see a
		// complete, deterministic fault record.
		close(w.deathQ)
		w.deathWG.Wait()
	}
	return stats, errs
}

// Comm is one rank's handle on the world. A Comm must only be used by
// the goroutine that received it from Run.
type Comm struct {
	world   *World
	rank    int
	pending [][]message // out-of-order messages awaiting a matching Recv
	Stats   Stats

	ops    int           // MPI operations performed (fault call index)
	colls  int           // collectives performed (fault collective index)
	sentTo []int         // per-destination send ordinals (fault message index)
	slow   time.Duration // active straggler delay (FaultSlow)
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.size }

// Probe is an explicit fault point: it advances the rank's call index
// and applies any kill/slow fault scheduled there, without
// communicating. Long compute loops call it between work chunks so a
// fault plan can interrupt a rank mid-loop, the analog of a node dying
// between checkpoints. It is a no-op without a fault plan.
func (c *Comm) Probe() { c.opCheck("Probe") }

// opCheck runs the per-operation fault hooks. It is a cheap no-op when
// the world has no fault plan.
func (c *Comm) opCheck(op string) {
	w := c.world
	if w.plan == nil {
		return
	}
	if w.isDead(c.rank) {
		// An evicted straggler discovers its eviction at its next call.
		c.abort(&FaultError{Op: op, Rank: c.rank, Evicted: true, Dead: w.DeadRanks()})
	}
	call := c.ops
	c.ops++
	for _, f := range w.plan.takeCall(c.rank, call) {
		switch f.Kind {
		case FaultKill:
			w.kill(c.rank)
			c.abort(&FaultError{Op: op, Rank: c.rank, Killed: true, Dead: w.DeadRanks()})
		case FaultSlow:
			c.slow = f.Delay
		}
	}
	if c.slow > 0 {
		time.Sleep(c.slow)
	}
}

func (c *Comm) abort(err error) { panic(rankAbort{err}) }

// Send delivers data to rank dst with the given tag. The payload is
// copied, so the caller may reuse the buffer immediately (MPI buffered
// send semantics). Sends to dead ranks vanish, like packets to a dead
// node; the sender is still charged for them.
func (c *Comm) Send(dst, tag int, data []byte) {
	c.opCheck("Send")
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	c.sendSegment(dst, tag, data)
}

// sendSegment is the metered wire send shared by Send and the pairwise
// collectives: it copies, charges the sender, notifies the observer,
// and applies message-indexed faults, but places no operation fault
// point of its own — collectives keep their single fault point in
// collHooks while each of their segments still counts as one message
// and remains individually targetable by dropmsg/delaymsg faults.
func (c *Comm) sendSegment(dst, tag int, data []byte) {
	buf := make([]byte, len(data))
	copy(buf, data)
	c.Stats.BytesSent += int64(len(data))
	c.Stats.Messages++
	if obs := c.world.obs; obs != nil {
		obs.Message(c.rank, dst, tag, len(data))
	}
	if p := c.world.plan; p != nil {
		ord := c.sentTo[dst]
		c.sentTo[dst]++
		if f, ok := p.takeMsg(c.rank, dst, ord); ok {
			switch f.Kind {
			case FaultDropMsg:
				return // lost on the wire
			case FaultDelayMsg:
				go func() {
					time.Sleep(f.Delay)
					c.world.deliver(c.rank, dst, message{tag: tag, data: buf})
				}()
				return
			}
		}
	}
	if c.world.faulty() && c.world.isDead(dst) {
		return
	}
	c.world.boxes[c.rank][dst] <- message{tag: tag, data: buf}
}

// deliver enqueues a (possibly delayed) message unless the destination
// has died in the meantime.
func (w *World) deliver(src, dst int, m message) {
	if w.faulty() && w.isDead(dst) {
		return
	}
	select {
	case w.boxes[src][dst] <- m:
	case <-w.ended: // no rank is left to read a full mailbox
	}
}

// Recv blocks until a message with the given tag arrives from rank src
// and returns its payload. Messages with other tags from src are
// queued for later Recvs (MPI tag matching). Recv aborts the rank if
// src dies, or if the world's receive timeout expires; use TryRecv to
// observe those failures as errors instead.
func (c *Comm) Recv(src, tag int) []byte {
	c.opCheck("Recv")
	data, err := c.tryRecv(src, tag, c.world.recvTimeout)
	if err != nil {
		c.abort(err)
	}
	return data
}

// TryRecv is Recv with an explicit timeout (0 = the world default),
// returning a *FaultError instead of aborting when the source rank is
// dead or the timeout expires.
func (c *Comm) TryRecv(src, tag int, timeout time.Duration) ([]byte, error) {
	c.opCheck("TryRecv")
	if timeout == 0 {
		timeout = c.world.recvTimeout
	}
	return c.tryRecv(src, tag, timeout)
}

func (c *Comm) tryRecv(src, tag int, timeout time.Duration) ([]byte, error) {
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	q := c.pending[src]
	for i, m := range q {
		if m.tag == tag {
			c.pending[src] = append(q[:i], q[i+1:]...)
			c.Stats.BytesRecv += int64(len(m.data))
			return m.data, nil
		}
	}
	box := c.world.boxes[src][c.rank]
	if !c.world.faulty() && timeout == 0 {
		// Fast path: no failure machinery in play.
		for {
			m := <-box
			if m.tag == tag {
				c.Stats.BytesRecv += int64(len(m.data))
				return m.data, nil
			}
			c.pending[src] = append(c.pending[src], m)
		}
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	for {
		// Drain whatever is already queued before deciding the source is
		// dead: messages sent before a death must remain receivable.
		drained := false
		for !drained {
			select {
			case m := <-box:
				if m.tag == tag {
					c.Stats.BytesRecv += int64(len(m.data))
					return m.data, nil
				}
				c.pending[src] = append(c.pending[src], m)
			default:
				drained = true
			}
		}
		// Taken before the death check, as in matchRecv: the channel is
		// replaced at every death.
		deaths := c.world.deathChan()
		if c.world.isDead(src) {
			return nil, &FaultError{Op: "Recv", Rank: c.rank, Dead: []int{src}}
		}
		select {
		case m := <-box:
			if m.tag == tag {
				c.Stats.BytesRecv += int64(len(m.data))
				return m.data, nil
			}
			c.pending[src] = append(c.pending[src], m)
		case <-deaths:
			// Re-check the source on the next loop iteration.
		case <-deadline:
			return nil, &FaultError{Op: "Recv", Rank: c.rank, Timeout: true, Dead: c.world.DeadRanks()}
		}
	}
}

// syncPoint is the internal barrier used by every collective: it
// completes among the live ranks and returns the dead set observed at
// phase release (identical for every participant of the phase), plus
// whether this rank itself was evicted.
func (c *Comm) syncPoint() (dead []int, evicted bool) {
	dead, evicted = c.world.barrier.await(c.rank, c.world.barrierTimeout)
	c.Stats.CollectiveWait++
	return dead, evicted
}

// collHooks applies opCheck plus the collective-indexed faults for
// this rank, returning whether to drop this rank's contribution and
// whether to surface a timeout after participating.
func (c *Comm) collHooks(op string) (dropContrib bool, timeoutErr error) {
	c.opCheck(op)
	p := c.world.plan
	if p == nil {
		return false, nil
	}
	idx := c.colls
	c.colls++
	for _, f := range p.takeColl(c.rank, idx) {
		switch f.Kind {
		case FaultDropContribution:
			dropContrib = true
		case FaultTimeout:
			timeoutErr = &FaultError{Op: op, Rank: c.rank, Timeout: true}
		}
	}
	return dropContrib, timeoutErr
}

// observeCollective reports one completed collective to the world's
// observer, with the byte deltas this rank accumulated inside it.
func (c *Comm) observeCollective(op string, before Stats) {
	if obs := c.world.obs; obs != nil {
		obs.Collective(c.rank, op,
			c.Stats.BytesSent-before.BytesSent, c.Stats.BytesRecv-before.BytesRecv, c.world.size)
	}
}

// collResult folds the failure observations of one collective into a
// single error (nil when the collective was clean).
func (c *Comm) collResult(op string, dead []int, evicted bool, timeoutErr error) error {
	if evicted {
		return &FaultError{Op: op, Rank: c.rank, Evicted: true, Dead: dead}
	}
	if timeoutErr != nil {
		return timeoutErr
	}
	if len(dead) > 0 {
		return &FaultError{Op: op, Rank: c.rank, Dead: dead}
	}
	return nil
}

// AgreeDead is the failure-agreement primitive for recovery layers: a
// barrier returning the dead set observed at phase release, which is
// identical on every rank that participated in the phase — the property
// that makes deterministic reassignment of a dead rank's work possible
// without a leader. The error is non-nil only when this rank itself was
// evicted or an injected timeout fired on it.
func (c *Comm) AgreeDead() ([]int, error) {
	_, timeoutErr := c.collHooks("AgreeDead")
	dead, evicted := c.syncPoint()
	if evicted {
		return dead, &FaultError{Op: "AgreeDead", Rank: c.rank, Evicted: true, Dead: dead}
	}
	c.observeCollective("AgreeDead", c.Stats)
	if timeoutErr != nil {
		return dead, timeoutErr
	}
	return dead, nil
}

// WorldDeadRanks returns the ranks of this world that have died so far,
// ascending. Unlike AgreeDead it is a local snapshot, not an agreement.
func (c *Comm) WorldDeadRanks() []int { return c.world.DeadRanks() }

// Barrier blocks until every live rank has entered it, aborting the
// rank on observed failures (use TryBarrier to handle them).
func (c *Comm) Barrier() {
	if err := c.TryBarrier(); err != nil {
		c.abort(err)
	}
}

// TryBarrier blocks until every live rank has entered the barrier. It
// returns a *FaultError naming the dead ranks if any rank has died (the
// barrier itself still completed among the survivors), or an
// eviction/timeout error for this rank.
func (c *Comm) TryBarrier() error {
	_, timeoutErr := c.collHooks("Barrier")
	dead, evicted := c.syncPoint()
	if !evicted {
		c.observeCollective("Barrier", c.Stats)
	}
	return c.collResult("Barrier", dead, evicted, timeoutErr)
}

// Bcast distributes root's payload to every rank; every rank returns
// an independent copy.
func (c *Comm) Bcast(root int, data []byte) []byte {
	out, err := c.TryBcast(root, data)
	if err != nil {
		c.abort(err)
	}
	return out
}

// TryBcast is Bcast returning observed failures as a *FaultError. The
// payload is still returned when only peer deaths were observed; it is
// empty if the root is dead.
func (c *Comm) TryBcast(root int, data []byte) ([]byte, error) {
	before := c.Stats
	drop, timeoutErr := c.collHooks("Bcast")
	if c.rank == root {
		contrib := data
		if drop {
			contrib = nil
		}
		c.world.slotMu.Lock()
		c.world.slots[root] = contrib
		c.world.slotMu.Unlock()
		c.Stats.BytesSent += int64(len(data)) * int64(c.world.size-1)
	}
	dead1, ev := c.syncPoint()
	if ev {
		return nil, c.collResult("Bcast", dead1, true, timeoutErr)
	}
	c.world.slotMu.Lock()
	src := c.world.slots[root]
	c.world.slotMu.Unlock()
	out := make([]byte, len(src))
	copy(out, src)
	if c.rank != root {
		c.Stats.BytesRecv += int64(len(src))
	}
	dead2, ev := c.syncPoint() // slots must survive until everyone has copied
	c.Stats.CollectiveOps++
	c.observeCollective("Bcast", before)
	return out, c.collResult("Bcast", unionDead(dead1, dead2), ev, timeoutErr)
}

// Allgatherv pools each rank's variable-length contribution: every
// rank returns the full slice of all contributions indexed by rank.
// This is the paper's pooling primitive for welding sequences (§III-B).
func (c *Comm) Allgatherv(data []byte) [][]byte {
	out, err := c.TryAllgatherv(data)
	if err != nil {
		c.abort(err)
	}
	return out
}

// TryAllgatherv is Allgatherv returning observed failures as a
// *FaultError. Contributions of dead ranks come back empty; the
// partial result is still returned alongside the error.
func (c *Comm) TryAllgatherv(data []byte) ([][]byte, error) {
	before := c.Stats
	drop, timeoutErr := c.collHooks("Allgatherv")
	contrib := data
	if drop {
		contrib = nil
	}
	c.world.slotMu.Lock()
	c.world.slots[c.rank] = contrib
	c.world.slotMu.Unlock()
	dead1, ev := c.syncPoint()
	if ev {
		return nil, c.collResult("Allgatherv", dead1, true, timeoutErr)
	}
	out := make([][]byte, c.world.size)
	c.world.slotMu.Lock()
	for r := 0; r < c.world.size; r++ {
		buf := make([]byte, len(c.world.slots[r]))
		copy(buf, c.world.slots[r])
		out[r] = buf
		if r != c.rank {
			c.Stats.BytesRecv += int64(len(buf))
		}
	}
	c.world.slotMu.Unlock()
	c.Stats.BytesSent += int64(len(data)) * int64(c.world.size-1)
	dead2, ev := c.syncPoint()
	c.Stats.CollectiveOps++
	c.observeCollective("Allgatherv", before)
	return out, c.collResult("Allgatherv", unionDead(dead1, dead2), ev, timeoutErr)
}

// Gatherv collects every rank's contribution at root. Non-root ranks
// receive nil.
func (c *Comm) Gatherv(root int, data []byte) [][]byte {
	out, err := c.TryGatherv(root, data)
	if err != nil {
		c.abort(err)
	}
	return out
}

// TryGatherv is Gatherv returning observed failures as a *FaultError;
// the partial result is still returned alongside the error.
func (c *Comm) TryGatherv(root int, data []byte) ([][]byte, error) {
	before := c.Stats
	drop, timeoutErr := c.collHooks("Gatherv")
	contrib := data
	if drop {
		contrib = nil
	}
	c.world.slotMu.Lock()
	c.world.slots[c.rank] = contrib
	c.world.slotMu.Unlock()
	if c.rank != root {
		c.Stats.BytesSent += int64(len(data))
	}
	dead1, ev := c.syncPoint()
	if ev {
		return nil, c.collResult("Gatherv", dead1, true, timeoutErr)
	}
	var out [][]byte
	if c.rank == root {
		out = make([][]byte, c.world.size)
		c.world.slotMu.Lock()
		for r := 0; r < c.world.size; r++ {
			buf := make([]byte, len(c.world.slots[r]))
			copy(buf, c.world.slots[r])
			out[r] = buf
			if r != root {
				c.Stats.BytesRecv += int64(len(buf))
			}
		}
		c.world.slotMu.Unlock()
	}
	dead2, ev := c.syncPoint()
	c.Stats.CollectiveOps++
	c.observeCollective("Gatherv", before)
	return out, c.collResult("Gatherv", unionDead(dead1, dead2), ev, timeoutErr)
}

// AllgatherInt exchanges one int per rank — the "exchange the size of
// the packed sequence" step that precedes each Allgatherv in §III-B.
func (c *Comm) AllgatherInt(v int) []int {
	out, err := c.TryAllgatherInt(v)
	if err != nil {
		c.abort(err)
	}
	return out
}

// TryAllgatherInt is AllgatherInt returning observed failures as a
// *FaultError; dead ranks contribute zero.
func (c *Comm) TryAllgatherInt(v int) ([]int, error) {
	parts, err := c.TryAllgatherv(encodeInt64(int64(v)))
	out := make([]int, len(parts))
	for r, p := range parts {
		if len(p) >= 8 {
			out[r] = int(decodeInt64(p))
		}
	}
	return out, err
}

// AllgathervInt64 pools variable-length int64 slices from all ranks.
func (c *Comm) AllgathervInt64(v []int64) [][]int64 {
	out, err := c.TryAllgathervInt64(v)
	if err != nil {
		c.abort(err)
	}
	return out
}

// TryAllgathervInt64 is AllgathervInt64 returning observed failures as
// a *FaultError; dead ranks contribute empty slices.
func (c *Comm) TryAllgathervInt64(v []int64) ([][]int64, error) {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		putInt64(buf[8*i:], x)
	}
	parts, err := c.TryAllgatherv(buf)
	out := make([][]int64, len(parts))
	for r, p := range parts {
		xs := make([]int64, len(p)/8)
		for i := range xs {
			xs[i] = getInt64(p[8*i:])
		}
		out[r] = xs
	}
	return out, err
}

// AllreduceInt64 combines v across all ranks with op; every rank gets
// the result.
func (c *Comm) AllreduceInt64(v int64, op Op) int64 {
	parts := c.Allgatherv(encodeInt64(v))
	acc := decodeInt64(parts[0])
	for _, p := range parts[1:] {
		x := decodeInt64(p)
		switch op {
		case OpSum:
			acc += x
		case OpMax:
			if x > acc {
				acc = x
			}
		case OpMin:
			if x < acc {
				acc = x
			}
		default:
			panic(fmt.Sprintf("mpi: unknown op %d", op))
		}
	}
	return acc
}

func encodeInt64(v int64) []byte {
	buf := make([]byte, 8)
	putInt64(buf, v)
	return buf
}

func decodeInt64(b []byte) int64 { return getInt64(b) }

func putInt64(b []byte, v int64) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}

func getInt64(b []byte) int64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return int64(u)
}

// sharedBarrier is a reusable sense-reversing barrier that tolerates
// rank deaths: a phase releases as soon as every *live* rank has
// arrived, and an optional timeout evicts ranks that keep a phase
// waiting too long (the straggler policy).
type sharedBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	alive   int
	arrived int
	inBar   []bool // arrived in the current phase
	dead    []bool
	phase   uint64
	// lastDead is the dead set snapshot taken when the most recent phase
	// released. Every participant of a phase observes this same
	// snapshot: no later release can happen until all of the phase's
	// live participants have left their wait (they must arrive at the
	// next barrier first), so the field cannot be overwritten under a
	// waiter that is still returning.
	lastDead []int
	onKill   func(rank int, evicted bool) // invoked with mu held, once per death
}

func (b *sharedBarrier) init(size int) {
	b.size = size
	b.alive = size
	b.inBar = make([]bool, size)
	b.dead = make([]bool, size)
	b.cond = sync.NewCond(&b.mu)
}

func (b *sharedBarrier) deadLocked() []int {
	var out []int
	for r, d := range b.dead {
		if d {
			out = append(out, r)
		}
	}
	return out
}

// killLocked marks rank dead (idempotent) and releases the current
// phase if every remaining live rank has already arrived.
func (b *sharedBarrier) killLocked(rank int, evicted bool) {
	if b.dead[rank] {
		return
	}
	b.dead[rank] = true
	b.alive--
	if b.inBar[rank] {
		b.inBar[rank] = false
		b.arrived--
	}
	if b.onKill != nil {
		b.onKill(rank, evicted)
	}
	if b.alive > 0 && b.arrived > 0 && b.arrived >= b.alive {
		b.releaseLocked()
	}
}

func (b *sharedBarrier) releaseLocked() {
	b.arrived = 0
	for i := range b.inBar {
		b.inBar[i] = false
	}
	b.lastDead = b.deadLocked()
	b.phase++
	b.cond.Broadcast()
}

// await blocks until the current phase releases. It returns the dead
// set observed at phase release (identical for every participant) and
// whether this rank itself is dead (killed or evicted) — in which case
// the caller must abort instead of using the barrier.
func (b *sharedBarrier) await(self int, timeout time.Duration) (dead []int, evicted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead[self] {
		return b.deadLocked(), true
	}
	phase := b.phase
	b.inBar[self] = true
	b.arrived++
	if b.arrived >= b.alive {
		b.releaseLocked()
		return b.lastDead, false
	}
	var fired bool
	if timeout > 0 {
		timer := time.AfterFunc(timeout, func() {
			b.mu.Lock()
			fired = true
			b.cond.Broadcast()
			b.mu.Unlock()
		})
		defer timer.Stop()
	}
	for b.phase == phase {
		if b.dead[self] {
			return b.deadLocked(), true
		}
		b.cond.Wait()
		if fired && b.phase == phase {
			// Straggler policy: evict every rank that still has not
			// arrived; killLocked releases the phase once the survivors
			// are all accounted for.
			fired = false
			// killLocked may release the phase mid-sweep (clearing every
			// inBar flag), so re-check the phase before each eviction or
			// ranks that HAD arrived would be evicted as collateral.
			for r := 0; r < b.size && b.phase == phase; r++ {
				if !b.dead[r] && !b.inBar[r] {
					b.killLocked(r, true)
				}
			}
		}
	}
	return b.lastDead, b.dead[self]
}
