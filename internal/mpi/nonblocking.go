package mpi

import (
	"fmt"
	"time"
)

// Nonblocking point-to-point operations and the remaining collectives
// (Scatterv, communicator split). The paper's Chrysalis only needs the
// blocking collectives, but the sharded fetch pipeline overlaps lookup
// rounds with compute through Isend/Irecv, so the nonblocking path
// carries real traffic and must compose with the fault layer.

// waitResult is what an outstanding operation resolves to: the payload
// for receives, plus the failure (dead source, timeout) the operation
// observed, if any.
type waitResult struct {
	data []byte
	err  *FaultError
}

// Request is a handle on an outstanding nonblocking operation. A
// request completes at most once: after Wait or a successful TryWait
// returns, further waits on the same request block forever (matching
// MPI's use-once request semantics). A TryWait that timed out may be
// retried.
type Request struct {
	done chan waitResult
	recv bool
	comm *Comm
}

// Isend starts a nonblocking send. The payload is copied immediately,
// so the caller may reuse the buffer. The returned request completes
// when the message has been delivered to the destination mailbox (or
// discarded, if the destination is dead). Bytes are metered and the
// observer notified at post time, and per-message faults
// (dropmsg/delaymsg) apply to nonblocking sends exactly as they do to
// the blocking segments, consuming the same per-destination ordinal.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	c.opCheck("Isend")
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: isend to invalid rank %d", dst))
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	r := &Request{done: make(chan waitResult, 1), comm: c}
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
				r.done <- waitResult{} // lost on the wire
				return r
			case FaultDelayMsg:
				go func() {
					time.Sleep(f.Delay)
					c.world.deliver(c.rank, dst, message{tag: tag, data: buf})
					r.done <- waitResult{}
				}()
				return r
			}
		}
	}
	go func() {
		c.world.deliver(c.rank, dst, message{tag: tag, data: buf})
		r.done <- waitResult{}
	}()
	return r
}

// Irecv starts a nonblocking receive for a message with the given tag
// from src. Wait returns its payload, or nil if src died before the
// message arrived; TryWait additionally surfaces the death (or a
// timeout) as a typed *FaultError. The matcher is death-aware even in
// worlds without a fault plan, because a rank whose body returns an
// error is killed through the same path as an injected fault — a
// pending Irecv must not block forever in either case.
//
// Note: Irecv consumes from the same mailbox as Recv; do not mix a
// blocking Recv with an outstanding Irecv from the same source, as
// message stealing between them is unspecified (matching MPI's
// guidance on overlapping receives).
func (c *Comm) Irecv(src, tag int) *Request {
	c.opCheck("Irecv")
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("mpi: irecv from invalid rank %d", src))
	}
	r := &Request{done: make(chan waitResult, 1), recv: true, comm: c}
	go c.world.matchRecv(src, c.rank, tag, r.done)
	return r
}

// matchRecv consumes the src→dst mailbox until a message with the tag
// arrives, requeueing mismatches to the tail. Several matchers may
// share one mailbox (the overlap pipeline keeps a query-leg and a
// reply-leg receive outstanding per peer); a matcher that only finds
// foreign tags backs off briefly instead of re-draining its own
// requeues in a hot spin.
func (w *World) matchRecv(src, dst, tag int, done chan<- waitResult) {
	box := w.boxes[src][dst]
	for {
		requeued := false
		for n := len(box); n > 0; n-- {
			select {
			case m := <-box:
				if m.tag == tag {
					done <- waitResult{data: m.data}
					return
				}
				w.requeue(src, dst, m)
				requeued = true
			default:
				n = 1
			}
		}
		// Take the death channel before checking for the death: it is
		// replaced at every death, so taken afterwards it could be the
		// fresh one and a death landing in between would never wake us.
		deaths := w.deathChan()
		if w.isDead(src) {
			done <- waitResult{err: &FaultError{Op: "Irecv", Rank: dst, Dead: []int{src}}}
			return
		}
		if requeued {
			// The mailbox holds only tags we bounced back; selecting on it
			// again would wake instantly on our own requeue. Poll instead.
			select {
			case <-deaths:
			case <-time.After(100 * time.Microsecond):
			}
			continue
		}
		select {
		case m := <-box:
			if m.tag == tag {
				done <- waitResult{data: m.data}
				return
			}
			w.requeue(src, dst, m)
		case <-deaths:
		}
	}
}

// requeue puts an unmatched message back on the mailbox (tail order;
// acceptable because tags are matched, not ordered, across tags).
func (w *World) requeue(src, dst int, m message) {
	w.boxes[src][dst] <- m
}

// Wait blocks until the request completes and returns the received
// payload for receives (nil for sends, and nil if the source died
// before sending — use TryWait to distinguish a dead source from an
// empty payload).
func (r *Request) Wait() []byte {
	res := <-r.done
	if r.recv && r.comm != nil {
		r.comm.Stats.BytesRecv += int64(len(res.data))
	}
	return res.data
}

// TryWait is Wait with an explicit timeout (0 = the world default) and
// a fault-aware result: if the source rank is agreed dead before its
// message arrives it returns a *FaultError naming the dead rank, and
// if the timeout expires first it returns a timeout *FaultError with
// the dead set observed at expiry. A timed-out request remains
// outstanding and may be waited again; the late message (if it ever
// arrives) completes that retry.
func (r *Request) TryWait(timeout time.Duration) ([]byte, error) {
	if timeout == 0 && r.comm != nil {
		timeout = r.comm.world.recvTimeout
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case res := <-r.done:
		if res.err != nil {
			return nil, res.err
		}
		if r.recv && r.comm != nil {
			r.comm.Stats.BytesRecv += int64(len(res.data))
		}
		return res.data, nil
	case <-deadline:
		var dead []int
		if r.comm != nil {
			dead = r.comm.world.DeadRanks()
		}
		return nil, &FaultError{Op: "Irecv", Rank: r.rank(), Timeout: true, Dead: dead}
	}
}

func (r *Request) rank() int {
	if r.comm != nil {
		return r.comm.rank
	}
	return -1
}

// Waitall completes every request, returning receive payloads in
// request order.
func Waitall(reqs []*Request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = r.Wait()
	}
	return out
}

// TryWaitall completes every request through TryWait, returning the
// payloads in request order alongside the first failure observed.
// Requests whose source died or timed out contribute nil payloads; the
// remaining requests are still drained so no message is left to steal
// a later receive.
func TryWaitall(reqs []*Request, timeout time.Duration) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	var first error
	for i, r := range reqs {
		data, err := r.TryWait(timeout)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		out[i] = data
	}
	return out, first
}

// Scatterv distributes root's per-rank payloads: rank i receives
// parts[i]. Non-root ranks pass nil parts.
func (c *Comm) Scatterv(root int, parts [][]byte) []byte {
	out, err := c.TryScatterv(root, parts)
	if err != nil {
		c.abort(err)
	}
	return out
}

// TryScatterv is Scatterv returning observed failures as a
// *FaultError; the received payload is still returned alongside it.
func (c *Comm) TryScatterv(root int, parts [][]byte) ([]byte, error) {
	drop, timeoutErr := c.collHooks("Scatterv")
	if c.rank == root {
		if len(parts) != c.world.size {
			panic(fmt.Sprintf("mpi: scatterv needs %d parts, got %d", c.world.size, len(parts)))
		}
		c.world.slotMu.Lock()
		for r := 0; r < c.world.size; r++ {
			if drop {
				c.world.slots[r] = nil
			} else {
				c.world.slots[r] = parts[r]
			}
			if r != root {
				c.Stats.BytesSent += int64(len(parts[r]))
			}
		}
		c.world.slotMu.Unlock()
	}
	dead1, ev := c.syncPoint()
	if ev {
		return nil, c.collResult("Scatterv", dead1, true, timeoutErr)
	}
	c.world.slotMu.Lock()
	src := c.world.slots[c.rank]
	c.world.slotMu.Unlock()
	out := make([]byte, len(src))
	copy(out, src)
	if c.rank != root {
		c.Stats.BytesRecv += int64(len(src))
	}
	dead2, ev := c.syncPoint()
	c.Stats.CollectiveOps++
	return out, c.collResult("Scatterv", unionDead(dead1, dead2), ev, timeoutErr)
}

// ReduceInt64 combines v across ranks with op; only root receives the
// result (others get 0), matching MPI_Reduce.
func (c *Comm) ReduceInt64(root int, v int64, op Op) int64 {
	parts := c.Gatherv(root, encodeInt64(v))
	if c.rank != root {
		return 0
	}
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

// alltoallvTag is the reserved point-to-point tag carrying Alltoallv's
// pairwise segments, chosen far outside the non-negative tag space that
// application code uses so collective traffic never steals a user
// message.
const alltoallvTag = -0x40000000

// Alltoallv exchanges per-destination payloads: send[i] goes to rank
// i; the result's element [i] is what rank i sent to this rank. It is
// a true pairwise exchange — each rank receives only the segments
// addressed to it, so the meters charge exactly the bytes a real
// exchange would move (the earlier Allgatherv-based construction
// broadcast every rank's whole send matrix, inflating received traffic
// by a factor of the world size).
func (c *Comm) Alltoallv(send [][]byte) [][]byte {
	out, err := c.TryAlltoallv(send)
	if err != nil {
		c.abort(err)
	}
	return out
}

// TryAlltoallv is Alltoallv returning observed failures as a
// *FaultError, like the other Try* collectives: segments from ranks
// that died before delivering come back nil (an empty segment from a
// live rank is non-nil), and the partial result is still returned
// alongside the error. Each pairwise segment travels as one
// point-to-point message, so message faults (dropmsg/delaymsg) hit
// individual segments; a dropped segment surfaces as a receive timeout
// when the world has one — without a timeout it is indistinguishable
// from an arbitrarily slow sender, as with real MPI.
func (c *Comm) TryAlltoallv(send [][]byte) ([][]byte, error) {
	if len(send) != c.world.size {
		panic(fmt.Sprintf("mpi: alltoallv needs %d send buffers, got %d", c.world.size, len(send)))
	}
	before := c.Stats
	drop, timeoutErr := c.collHooks("Alltoallv")
	dead1, ev := c.syncPoint()
	if ev {
		return nil, c.collResult("Alltoallv", dead1, true, timeoutErr)
	}
	out := make([][]byte, c.world.size)
	// Self-delivery never touches the wire; it is lost when this rank's
	// contribution drops, matching Allgatherv losing its own slot.
	if !drop {
		out[c.rank] = append([]byte{}, send[c.rank]...)
	}
	// Send phase: one message per destination, walked in a rank-shifted
	// order so the pairwise traffic does not converge on rank 0 first.
	for off := 1; off < c.world.size; off++ {
		dst := (c.rank + off) % c.world.size
		seg := send[dst]
		if drop {
			seg = nil
		}
		c.sendSegment(dst, alltoallvTag, seg)
	}
	// Receive phase: exactly one segment from every other rank. Sources
	// that die mid-exchange contribute nil, but segments they delivered
	// before dying remain receivable (tryRecv drains the mailbox before
	// concluding a source is dead).
	var recvDead []int
	for off := 1; off < c.world.size; off++ {
		src := (c.rank - off + c.world.size) % c.world.size
		data, err := c.tryRecv(src, alltoallvTag, c.world.recvTimeout)
		if err != nil {
			fe, ok := AsFault(err)
			if !ok {
				return out, err
			}
			if fe.Timeout && timeoutErr == nil {
				timeoutErr = &FaultError{Op: "Alltoallv", Rank: c.rank, Timeout: true, Dead: fe.Dead}
			}
			recvDead = unionDead(recvDead, fe.Dead)
			continue
		}
		out[src] = data
	}
	dead2, ev := c.syncPoint()
	c.Stats.CollectiveOps++
	c.observeCollective("Alltoallv", before)
	return out, c.collResult("Alltoallv", unionDead(dead1, recvDead, dead2), ev, timeoutErr)
}

// SplitColor partitions the world by color, returning this rank's new
// rank within its color group and the group's size. It is a metadata
// split (MPI_Comm_split's numbering) — the returned coordinates let
// callers address subgroups through the parent communicator.
func (c *Comm) SplitColor(color int) (newRank, newSize int) {
	colors := c.AllgatherInt(color)
	for r, col := range colors {
		if col != color {
			continue
		}
		if r == c.rank {
			newRank = newSize
		}
		newSize++
	}
	return newRank, newSize
}
