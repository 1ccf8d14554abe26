package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorldRunAllRanks(t *testing.T) {
	var seen int64
	w := NewWorld(8)
	w.Run(func(c *Comm) {
		atomic.AddInt64(&seen, 1)
		if c.Size() != 8 {
			t.Errorf("size = %d", c.Size())
		}
	})
	if seen != 8 {
		t.Errorf("ran %d ranks, want 8", seen)
	}
}

func TestNewWorldPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for size 0")
		}
	}()
	NewWorld(0)
}

func TestSendRecvRing(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() - 1 + n) % n
		c.Send(next, 0, []byte(fmt.Sprintf("from-%d", c.Rank())))
		got := c.Recv(prev, 0)
		want := fmt.Sprintf("from-%d", prev)
		if string(got) != want {
			t.Errorf("rank %d got %q, want %q", c.Rank(), got, want)
		}
	})
}

func TestRecvTagMatching(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("seven"))
			c.Send(1, 3, []byte("three"))
		} else {
			// Receive in the opposite order of sending: tag 3 first.
			if got := c.Recv(0, 3); string(got) != "three" {
				t.Errorf("tag 3 got %q", got)
			}
			if got := c.Recv(0, 7); string(got) != "seven" {
				t.Errorf("tag 7 got %q", got)
			}
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []byte("AAAA")
			c.Send(1, 0, buf)
			copy(buf, "ZZZZ") // mutate after send: receiver must see AAAA
		} else {
			if got := c.Recv(0, 0); string(got) != "AAAA" {
				t.Errorf("got %q, want AAAA", got)
			}
		}
	})
}

func TestBcast(t *testing.T) {
	w := NewWorld(6)
	w.Run(func(c *Comm) {
		var payload []byte
		if c.Rank() == 2 {
			payload = []byte("hello cluster")
		}
		got := c.Bcast(2, payload)
		if string(got) != "hello cluster" {
			t.Errorf("rank %d bcast got %q", c.Rank(), got)
		}
	})
}

func TestAllgatherv(t *testing.T) {
	const n = 7
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		mine := bytes.Repeat([]byte{byte('a' + c.Rank())}, c.Rank()+1)
		all := c.Allgatherv(mine)
		if len(all) != n {
			t.Fatalf("rank %d got %d parts", c.Rank(), len(all))
		}
		for r := 0; r < n; r++ {
			want := bytes.Repeat([]byte{byte('a' + r)}, r+1)
			if !bytes.Equal(all[r], want) {
				t.Errorf("rank %d part %d = %q, want %q", c.Rank(), r, all[r], want)
			}
		}
	})
}

func TestAllgathervRepeated(t *testing.T) {
	// Back-to-back collectives must not cross-contaminate slot state.
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		for round := 0; round < 10; round++ {
			v := []byte{byte(c.Rank()), byte(round)}
			all := c.Allgatherv(v)
			for r := 0; r < 4; r++ {
				if all[r][0] != byte(r) || all[r][1] != byte(round) {
					t.Errorf("round %d rank %d: bad part %v", round, r, all[r])
				}
			}
		}
	})
}

func TestGatherv(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		parts := c.Gatherv(0, []byte{byte(c.Rank() * 10)})
		if c.Rank() == 0 {
			if len(parts) != n {
				t.Fatalf("root got %d parts", len(parts))
			}
			for r := 0; r < n; r++ {
				if parts[r][0] != byte(r*10) {
					t.Errorf("part %d = %d", r, parts[r][0])
				}
			}
		} else if parts != nil {
			t.Errorf("non-root rank %d got parts", c.Rank())
		}
	})
}

func TestAllgatherInt(t *testing.T) {
	w := NewWorld(5)
	w.Run(func(c *Comm) {
		sizes := c.AllgatherInt(c.Rank() * c.Rank())
		for r, s := range sizes {
			if s != r*r {
				t.Errorf("sizes[%d] = %d", r, s)
			}
		}
	})
}

func TestAllgathervInt64(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		mine := make([]int64, c.Rank())
		for i := range mine {
			mine[i] = int64(c.Rank()*100 + i)
		}
		all := c.AllgathervInt64(mine)
		for r := 0; r < 3; r++ {
			if len(all[r]) != r {
				t.Fatalf("part %d len=%d", r, len(all[r]))
			}
			for i, v := range all[r] {
				if v != int64(r*100+i) {
					t.Errorf("all[%d][%d] = %d", r, i, v)
				}
			}
		}
	})
}

func TestAllreduce(t *testing.T) {
	w := NewWorld(6)
	w.Run(func(c *Comm) {
		if got := c.AllreduceInt64(int64(c.Rank()+1), OpSum); got != 21 {
			t.Errorf("sum = %d, want 21", got)
		}
		if got := c.AllreduceInt64(int64(c.Rank()), OpMax); got != 5 {
			t.Errorf("max = %d, want 5", got)
		}
		if got := c.AllreduceInt64(int64(c.Rank()), OpMin); got != 0 {
			t.Errorf("min = %d, want 0", got)
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	// After a barrier every rank must observe all pre-barrier writes.
	const n = 8
	w := NewWorld(n)
	flags := make([]int64, n)
	w.Run(func(c *Comm) {
		atomic.StoreInt64(&flags[c.Rank()], 1)
		c.Barrier()
		for r := 0; r < n; r++ {
			if atomic.LoadInt64(&flags[r]) != 1 {
				t.Errorf("rank %d: flag %d unset after barrier", c.Rank(), r)
			}
		}
	})
}

func TestStatsAccounting(t *testing.T) {
	w := NewWorld(2)
	stats, _ := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, 100))
		} else {
			c.Recv(0, 0)
		}
		c.Allgatherv(make([]byte, 10))
	})
	if stats[0].BytesSent != 100+10 {
		t.Errorf("rank0 sent = %d", stats[0].BytesSent)
	}
	if stats[1].BytesRecv != 100+10 {
		t.Errorf("rank1 recv = %d", stats[1].BytesRecv)
	}
	if stats[0].Messages != 1 || stats[1].Messages != 0 {
		t.Errorf("messages = %d/%d", stats[0].Messages, stats[1].Messages)
	}
	if stats[0].CollectiveOps != 1 {
		t.Errorf("collectives = %d", stats[0].CollectiveOps)
	}
}

func TestInt64Codec(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40), 9e18} {
		if got := decodeInt64(encodeInt64(v)); got != v {
			t.Errorf("roundtrip %d = %d", v, got)
		}
	}
}

// TestWorldRunsOnce: a World's ended channel is closed by its run, so
// a second run on it would see receives end early; it panics instead.
func TestWorldRunsOnce(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) { c.Barrier() })
	defer func() {
		if recover() == nil {
			t.Fatal("second Run on one World did not panic")
		}
	}()
	w.Run(func(c *Comm) { c.Barrier() })
}

// BenchmarkAllgatherv16 times one 16-rank Allgatherv run, on a new
// World per iteration (a World runs once).
func BenchmarkAllgatherv16(b *testing.B) {
	payload := make([]byte, 1024)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := NewWorld(16)
		b.StartTimer()
		w.Run(func(c *Comm) {
			c.Allgatherv(payload)
		})
	}
}

// countingObserver records observer callbacks under a lock, as the
// trace recorder does.
type countingObserver struct {
	mu        sync.Mutex
	messages  int
	msgBytes  int
	colls     map[string]int
	deaths    []int
	evictions []int
}

func (o *countingObserver) Message(src, dst, tag, bytes int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.messages++
	o.msgBytes += bytes
}

func (o *countingObserver) Collective(rank int, op string, sent, recv int64, participants int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.colls == nil {
		o.colls = map[string]int{}
	}
	o.colls[op]++
}

func (o *countingObserver) RankDeath(rank int, evicted bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if evicted {
		o.evictions = append(o.evictions, rank)
	} else {
		o.deaths = append(o.deaths, rank)
	}
}

func TestObserverSeesTraffic(t *testing.T) {
	w := NewWorld(4)
	obs := &countingObserver{}
	w.SetObserver(obs)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello"))
		}
		if c.Rank() == 1 {
			c.Recv(0, 7)
		}
		c.Barrier()
		c.Allgatherv([]byte{byte(c.Rank())})
		c.Bcast(0, []byte("x"))
	})
	if obs.messages != 1 || obs.msgBytes != 5 {
		t.Errorf("messages=%d bytes=%d, want 1/5", obs.messages, obs.msgBytes)
	}
	for op, want := range map[string]int{"Barrier": 4, "Allgatherv": 4, "Bcast": 4} {
		if obs.colls[op] != want {
			t.Errorf("%s observed %d times, want %d", op, obs.colls[op], want)
		}
	}
}

func TestObserverSeesDeath(t *testing.T) {
	plan := &FaultPlan{}
	plan.Add(Fault{Kind: FaultKill, Rank: 1, AtCall: 1})
	w := NewWorld(3)
	w.SetFaults(plan)
	obs := &countingObserver{}
	w.SetObserver(obs)
	w.Run(func(c *Comm) {
		c.TryBarrier()
		c.TryBarrier()
		c.TryBarrier()
	})
	if len(obs.deaths) != 1 || obs.deaths[0] != 1 {
		t.Errorf("deaths = %v, want [1]", obs.deaths)
	}
	if len(obs.evictions) != 0 {
		t.Errorf("unexpected evictions %v", obs.evictions)
	}
}

// blockingObserver forwards every death over an unbuffered channel,
// modelling a trace consumer that is slow to pick events up. The
// dispatcher goroutine must absorb this: surviving ranks keep making
// progress while the observer blocks, and RunE still delivers every
// death before returning.
type blockingObserver struct {
	deaths chan int
}

func (o *blockingObserver) Message(src, dst, tag, bytes int)                            {}
func (o *blockingObserver) Collective(rank int, op string, sent, recv int64, parts int) {}
func (o *blockingObserver) RankDeath(rank int, evicted bool)                            { o.deaths <- rank }

func TestBlockingDeathObserverDoesNotDeadlock(t *testing.T) {
	plan := &FaultPlan{}
	plan.Add(Fault{Kind: FaultKill, Rank: 1, AtCall: 1})
	plan.Add(Fault{Kind: FaultKill, Rank: 2, AtCall: 2})
	w := NewWorld(4)
	w.SetFaults(plan)
	obs := &blockingObserver{deaths: make(chan int)}
	w.SetObserver(obs)

	got := make(chan []int, 1)
	go func() {
		var deaths []int
		for r := range obs.deaths {
			// Hold each notification for a while before accepting the
			// next: the barrier path that detected the death must not be
			// waiting on us.
			time.Sleep(10 * time.Millisecond)
			deaths = append(deaths, r)
		}
		got <- deaths
	}()

	done := make(chan struct{})
	go func() {
		w.Run(func(c *Comm) {
			for i := 0; i < 4; i++ {
				c.TryBarrier()
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("world deadlocked behind a blocking RankDeath observer")
	}
	// RunE has returned, so the dispatcher has already pushed every
	// death into the observer; close the forwarding channel and check
	// the full record arrived.
	close(obs.deaths)
	deaths := <-got
	if len(deaths) != 2 {
		t.Fatalf("observer saw deaths %v, want both ranks 1 and 2", deaths)
	}
	seen := map[int]bool{deaths[0]: true, deaths[1]: true}
	if !seen[1] || !seen[2] {
		t.Fatalf("observer saw deaths %v, want {1, 2}", deaths)
	}
}
