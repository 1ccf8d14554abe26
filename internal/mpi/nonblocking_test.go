package mpi

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"gotrinity/internal/leakcheck"
)

func TestIsendIrecv(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			req := c.Isend(1, 5, []byte("hello"))
			req.Wait()
		} else {
			req := c.Irecv(0, 5)
			if got := req.Wait(); string(got) != "hello" {
				t.Errorf("irecv got %q", got)
			}
		}
	})
}

func TestIsendOverlap(t *testing.T) {
	// Multiple in-flight sends complete via Waitall.
	const n = 8
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			var reqs []*Request
			for i := 0; i < n; i++ {
				reqs = append(reqs, c.Isend(1, i, []byte(fmt.Sprintf("m%d", i))))
			}
			Waitall(reqs)
		} else {
			// Receive in reverse tag order to exercise matching.
			for i := n - 1; i >= 0; i-- {
				req := c.Irecv(0, i)
				if got := req.Wait(); string(got) != fmt.Sprintf("m%d", i) {
					t.Errorf("tag %d got %q", i, got)
				}
			}
		}
	})
}

func TestIsendCopiesBuffer(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []byte("XXXX")
			req := c.Isend(1, 0, buf)
			copy(buf, "YYYY")
			req.Wait()
		} else {
			if got := c.Irecv(0, 0).Wait(); string(got) != "XXXX" {
				t.Errorf("got %q", got)
			}
		}
	})
}

func TestIrecvStats(t *testing.T) {
	w := NewWorld(2)
	stats, _ := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Isend(1, 0, make([]byte, 64)).Wait()
		} else {
			c.Irecv(0, 0).Wait()
		}
	})
	if stats[0].BytesSent != 64 || stats[1].BytesRecv != 64 {
		t.Errorf("stats = %+v %+v", stats[0], stats[1])
	}
}

func TestScatterv(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		var parts [][]byte
		if c.Rank() == 1 {
			parts = make([][]byte, n)
			for r := range parts {
				parts[r] = []byte{byte(r * 11)}
			}
		}
		got := c.Scatterv(1, parts)
		if len(got) != 1 || got[0] != byte(c.Rank()*11) {
			t.Errorf("rank %d scatterv got %v", c.Rank(), got)
		}
	})
}

func TestScattervPanicsOnWrongPartCount(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			defer func() {
				if recover() == nil {
					t.Error("no panic for wrong part count")
				}
				// Unblock the peer's barrier after the panic.
				c.world.slotMu.Lock()
				c.world.slots[0] = nil
				c.world.slots[1] = nil
				c.world.slotMu.Unlock()
				c.Barrier()
				c.Barrier()
			}()
			c.Scatterv(0, [][]byte{{1}})
		} else {
			c.Scatterv(0, nil)
		}
	})
}

func TestSplitColor(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		color := c.Rank() % 2
		newRank, newSize := c.SplitColor(color)
		if newSize != 3 {
			t.Errorf("rank %d: group size %d", c.Rank(), newSize)
		}
		if want := c.Rank() / 2; newRank != want {
			t.Errorf("rank %d: new rank %d, want %d", c.Rank(), newRank, want)
		}
	})
}

func TestReduceInt64(t *testing.T) {
	w := NewWorld(5)
	w.Run(func(c *Comm) {
		got := c.ReduceInt64(2, int64(c.Rank()+1), OpSum)
		if c.Rank() == 2 {
			if got != 15 {
				t.Errorf("root sum = %d, want 15", got)
			}
		} else if got != 0 {
			t.Errorf("non-root rank %d got %d", c.Rank(), got)
		}
	})
}

func TestAlltoallv(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		send := make([][]byte, n)
		for dst := 0; dst < n; dst++ {
			// Payload encodes (src, dst) and has per-pair length.
			send[dst] = bytesRepeat(byte(c.Rank()*10+dst), c.Rank()+dst+1)
		}
		got := c.Alltoallv(send)
		for src := 0; src < n; src++ {
			want := bytesRepeat(byte(src*10+c.Rank()), src+c.Rank()+1)
			if string(got[src]) != string(want) {
				t.Errorf("rank %d from %d: %v, want %v", c.Rank(), src, got[src], want)
			}
		}
	})
}

func bytesRepeat(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func TestAlltoallvPanicsOnWrongShape(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for wrong send shape")
			}
		}()
		c.Alltoallv([][]byte{{1}, {2}}) // world size is 1
	})
}

func TestAlltoallvSelf(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		got := c.Alltoallv([][]byte{{9, 9}})
		if len(got) != 1 || string(got[0]) != string([]byte{9, 9}) {
			t.Errorf("self alltoallv = %v", got)
		}
	})
}

// TestTryWaitKillMidRound is the regression for the fault-unaware
// Wait: rank 1 dies (injected kill) before sending the payload rank 0
// is waiting on. TryWait must surface the death as a typed *FaultError
// naming the dead rank instead of blocking forever.
func TestTryWaitKillMidRound(t *testing.T) {
	w := NewWorld(2)
	plan := NewFaultPlan()
	plan.Add(Fault{Kind: FaultKill, Rank: 1, AtCall: 0})
	w.SetFaults(plan)
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Isend(0, 7, []byte("never")) // killed at this call; payload never sent
			return
		}
		req := c.Irecv(1, 7)
		data, err := req.TryWait(2 * time.Second)
		fe, ok := AsFault(err)
		if !ok {
			t.Fatalf("TryWait error = %v, want *FaultError", err)
		}
		if fe.Timeout {
			t.Errorf("TryWait timed out; want agreed-dead error")
		}
		if len(fe.Dead) != 1 || fe.Dead[0] != 1 {
			t.Errorf("dead set = %v, want [1]", fe.Dead)
		}
		if data != nil {
			t.Errorf("payload = %v, want nil", data)
		}
	})
}

// TestTryWaitBodyErrorDeath pins the no-fault-plan case: a rank whose
// body returns an error is killed through the same death machinery, so
// a pending Irecv in a world with no fault plan must still resolve.
func TestTryWaitBodyErrorDeath(t *testing.T) {
	w := NewWorld(2)
	errs := make(chan error, 1)
	w.RunE(func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("simulated crash before send")
		}
		req := c.Irecv(1, 3)
		_, err := req.TryWait(2 * time.Second)
		errs <- err
		return nil
	})
	err := <-errs
	fe, ok := AsFault(err)
	if !ok {
		t.Fatalf("TryWait error = %v, want *FaultError", err)
	}
	if fe.Timeout || len(fe.Dead) != 1 || fe.Dead[0] != 1 {
		t.Errorf("fault = %+v, want dead=[1] without timeout", fe)
	}
}

// TestTryWaitTimeout pins the timeout path: nobody sends, nobody dies,
// the explicit deadline fires with Timeout set — and a retry after the
// message finally arrives completes normally.
func TestTryWaitTimeout(t *testing.T) {
	w := NewWorld(2)
	release := make(chan struct{})
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			<-release
			c.Isend(0, 9, []byte("late")).Wait()
			return
		}
		req := c.Irecv(1, 9)
		_, err := req.TryWait(30 * time.Millisecond)
		fe, ok := AsFault(err)
		if !ok || !fe.Timeout {
			t.Errorf("first TryWait = %v, want timeout fault", err)
		}
		close(release)
		data, err := req.TryWait(2 * time.Second)
		if err != nil || string(data) != "late" {
			t.Errorf("retry = %q, %v; want \"late\"", data, err)
		}
	})
}

// TestTryWaitallPartial drains every request even when one source is
// dead: the live payload arrives, the dead slot is nil, and the first
// failure is reported.
func TestTryWaitallPartial(t *testing.T) {
	w := NewWorld(3)
	plan := NewFaultPlan()
	plan.Add(Fault{Kind: FaultKill, Rank: 2, AtCall: 0})
	w.SetFaults(plan)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 1:
			c.Isend(0, 4, []byte("alive")).Wait()
		case 2:
			c.Isend(0, 4, []byte("dead")) // killed at this call
		default:
			reqs := []*Request{c.Irecv(1, 4), c.Irecv(2, 4)}
			out, err := TryWaitall(reqs, 2*time.Second)
			if err == nil {
				t.Error("TryWaitall err = nil, want fault for rank 2")
			}
			if string(out[0]) != "alive" || out[1] != nil {
				t.Errorf("payloads = %q, %q", out[0], out[1])
			}
		}
	})
}

// TestReceiversWakeOnBackToBackDeaths is the regression for the lost
// wake-up in matchRecv and tryRecv: the death channel is replaced at
// every death, so a receiver that checks isDead(src) and only then takes
// the channel sleeps forever when src dies in between. Each earlier
// death wakes the receivers and sends them through that window again
// while the next kill is on its way, and goroutines contending for the
// channel's lock hold the window open; src dies last, so nothing else
// would wake a receiver that missed it.
func TestReceiversWakeOnBackToBackDeaths(t *testing.T) {
	const size, worlds, irecvs = 12, 100, 8
	src := size - 1
	wantDead := func(path string, err error) {
		t.Helper()
		fe, ok := AsFault(err)
		if !ok || fe.Timeout || len(fe.Dead) != 1 || fe.Dead[0] != src {
			t.Errorf("%s = %v, want the death of rank %d", path, err, src)
		}
	}
	for i := 0; i < worlds && !t.Failed(); i++ {
		w := NewWorld(size)
		posted, killed := make(chan struct{}), make(chan struct{})
		w.RunE(func(c *Comm) error {
			switch c.Rank() {
			case 0:
				reqs := make([]*Request, irecvs)
				for j := range reqs {
					reqs[j] = c.Irecv(src, j)
				}
				close(posted)
				_, err := c.TryRecv(src, irecvs, 5*time.Second)
				wantDead("TryRecv", err)
				for _, req := range reqs {
					_, err = req.TryWait(5 * time.Second)
					wantDead("Irecv", err)
				}
			case 1:
				<-posted
				for r := 2; r < size; r++ {
					w.kill(r)
					for spin := 0; spin < (i%20)*10; spin++ {
						runtime.Gosched()
					}
				}
				close(killed)
			case 2, 3, 4:
				for {
					select {
					case <-killed:
						return nil
					default:
						w.deathChan()
					}
				}
			}
			return nil
		})
	}
}

// An Irecv whose tag never arrives exits when its world's run ends,
// instead of waiting on the mailbox forever.
func TestIrecvEndsWithWorld(t *testing.T) {
	start := leakcheck.Running()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Irecv(1, 99) // rank 1 never sends tag 99
			c.Irecv(1, 98)
		}
	})
	if n := leakcheck.Settle(start, leakcheck.Deadline); n > start {
		t.Fatalf("%d goroutines before the run, %d after it ended", start, n)
	}
}
