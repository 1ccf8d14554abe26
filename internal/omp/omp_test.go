package omp

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func coverageCheck(t *testing.T, n, threads int, sched Schedule) {
	t.Helper()
	hits := make([]int64, n)
	ParallelFor(n, threads, sched, func(i, tid int) {
		atomic.AddInt64(&hits[i], 1)
		if tid < 0 || tid >= threads && threads > 0 {
			t.Errorf("tid %d out of range", tid)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("sched=%v n=%d threads=%d: index %d visited %d times", sched.Kind, n, threads, i, h)
		}
	}
}

func TestParallelForCoverage(t *testing.T) {
	for _, sched := range []Schedule{
		{Kind: Static},
		{Kind: Dynamic},
		{Kind: Dynamic, Chunk: 7},
		{Kind: Guided},
		{Kind: Guided, Chunk: 3},
	} {
		for _, n := range []int{0, 1, 2, 10, 97, 1000} {
			for _, threads := range []int{1, 2, 3, 8, 50} {
				coverageCheck(t, n, threads, sched)
			}
		}
	}
}

// Property: every schedule visits each index exactly once for random
// (n, threads, chunk).
func TestParallelForCoverageProperty(t *testing.T) {
	f := func(nRaw, thrRaw, chunkRaw uint8, kindRaw uint8) bool {
		n := int(nRaw) % 200
		threads := int(thrRaw)%16 + 1
		sched := Schedule{Kind: ScheduleKind(kindRaw % 3), Chunk: int(chunkRaw) % 9}
		hits := make([]int64, n)
		ParallelFor(n, threads, sched, func(i, tid int) {
			atomic.AddInt64(&hits[i], 1)
		})
		for _, h := range hits {
			if h != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParallelForZeroAndNegativeThreads(t *testing.T) {
	// threads<=0 defaults to GOMAXPROCS and must still cover all work.
	coverageCheck(t, 50, 0, Schedule{Kind: Dynamic})
}

func TestParallelReduceSum(t *testing.T) {
	n := 1000
	got := ParallelReduce(n, 8, Schedule{Kind: Dynamic, Chunk: 16}, 0,
		func(i, tid, acc int) int { return acc + i },
		func(a, b int) int { return a + b })
	want := n * (n - 1) / 2
	if got != want {
		t.Errorf("reduce sum = %d, want %d", got, want)
	}
}

func TestParallelReduceEmpty(t *testing.T) {
	got := ParallelReduce(0, 4, Schedule{Kind: Static}, 42,
		func(i, tid, acc int) int { return acc + 1 },
		func(a, b int) int { return a + b })
	if got != 42 {
		t.Errorf("empty reduce = %d, want zero value 42", got)
	}
}

func TestScheduleKindString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Guided.String() != "guided" {
		t.Error("schedule names wrong")
	}
	if ScheduleKind(9).String() == "" {
		t.Error("unknown kind must still render")
	}
}

func TestStaticPartitionIsContiguousAndBalanced(t *testing.T) {
	n, threads := 103, 8
	owner := make([]int, n)
	ParallelFor(n, threads, Schedule{Kind: Static}, func(i, tid int) {
		owner[i] = tid
	})
	// Owners must be non-decreasing (contiguous blocks) and balanced ±1.
	counts := make([]int, threads)
	for i := 1; i < n; i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("static schedule not contiguous at %d", i)
		}
	}
	for _, o := range owner {
		counts[o]++
	}
	min, max := n, 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Errorf("static imbalance: min=%d max=%d", min, max)
	}
}

// TestParallelForExactMultiples targets the boundary class of PR 1's
// len%128==0 checkpoint bug: last-chunk dispatch when n is an exact
// multiple of the chunk size, when the remainder is smaller than the
// team, and when the team outnumbers the iterations.
func TestParallelForExactMultiples(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		threads int
		sched   Schedule
	}{
		{"dynamic/n%chunk==0", 128, 4, Schedule{Kind: Dynamic, Chunk: 16}},
		{"dynamic/n==chunk", 64, 4, Schedule{Kind: Dynamic, Chunk: 64}},
		{"dynamic/n==chunk*threads", 256, 4, Schedule{Kind: Dynamic, Chunk: 64}},
		{"dynamic/remaining<threads", 5, 4, Schedule{Kind: Dynamic, Chunk: 2}},
		{"dynamic/threads>n", 3, 8, Schedule{Kind: Dynamic, Chunk: 2}},
		{"dynamic/chunk>n", 10, 4, Schedule{Kind: Dynamic, Chunk: 100}},
		{"guided/n%minchunk==0", 120, 4, Schedule{Kind: Guided, Chunk: 10}},
		{"guided/n==threads*minchunk", 40, 4, Schedule{Kind: Guided, Chunk: 10}},
		{"guided/remaining<threads", 7, 6, Schedule{Kind: Guided}},
		{"guided/threads>n", 2, 16, Schedule{Kind: Guided, Chunk: 4}},
		{"static/n%threads==0", 128, 8, Schedule{Kind: Static}},
		{"static/n==threads", 8, 8, Schedule{Kind: Static}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coverageCheck(t, tc.n, tc.threads, tc.sched)
		})
	}
}

func TestParallelForProfiled(t *testing.T) {
	n, threads := 96, 4
	p := ParallelForProfiled(n, threads, Schedule{Kind: Dynamic, Chunk: 8}, func(i, tid int) {})
	if p.Threads != threads || len(p.Items) != threads || len(p.Busy) != threads {
		t.Fatalf("profile shape: %+v", p)
	}
	total := 0
	for _, c := range p.Items {
		total += c
	}
	if total != n {
		t.Errorf("profiled items %d, want %d", total, n)
	}
	if p.Makespan() < 0 {
		t.Errorf("negative makespan %v", p.Makespan())
	}
	if im := p.Imbalance(); im < 1 && !math.IsInf(im, 1) {
		t.Errorf("imbalance %g < 1", im)
	}
}

func TestParallelForProfiledEmpty(t *testing.T) {
	p := ParallelForProfiled(0, 4, Schedule{Kind: Static}, func(i, tid int) {
		t.Error("body called for n=0")
	})
	if p.Threads != 0 || p.Makespan() != 0 || p.Imbalance() != 1 {
		t.Errorf("empty profile: %+v", p)
	}
}

func BenchmarkParallelForDynamic(b *testing.B) {
	var sink int64
	for i := 0; i < b.N; i++ {
		ParallelFor(10000, 8, Schedule{Kind: Dynamic, Chunk: 64}, func(j, tid int) {
			atomic.AddInt64(&sink, int64(j&1))
		})
	}
}

func TestLPTOrder(t *testing.T) {
	w := []float64{3, 9, 1, 9, 5}
	got := LPTOrder(len(w), func(i int) float64 { return w[i] })
	want := []int{1, 3, 4, 0, 2} // decreasing weight, ties by index
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LPTOrder = %v, want %v", got, want)
		}
	}
	if len(LPTOrder(0, nil)) != 0 {
		t.Error("LPTOrder(0) not empty")
	}
}

func TestLPTMakespan(t *testing.T) {
	w := []float64{4, 3, 3, 2, 2, 2}
	// Serial: the sum.
	if got := LPTMakespan(w, 1); got != 16 {
		t.Errorf("serial makespan = %g, want 16", got)
	}
	// Two workers: LPT packs {4,2,2} and {3,3,2} -> 8.
	if got := LPTMakespan(w, 2); got != 8 {
		t.Errorf("2-worker makespan = %g, want 8", got)
	}
	// More workers than items: the heaviest item bounds the makespan.
	if got := LPTMakespan(w, 16); got != 4 {
		t.Errorf("16-worker makespan = %g, want 4", got)
	}
	// Degenerate inputs.
	if got := LPTMakespan(nil, 4); got != 0 {
		t.Errorf("empty makespan = %g", got)
	}
	if got := LPTMakespan(w, 0); got != 16 {
		t.Errorf("0-worker makespan = %g, want serial sum", got)
	}
}

// The makespan never beats the two lower bounds (mean load, heaviest
// item) and never exceeds the serial sum.
func TestLPTMakespanBounds(t *testing.T) {
	w := []float64{7, 1, 1, 1, 5, 2, 9, 4, 4, 3}
	sum, max := 0.0, 0.0
	for _, x := range w {
		sum += x
		if x > max {
			max = x
		}
	}
	for workers := 1; workers <= 12; workers++ {
		got := LPTMakespan(w, workers)
		lower := sum / float64(workers)
		if lower < max {
			lower = max
		}
		if got < lower-1e-9 || got > sum+1e-9 {
			t.Errorf("workers=%d makespan %g outside [%g, %g]", workers, got, lower, sum)
		}
	}
}
