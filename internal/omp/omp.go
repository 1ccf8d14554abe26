// Package omp provides the intra-node work-sharing layer of the hybrid
// implementation — the analog of the OpenMP parallel-for loops that
// Chrysalis already used on shared memory. A loop is executed by a
// team of goroutine "threads" under one of the standard OpenMP
// schedules (static, dynamic, guided), including the dynamic schedule
// the paper keeps for the non-uniform contig loops (§III-B).
package omp

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ScheduleKind selects the loop-iteration schedule.
type ScheduleKind int

// Supported schedules.
const (
	// Static divides iterations into numThreads contiguous blocks.
	Static ScheduleKind = iota
	// Dynamic hands out fixed-size chunks on demand (default chunk 1).
	Dynamic
	// Guided hands out exponentially shrinking chunks.
	Guided
)

func (k ScheduleKind) String() string {
	switch k {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	}
	return fmt.Sprintf("ScheduleKind(%d)", int(k))
}

// Schedule pairs a kind with its chunk parameter.
type Schedule struct {
	Kind  ScheduleKind
	Chunk int // minimum chunk size; <=0 means kind default
}

// DefaultThreads mirrors omp_get_max_threads: GOMAXPROCS.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }

// ParallelFor executes body(i, tid) for every i in [0, n) using the
// given number of threads and schedule. It blocks until the loop
// completes, like an OpenMP parallel-for with the implicit barrier.
func ParallelFor(n, threads int, sched Schedule, body func(i, tid int)) {
	if n <= 0 {
		return
	}
	if threads <= 0 {
		threads = DefaultThreads()
	}
	if threads > n {
		threads = n
	}
	if threads == 1 {
		for i := 0; i < n; i++ {
			body(i, 0)
		}
		return
	}
	switch sched.Kind {
	case Static:
		staticFor(n, threads, body)
	case Dynamic:
		chunk := sched.Chunk
		if chunk <= 0 {
			chunk = 1
		}
		dynamicFor(n, threads, chunk, body)
	case Guided:
		guidedFor(n, threads, sched.Chunk, body)
	default:
		panic(fmt.Sprintf("omp: unknown schedule %v", sched.Kind))
	}
}

func staticFor(n, threads int, body func(i, tid int)) {
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			lo := tid * n / threads
			hi := (tid + 1) * n / threads
			for i := lo; i < hi; i++ {
				body(i, tid)
			}
		}(t)
	}
	wg.Wait()
}

func dynamicFor(n, threads, chunk int, body func(i, tid int)) {
	var next int64
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					body(i, tid)
				}
			}
		}(t)
	}
	wg.Wait()
}

func guidedFor(n, threads, minChunk int, body func(i, tid int)) {
	if minChunk <= 0 {
		minChunk = 1
	}
	var mu sync.Mutex
	next := 0
	take := func() (lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return n, n
		}
		remaining := n - next
		chunk := remaining / threads
		if chunk < minChunk {
			chunk = minChunk
		}
		if chunk > remaining {
			chunk = remaining
		}
		lo = next
		next += chunk
		return lo, next
	}
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				lo, hi := take()
				if lo >= hi {
					return
				}
				for i := lo; i < hi; i++ {
					body(i, tid)
				}
			}
		}(t)
	}
	wg.Wait()
}

// LPTOrder returns the indices [0, n) sorted by decreasing weight,
// ties broken by ascending index — the longest-processing-time-first
// order. Feeding a dynamic-schedule ParallelFor through this
// permutation tames the imbalance of non-uniform loops (the classic
// LPT bound: no worker finishes later than 4/3 of optimal), which is
// the same non-uniform-iteration problem the paper attacks with
// dynamic OpenMP scheduling in §III-B.
func LPTOrder(n int, weight func(i int) float64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := weight(order[a]), weight(order[b])
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})
	return order
}

// LPTMakespan returns the makespan of greedily assigning the weighted
// items, heaviest first, each to the least-loaded of `workers`
// identical workers — the deterministic cost model for a worker pool
// draining a non-uniform work list. With one worker it degenerates to
// the serial sum.
func LPTMakespan(weights []float64, workers int) float64 {
	if workers <= 0 {
		workers = 1
	}
	load := make([]float64, workers)
	order := LPTOrder(len(weights), func(i int) float64 { return weights[i] })
	for _, i := range order {
		best := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		load[best] += weights[i]
	}
	var max float64
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}

// Profile summarises how a parallel-for's iterations landed on the
// team's threads — the raw material for the trace layer's per-thread
// makespan/imbalance events.
type Profile struct {
	Threads int             // team size actually used
	Items   []int           // iterations executed per thread
	Busy    []time.Duration // wall time spent in body per thread
}

// Makespan returns the longest per-thread busy time — the section's
// elapsed time under the implicit barrier.
func (p Profile) Makespan() time.Duration {
	var m time.Duration
	for _, b := range p.Busy {
		if b > m {
			m = b
		}
	}
	return m
}

// Imbalance returns max/min per-thread busy time, the same measure
// cluster.RankTimes uses across ranks; +Inf when a thread was idle.
func (p Profile) Imbalance() float64 {
	if len(p.Busy) == 0 {
		return 1
	}
	min, max := p.Busy[0], p.Busy[0]
	for _, b := range p.Busy[1:] {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if min <= 0 {
		return math.Inf(1)
	}
	return float64(max) / float64(min)
}

// ParallelForProfiled runs like ParallelFor but measures per-thread
// iteration counts and busy time. The bookkeeping is two monotonic
// clock reads per iteration; use plain ParallelFor on ultra-hot loops.
func ParallelForProfiled(n, threads int, sched Schedule, body func(i, tid int)) Profile {
	if threads <= 0 {
		threads = DefaultThreads()
	}
	if threads > n {
		threads = n
	}
	if n <= 0 {
		return Profile{}
	}
	p := Profile{
		Threads: threads,
		Items:   make([]int, threads),
		Busy:    make([]time.Duration, threads),
	}
	ParallelFor(n, threads, sched, func(i, tid int) {
		start := time.Now()
		body(i, tid)
		p.Busy[tid] += time.Since(start)
		p.Items[tid]++
	})
	return p
}

// ParallelReduce folds body's per-thread partial results with combine.
// Each thread accumulates locally (no sharing) and the partials are
// combined after the implicit barrier, in thread order, starting from
// zero. body receives the thread's current accumulator and returns the
// new one.
func ParallelReduce[T any](n, threads int, sched Schedule, zero T,
	body func(i, tid int, acc T) T, combine func(a, b T) T) T {
	if threads <= 0 {
		threads = DefaultThreads()
	}
	if threads > n {
		threads = n
	}
	if threads <= 0 {
		return zero
	}
	partial := make([]T, threads)
	for t := range partial {
		partial[t] = zero
	}
	ParallelFor(n, threads, sched, func(i, tid int) {
		partial[tid] = body(i, tid, partial[tid])
	})
	acc := zero
	for _, p := range partial {
		acc = combine(acc, p)
	}
	return acc
}
