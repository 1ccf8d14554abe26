// Package trace is the unified tracing and metrics layer of the
// virtual cluster. A Recorder collects, per run:
//
//   - spans in virtual cluster time (per-rank Chrysalis phases and
//     chunks, converted from metered work units by the cluster cost
//     model) and in real wall time (pipeline stages);
//   - events (fault injections, rank deaths, recovery rounds, chunk
//     reassignments, straggler evictions) and per-collective traffic
//     from internal/mpi's Observer hooks;
//   - named counters and observation series (chunk times, message
//     sizes) that back the Prometheus-style metrics export;
//   - the Collectl sampler's heap series as counter tracks.
//
// Exporters render the same recording three ways: Chrome trace-event
// JSON for chrome://tracing / Perfetto (chrome.go), a Prometheus text
// metrics dump (metrics.go), and the paper's Fig. 2/11 stage tables
// (timeline.go).
//
// Every method is safe on a nil *Recorder (a cheap pointer check), so
// the hot paths pay nothing when tracing is off, and safe for
// concurrent use by all rank goroutines. Virtual-time data is a
// deterministic function of the input, seed and rank count; real-time
// data is flagged and excluded from exports unless asked for, which is
// what makes the golden determinism tests possible.
package trace

import (
	"fmt"
	"sort"
	"sync"

	"gotrinity/internal/cluster"
	"gotrinity/internal/collectl"
	"gotrinity/internal/mpi"
)

// Span is one timed interval. Virtual spans carry deterministic
// cluster-model seconds; Real spans carry wall-clock seconds.
type Span struct {
	Cat   string  // grouping category: "gff", "r2t", "pipeline", ...
	Name  string  // phase or chunk label
	Rank  int     // owning MPI rank (RealRank for whole-process spans)
	Start float64 // seconds from the trace origin
	Dur   float64 // seconds
	Arg   string  // preformatted key=value details (may be empty)
	Real  bool    // wall time, not virtual cluster time
	Seq   int     // per-(cat,rank) record ordinal; stable sort key
}

// End returns the span's finish time.
func (s Span) End() float64 { return s.Start + s.Dur }

// Event is one instant: a fault, a recovery action, an omp summary.
type Event struct {
	Cat  string
	Name string
	Rank int
	Arg  string
	Real bool // carries wall-time-derived values
	Seq  int  // per-(cat,rank) record ordinal
}

// Point is one sample of a counter track.
type Point struct {
	At    float64 // seconds from the trace origin (real time)
	Value float64
}

// CounterTrack is a named time series (heap GB, live goroutines).
type CounterTrack struct {
	Name   string
	Points []Point
}

// RealRank is the pseudo-rank of whole-process (non-rank) spans.
const RealRank = -1

// Recorder accumulates one run's trace. The zero value is not usable;
// create with New. All methods are nil-safe and race-safe.
type Recorder struct {
	mu       sync.Mutex
	cfg      cluster.Config
	base     float64 // virtual-time cursor: where the next stage's spans start
	spans    []Span
	events   []Event
	tracks   []CounterTrack
	counts   map[string]int64
	obs      map[string][]float64 // deterministic observation series
	seqs     map[string]int
	metadata []string
}

// New creates a Recorder converting work units and comm stats with the
// given cluster configuration.
func New(cfg cluster.Config) *Recorder {
	return &Recorder{
		cfg:      cfg,
		counts:   map[string]int64{},
		obs:      map[string][]float64{},
		seqs:     map[string]int{},
		metadata: []string{"cluster: " + cfg.Describe()},
	}
}

// Config returns the cluster model the recorder converts with.
func (r *Recorder) Config() cluster.Config {
	if r == nil {
		return cluster.Config{}
	}
	return r.cfg
}

// WorkSeconds converts metered work units to virtual seconds (0 on a
// nil recorder, so callers can compute cursors unconditionally).
func (r *Recorder) WorkSeconds(units float64) float64 {
	if r == nil {
		return 0
	}
	return r.cfg.WorkTime(units)
}

// CommSeconds converts a communication stats delta to virtual seconds.
func (r *Recorder) CommSeconds(d mpi.Stats) float64 {
	if r == nil {
		return 0
	}
	return r.cfg.CommTime(d)
}

// Meta appends one line of run metadata (exported with the trace).
func (r *Recorder) Meta(line string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.metadata = append(r.metadata, line)
	r.mu.Unlock()
}

// Base returns the virtual-time cursor: the start offset for the next
// stage's rank spans.
func (r *Recorder) Base() float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.base
}

// AdvanceBase moves the virtual cursor to the end of the latest virtual
// span recorded so far, so the next stage's spans start after this
// stage's slowest rank — the paper's "representative time" composition.
func (r *Recorder) AdvanceBase() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if !s.Real && s.End() > r.base {
			r.base = s.End()
		}
	}
}

func (r *Recorder) nextSeq(cat string, rank int) int {
	key := fmt.Sprintf("%s/%d", cat, rank)
	s := r.seqs[key]
	r.seqs[key] = s + 1
	return s
}

// Span records one virtual-time interval for a rank.
func (r *Recorder) Span(cat, name string, rank int, start, dur float64, arg string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{Cat: cat, Name: name, Rank: rank,
		Start: start, Dur: dur, Arg: arg, Seq: r.nextSeq(cat, rank)})
	r.mu.Unlock()
}

// OverlapLanes renders one rank's double-buffered fetch/compute
// schedule as paired spans: tile 0's fetch is exposed, then each
// tile's compute starts when its fetch has landed while the next
// tile's fetch flies underneath it — "fetch <name> tile t" and
// "compute <name> tile t" spans in the given category. fetch and
// compute are per-tile virtual durations (fetch has one entry per
// tile; compute may be shorter). Returns the schedule's end time, so
// phases can be chained. Deterministic: derived purely from metered
// durations.
func (r *Recorder) OverlapLanes(cat, name string, rank int, start float64, fetch, compute []float64) float64 {
	if r == nil {
		return start
	}
	if len(fetch) == 0 {
		return start
	}
	// waitDone: when tile t's answers are in hand.
	waitDone := start + fetch[0]
	r.Span(cat, fmt.Sprintf("fetch %s tile 0", name), rank, start, fetch[0], "")
	for t := 0; t < len(fetch); t++ {
		var c float64
		if t < len(compute) {
			c = compute[t]
		}
		computeEnd := waitDone + c
		r.Span(cat, fmt.Sprintf("compute %s tile %d", name, t), rank, waitDone, c, "")
		if t+1 < len(fetch) {
			// The next tile's round was posted when this compute started.
			r.Span(cat, fmt.Sprintf("fetch %s tile %d", name, t+1), rank, waitDone, fetch[t+1], "")
			next := waitDone + fetch[t+1]
			if computeEnd > next {
				next = computeEnd
			}
			waitDone = next
		} else {
			waitDone = computeEnd
		}
	}
	return waitDone
}

// RealSpan records one wall-clock interval (a pipeline stage).
func (r *Recorder) RealSpan(cat, name string, start, dur float64, arg string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{Cat: cat, Name: name, Rank: RealRank,
		Start: start, Dur: dur, Arg: arg, Real: true, Seq: r.nextSeq(cat, RealRank)})
	r.mu.Unlock()
}

// Event records one deterministic instant for a rank.
func (r *Recorder) Event(cat, name string, rank int, arg string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, Event{Cat: cat, Name: name, Rank: rank,
		Arg: arg, Seq: r.nextSeq("ev/"+cat, rank)})
	r.mu.Unlock()
}

// RealEvent records an instant whose arg carries wall-time values.
func (r *Recorder) RealEvent(cat, name string, rank int, arg string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, Event{Cat: cat, Name: name, Rank: rank,
		Arg: arg, Real: true, Seq: r.nextSeq("ev/"+cat, rank)})
	r.mu.Unlock()
}

// Count adds delta to a named monotonic counter.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += delta
	r.mu.Unlock()
}

// Observe appends one value to a deterministic observation series; the
// metrics exporter renders each series as a histogram.
func (r *Recorder) Observe(series string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.obs[series] = append(r.obs[series], v)
	r.mu.Unlock()
}

// AddHeapSeries feeds a Collectl sampler's heap/goroutine series into
// the trace as counter tracks (real time).
func (r *Recorder) AddHeapSeries(samples []collectl.Sample, marks []collectl.Mark) {
	if r == nil || len(samples) == 0 {
		return
	}
	heap := CounterTrack{Name: "heap_gb"}
	routines := CounterTrack{Name: "goroutines"}
	for _, s := range samples {
		heap.Points = append(heap.Points, Point{At: s.At, Value: s.HeapGB})
		routines.Points = append(routines.Points, Point{At: s.At, Value: float64(s.Routine)})
	}
	r.mu.Lock()
	r.tracks = append(r.tracks, heap, routines)
	r.mu.Unlock()
	for _, m := range marks {
		r.RealEvent("sampler", m.Label, RealRank, fmt.Sprintf("at=%.3fs", m.At))
	}
}

// --- mpi.Observer implementation -----------------------------------

// Message implements mpi.Observer: point-to-point traffic feeds the
// message counters and the size histogram.
func (r *Recorder) Message(src, dst, tag, bytes int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts["mpi_messages_total"]++
	r.counts["mpi_message_bytes_total"] += int64(bytes)
	r.obs["mpi_message_bytes"] = append(r.obs["mpi_message_bytes"], float64(bytes))
	r.mu.Unlock()
}

// Collective implements mpi.Observer: each completed collective feeds
// the per-op counters and the payload-size histogram.
func (r *Recorder) Collective(rank int, op string, sent, recv int64, participants int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts["mpi_collectives_total:op="+op]++
	r.counts["mpi_collective_bytes_total"] += sent + recv
	r.obs["mpi_collective_bytes"] = append(r.obs["mpi_collective_bytes"], float64(sent+recv))
	r.mu.Unlock()
}

// RankDeath implements mpi.Observer: deaths and evictions become fault
// events. Delivered asynchronously by the world's death dispatcher, in
// death order.
func (r *Recorder) RankDeath(rank int, evicted bool) {
	if r == nil {
		return
	}
	name := "rank_death"
	if evicted {
		name = "rank_evicted"
	}
	r.mu.Lock()
	r.events = append(r.events, Event{Cat: "fault", Name: name, Rank: rank,
		Seq: r.nextSeq("ev/fault", rank)})
	r.counts["faults_total:kind="+name]++
	r.mu.Unlock()
}

// --- deterministic snapshots ----------------------------------------

// snapshot returns sorted copies of the recording under the lock.
// Spans and events are ordered by (Start, Cat, Rank, Seq) — every
// component deterministic for virtual data — so exports are
// byte-stable regardless of goroutine interleaving.
func (r *Recorder) snapshot() (spans []Span, events []Event, tracks []CounterTrack, counts map[string]int64, obs map[string][]float64, meta []string) {
	r.mu.Lock()
	spans = append([]Span(nil), r.spans...)
	events = append([]Event(nil), r.events...)
	tracks = append([]CounterTrack(nil), r.tracks...)
	counts = make(map[string]int64, len(r.counts))
	for k, v := range r.counts {
		counts[k] = v
	}
	obs = make(map[string][]float64, len(r.obs))
	for k, v := range r.obs {
		obs[k] = append([]float64(nil), v...)
	}
	meta = append([]string(nil), r.metadata...)
	r.mu.Unlock()

	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Cat != b.Cat {
			return a.Cat < b.Cat
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Seq < b.Seq
	})
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Cat != b.Cat {
			return a.Cat < b.Cat
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Seq < b.Seq
	})
	return spans, events, tracks, counts, obs, meta
}

// Spans returns the recorded spans in deterministic order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	spans, _, _, _, _, _ := r.snapshot()
	return spans
}

// Events returns the recorded events in deterministic order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	_, events, _, _, _, _ := r.snapshot()
	return events
}

// Counts returns a copy of the named counters.
func (r *Recorder) Counts() map[string]int64 {
	if r == nil {
		return nil
	}
	_, _, _, counts, _, _ := r.snapshot()
	return counts
}
