package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced call into a layer: the layer (package under
// internal/) and call name, when it ran relative to the tracer's
// origin, and the span that caused it (-1 for the root).
type span struct {
	Layer  string
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int
}

// tracer records the spans of one staged replay. The replay is a single
// goroutine calling one layer at a time, so the open spans form a stack
// and a new span's parent is the innermost open one. Spans stay in
// memory until writeChromeTrace.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// do runs fn inside a span; the span closes whether or not fn fails.
func (t *tracer) do(layer, name string, fn func() error) error {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Layer: layer, Name: name, Parent: parent, Start: time.Since(t.origin)})
	t.open = append(t.open, id)
	err := fn()
	t.spans[id].End = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
	return err
}

// run is do for a call that cannot fail.
func (t *tracer) run(layer, name string, fn func()) {
	_ = t.do(layer, name, func() error { fn(); return nil }) // fn has no error to pass on
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children are clipped to the
// parent and overlapping siblings are merged, so concurrent children
// are not subtracted twice.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByCall sums self time over spans sharing a "layer.name" key.
func selfByCall(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Layer+"."+spans[i].Name] += d.Seconds()
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one complete ("X") event per span, the
// span id, its parent and the workload id in args.
func writeChromeTrace(path string, workload string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": workload},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
