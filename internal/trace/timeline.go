package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"gotrinity/internal/collectl"
)

// StageTable rebuilds the paper's Fig. 2 / Fig. 11 stage timeline from
// the trace: one row per real pipeline-stage span, in execution order.
// When the sampler's heap track covers a stage's wall-clock window, the
// row's RSS is the peak heap seen inside it; stages that also recorded
// virtual rank spans report the virtual envelope (slowest rank) as the
// duration, matching the paper's representative-time convention.
func (r *Recorder) StageTable() *collectl.Trace {
	if r == nil {
		return &collectl.Trace{}
	}
	spans, _, tracks, _, _, _ := r.snapshot()

	// Virtual envelope per category: max span end - min span start.
	type window struct{ lo, hi float64 }
	virt := map[string]window{}
	for _, s := range spans {
		if s.Real {
			continue
		}
		w, ok := virt[s.Cat]
		if !ok {
			w = window{lo: s.Start, hi: s.End()}
		} else {
			if s.Start < w.lo {
				w.lo = s.Start
			}
			if s.End() > w.hi {
				w.hi = s.End()
			}
		}
		virt[s.Cat] = w
	}

	var heap []Point
	for _, tr := range tracks {
		if tr.Name == "heap_gb" {
			heap = append(heap, tr.Points...)
		}
	}
	sort.Slice(heap, func(i, j int) bool { return heap[i].At < heap[j].At })

	var stages []Span
	for _, s := range spans {
		if s.Real && s.Cat == "pipeline" {
			stages = append(stages, s)
		}
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].Seq < stages[j].Seq })

	t := &collectl.Trace{}
	for _, s := range stages {
		dur := s.Dur
		if w, ok := virt[s.Name]; ok && w.hi > w.lo {
			dur = w.hi - w.lo
		}
		rss := 0.0
		for _, p := range heap {
			if p.At >= s.Start && p.At < s.End() && p.Value > rss {
				rss = p.Value
			}
		}
		t.Append(s.Name, dur, rss)
	}
	return t
}

// WriteTimeline renders the Fig. 2/11-style stage table followed by a
// per-rank virtual phase breakdown of every traced category.
func (r *Recorder) WriteTimeline(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	if t := r.StageTable(); len(t.Stages) > 0 {
		if err := t.Render(bw); err != nil {
			return err
		}
		fmt.Fprintln(bw)
	}

	spans, events, _, _, _, _ := r.snapshot()
	byCat := map[string][]Span{}
	var cats []string
	for _, s := range spans {
		if s.Real {
			continue
		}
		if _, ok := byCat[s.Cat]; !ok {
			cats = append(cats, s.Cat)
		}
		byCat[s.Cat] = append(byCat[s.Cat], s)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		fmt.Fprintf(bw, "[%s] per-rank virtual phases\n", cat)
		fmt.Fprintf(bw, "  %4s %-16s %12s %12s  %s\n", "rank", "phase", "start (s)", "dur (s)", "detail")
		for _, s := range byCat[cat] {
			fmt.Fprintf(bw, "  %4d %-16s %12.3f %12.3f  %s\n", s.Rank, s.Name, s.Start, s.Dur, s.Arg)
		}
		fmt.Fprintln(bw)
	}
	if len(events) > 0 {
		fmt.Fprintln(bw, "events:")
		for _, e := range events {
			fmt.Fprintf(bw, "  [%s] rank %d %s %s\n", e.Cat, e.Rank, e.Name, e.Arg)
		}
	}
	return bw.Flush()
}
