package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"gotrinity/internal/stats"
)

// MetricsOptions controls the Prometheus-style text export.
type MetricsOptions struct {
	// Buckets is the histogram bucket count per observation series
	// (default 8).
	Buckets int
	// IncludeReal adds the wall-time-derived sampler peaks. Off by
	// default so the export is reproducible.
	IncludeReal bool
}

// WriteMetrics writes counters and observation histograms in the
// Prometheus text exposition format. Series are emitted in sorted
// order and observations are sorted before summing, so the virtual
// export is byte-identical between runs of the same input.
func (r *Recorder) WriteMetrics(w io.Writer, opts MetricsOptions) error {
	if r == nil {
		return nil
	}
	if opts.Buckets <= 0 {
		opts.Buckets = 8
	}
	spans, _, tracks, counts, obs, _ := r.snapshot()

	bw := bufio.NewWriter(w)

	// Named counters. "name:label=value" keys become labelled samples.
	names := make([]string, 0, len(counts))
	for k := range counts {
		names = append(names, k)
	}
	sort.Strings(names)
	lastBare := ""
	for _, k := range names {
		bare, label := k, ""
		if i := strings.IndexByte(k, ':'); i >= 0 {
			bare = k[:i]
			if j := strings.IndexByte(k[i+1:], '='); j >= 0 {
				label = fmt.Sprintf(`{%s=%q}`, k[i+1:i+1+j], k[i+2+j:])
			}
		}
		if bare != lastBare {
			fmt.Fprintf(bw, "# TYPE %s counter\n", bare)
			lastBare = bare
		}
		fmt.Fprintf(bw, "%s%s %d\n", bare, label, counts[k])
	}

	// Virtual span time per category: the stage/phase totals behind the
	// paper's scaling tables.
	catSec := map[string]float64{}
	for _, s := range spans {
		if !s.Real {
			catSec[s.Cat] += s.Dur
		}
	}
	cats := make([]string, 0, len(catSec))
	for c := range catSec {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	if len(cats) > 0 {
		fmt.Fprintf(bw, "# TYPE trace_virtual_seconds_total counter\n")
		for _, c := range cats {
			fmt.Fprintf(bw, "trace_virtual_seconds_total{cat=%q} %s\n", c, jsonNum(catSec[c]))
		}
	}

	// Observation histograms (chunk times, message sizes).
	writeHistograms(bw, obs, opts.Buckets)
	if opts.IncludeReal {
		for _, tr := range tracks {
			peak := 0.0
			for _, p := range tr.Points {
				if p.Value > peak {
					peak = p.Value
				}
			}
			fmt.Fprintf(bw, "# TYPE sampler_%s_peak gauge\nsampler_%s_peak %s\n",
				tr.Name, tr.Name, jsonNum(peak))
		}
	}
	return bw.Flush()
}

func writeHistograms(w io.Writer, series map[string][]float64, buckets int) {
	names := make([]string, 0, len(series))
	for k := range series {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		vals := append([]float64(nil), series[name]...)
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals) // deterministic summation order
		h := stats.NewHistogram(vals, buckets)
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		edges := h.Edges()
		cum := 0
		lastLe := ""
		for b, c := range h.Counts {
			cum += c
			le := jsonNum(edges[b+1])
			if le == lastLe {
				continue // ulp-degenerate edge collapsed under %g printing
			}
			lastLe = le
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, len(vals))
		var sum float64
		for _, v := range vals {
			sum += v
		}
		fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, jsonNum(sum), name, len(vals))
	}
}
