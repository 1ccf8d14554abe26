package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gotrinity/internal/cluster"
	"gotrinity/internal/collectl"
	"gotrinity/internal/mpi"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Span("c", "n", 0, 0, 1, "")
	r.RealSpan("c", "n", 0, 1, "")
	r.Event("c", "n", 0, "")
	r.RealEvent("c", "n", 0, "")
	r.Count("x", 1)
	r.Observe("x", 1)
	r.Message(0, 1, 2, 3)
	r.Collective(0, "bcast", 1, 2, 4)
	r.RankDeath(1, false)
	r.AddHeapSeries(nil, nil)
	r.Meta("x")
	r.AdvanceBase()
	if r.Base() != 0 || r.WorkSeconds(5) != 0 || r.CommSeconds(mpi.Stats{}) != 0 {
		t.Error("nil recorder returned nonzero conversions")
	}
	if got := r.Spans(); got != nil {
		t.Errorf("nil recorder spans = %v", got)
	}
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf, ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(&buf, MetricsOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	if r.StageTable() == nil {
		t.Error("nil recorder stage table nil")
	}
}

func TestBaseAdvance(t *testing.T) {
	r := New(cluster.BlueWonder(2))
	r.Span("gff", "loop1", 0, 0, 3.5, "")
	r.Span("gff", "loop1", 1, 0, 5.0, "")
	r.RealSpan("pipeline", "gff", 0, 99, "") // real spans must not move the cursor
	r.AdvanceBase()
	if got := r.Base(); got != 5.0 {
		t.Errorf("base = %g, want 5.0", got)
	}
	r.Span("r2t", "chunk 0", 0, r.Base(), 2, "")
	r.AdvanceBase()
	if got := r.Base(); got != 7.0 {
		t.Errorf("base after second stage = %g, want 7.0", got)
	}
}

func TestWorkCommSeconds(t *testing.T) {
	cfg := cluster.BlueWonder(4)
	r := New(cfg)
	if got, want := r.WorkSeconds(100), cfg.WorkTime(100); got != want {
		t.Errorf("WorkSeconds = %g, want %g", got, want)
	}
	d := mpi.Stats{BytesRecv: 1 << 20, CollectiveOps: 3}
	if got, want := r.CommSeconds(d), cfg.CommTime(d); got != want {
		t.Errorf("CommSeconds = %g, want %g", got, want)
	}
}

func TestChromeExportValidJSON(t *testing.T) {
	r := New(cluster.BlueWonder(2))
	r.Meta("run: test")
	r.Span("gff", "setup", 0, 0, 1.25, "welds=3")
	r.Span("gff", `weird "name"`+"\n", 1, 0, 2, "")
	r.Event("recovery", "chunk_reassigned", 0, "chunk=2")
	r.RealSpan("pipeline", "graphfromfasta", 0, 0.01, "")
	r.AddHeapSeries([]collectl.Sample{{At: 0.1, HeapGB: 1.5, Routine: 9}},
		[]collectl.Mark{{At: 0.1, Label: "gff"}})

	for _, includeReal := range []bool{false, true} {
		var buf bytes.Buffer
		if err := r.WriteChrome(&buf, ChromeOptions{IncludeReal: includeReal}); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("includeReal=%v: invalid JSON: %v\n%s", includeReal, err, buf.String())
		}
		var spans, instants, counters int
		for _, ev := range doc.TraceEvents {
			switch ev["ph"] {
			case "X":
				spans++
			case "i":
				instants++
			case "C":
				counters++
			}
		}
		if includeReal {
			if spans != 3 || instants != 2 || counters != 2 {
				t.Errorf("real export: spans=%d instants=%d counters=%d", spans, instants, counters)
			}
		} else {
			if spans != 2 || instants != 1 || counters != 0 {
				t.Errorf("virtual export: spans=%d instants=%d counters=%d", spans, instants, counters)
			}
		}
	}
}

func TestChromeDeterministicAcrossInterleavings(t *testing.T) {
	// The same logical recording arriving in different goroutine orders
	// must export byte-identically.
	record := func(flip bool) *Recorder {
		r := New(cluster.BlueWonder(2))
		var wg sync.WaitGroup
		for rank := 0; rank < 2; rank++ {
			rank := rank
			if flip {
				rank = 1 - rank
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := 0.0
				for i, d := range []float64{1, 2, 3} {
					r.Span("gff", []string{"setup", "loop1", "comm1"}[i], rank, start, d, "")
					start += d
				}
				r.Event("recovery", "agree_dead", rank, "round=1")
				r.Collective(rank, "bcast", 64, 64, 2)
			}()
		}
		wg.Wait()
		return r
	}
	var a, b bytes.Buffer
	if err := record(false).WriteChrome(&a, ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := record(true).WriteChrome(&b, ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("exports differ:\n%s\n---\n%s", a.String(), b.String())
	}
	var am, bm bytes.Buffer
	if err := record(false).WriteMetrics(&am, MetricsOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := record(true).WriteMetrics(&bm, MetricsOptions{}); err != nil {
		t.Fatal(err)
	}
	if am.String() != bm.String() {
		t.Errorf("metrics differ:\n%s\n---\n%s", am.String(), bm.String())
	}
}

func TestConcurrentRecording(t *testing.T) {
	// Hammer every recording entry point from many goroutines; run
	// under -race this is the recorder's thread-safety proof.
	r := New(cluster.BlueWonder(4))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Span("cat", "s", g, float64(i), 1, "")
				r.Event("cat", "e", g, "")
				r.Count("n", 1)
				r.Observe("o", float64(i))
				r.Message(g, (g+1)%8, 0, i)
				r.Collective(g, "barrier", 0, 0, 8)
				if i%50 == 0 {
					r.RankDeath(g, i%100 == 0)
					_ = r.Base()
					r.AdvanceBase()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counts()["n"]; got != 8*200 {
		t.Errorf("count n = %d, want %d", got, 8*200)
	}
	if got := len(r.Spans()); got != 8*200 {
		t.Errorf("spans = %d, want %d", got, 8*200)
	}
}

func TestMetricsFormat(t *testing.T) {
	r := New(cluster.BlueWonder(2))
	r.Count("mpi_messages_total", 3)
	r.Count("mpi_collectives_total:op=bcast", 2)
	r.Count("mpi_collectives_total:op=allgatherv", 1)
	for _, v := range []float64{1, 2, 3, 4, 100} {
		r.Observe("gff_chunk_units", v)
	}
	r.Span("gff", "loop1", 0, 0, 2.5, "")
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf, MetricsOptions{Buckets: 4}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"mpi_messages_total 3",
		`mpi_collectives_total{op="bcast"} 2`,
		`mpi_collectives_total{op="allgatherv"} 1`,
		`trace_virtual_seconds_total{cat="gff"} 2.5`,
		"# TYPE gff_chunk_units histogram",
		`gff_chunk_units_bucket{le="+Inf"} 5`,
		"gff_chunk_units_sum 110",
		"gff_chunk_units_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
	// Cumulative buckets must be non-decreasing and end at count.
	last := -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "gff_chunk_units_bucket") {
			var n int
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err != nil {
				t.Fatalf("bad bucket line %q", line)
			}
			if n < last {
				t.Errorf("bucket counts decreased: %q after %d", line, last)
			}
			last = n
		}
	}
	if last != 5 {
		t.Errorf("final cumulative bucket = %d, want 5", last)
	}
}

func TestObserverFeedsCounters(t *testing.T) {
	r := New(cluster.BlueWonder(2))
	r.Message(0, 1, 7, 128)
	r.Collective(1, "allgatherv", 256, 512, 2)
	r.RankDeath(1, false)
	r.RankDeath(2, true)
	c := r.Counts()
	if c["mpi_messages_total"] != 1 || c["mpi_message_bytes_total"] != 128 {
		t.Errorf("message counters = %v", c)
	}
	if c["mpi_collectives_total:op=allgatherv"] != 1 || c["mpi_collective_bytes_total"] != 768 {
		t.Errorf("collective counters = %v", c)
	}
	if c["faults_total:kind=rank_death"] != 1 || c["faults_total:kind=rank_evicted"] != 1 {
		t.Errorf("fault counters = %v", c)
	}
	evs := r.Events()
	if len(evs) != 2 || evs[0].Name != "rank_death" || evs[1].Name != "rank_evicted" {
		t.Errorf("events = %+v", evs)
	}
}

func TestStageTable(t *testing.T) {
	r := New(cluster.BlueWonder(2))
	// Real pipeline stages at wall-clock offsets 0..0.2s.
	r.RealSpan("pipeline", "inchworm", 0, 0.1, "")
	r.RealSpan("pipeline", "graphfromfasta", 0.1, 0.05, "")
	// Virtual rank spans for the gff stage: envelope 0..7s.
	r.Span("graphfromfasta", "loop1", 0, 0, 4, "")
	r.Span("graphfromfasta", "loop1", 1, 0, 7, "")
	r.AddHeapSeries([]collectl.Sample{
		{At: 0.05, HeapGB: 1.0}, {At: 0.12, HeapGB: 2.5},
	}, nil)
	tab := r.StageTable()
	if len(tab.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(tab.Stages))
	}
	if tab.Stages[0].Name != "inchworm" || tab.Stages[0].Duration != 0.1 {
		t.Errorf("stage 0 = %+v", tab.Stages[0])
	}
	if tab.Stages[0].RSSGB != 1.0 {
		t.Errorf("stage 0 RSS = %g, want 1.0", tab.Stages[0].RSSGB)
	}
	// gff reports the virtual envelope (7s), not the wall 0.05s, and the
	// peak heap inside its wall window.
	if tab.Stages[1].Duration != 7 || tab.Stages[1].RSSGB != 2.5 {
		t.Errorf("stage 1 = %+v", tab.Stages[1])
	}
	var buf bytes.Buffer
	if err := r.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"graphfromfasta", "per-rank virtual phases", "loop1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("timeline missing %q:\n%s", want, buf.String())
		}
	}
}

// Real spans land on per-category lanes: each real category gets its
// own tid (in sorted-category order) so overlapping pipeline stages
// render side by side instead of stacking on one row.
func TestChromeRealSpanLanes(t *testing.T) {
	r := New(cluster.BlueWonder(1))
	r.RealSpan("pipeline", "bowtie", 0, 0.5, "")
	r.RealSpan("pipeline", "graphfromfasta", 0.2, 0.6, "")
	r.RealSpan("bowtie", "partition0", 0.05, 0.1, "")
	r.RealSpan("stream", "overlap", 0.3, 0.1, "")
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf, ChromeOptions{IncludeReal: true}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	catTid := map[string]float64{}
	names := map[float64]string{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			cat := ev["cat"].(string)
			tid := ev["tid"].(float64)
			if prev, ok := catTid[cat]; ok && prev != tid {
				t.Errorf("category %q split across tids %g and %g", cat, prev, tid)
			}
			catTid[cat] = tid
		}
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			args := ev["args"].(map[string]any)
			names[ev["tid"].(float64)] = args["name"].(string)
		}
	}
	// Sorted categories: bowtie=0, pipeline=1, stream=2.
	want := map[string]float64{"bowtie": 0, "pipeline": 1, "stream": 2}
	for cat, tid := range want {
		if catTid[cat] != tid {
			t.Errorf("category %q on tid %g, want %g", cat, catTid[cat], tid)
		}
		if names[tid] != cat {
			t.Errorf("tid %g named %q, want %q", tid, names[tid], cat)
		}
	}
}
