package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.median and
	// statistics.quantiles(xs, n=4) from Python 3.
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
		{[]float64{3.1, 2.9, 3.4, 3.0, 2.8, 3.3, 3.2}, 3.1, 2.9, 3.3},
		{[]float64{5, 1}, 3, 0, 6},
		{[]float64{1, 2, 3}, 2, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); !near(m, c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestVerdictArithmetic(t *testing.T) {
	for _, c := range []struct {
		a, b   float64
		higher bool
		bound  float64
		noisy  bool
		want   string
	}{
		{10, 10.9, false, 0.10, false, verdictSame},    // 9 % slower, inside the bound
		{10, 11.1, false, 0.10, false, verdictWorse},   // 11 % slower
		{10, 8.9, false, 0.10, false, verdictBetter},   // 11 % faster
		{100, 89, true, 0.10, false, verdictWorse},     // throughput fell 11 %
		{100, 111, true, 0.10, false, verdictBetter},   // throughput rose 11 %
		{100, 95, true, 0.10, false, verdictSame},      // fell 5 %
		{10, 12, false, 0.10, true, verdictUnresolved}, // beyond the bound, but the host drifted
		{10, 8, false, 0.10, true, verdictUnresolved},
		{10, 10.5, false, 0.10, true, verdictSame}, // inside the bound stays same even when noisy
	} {
		if got := verdict(c.a, c.b, c.higher, c.bound, c.noisy); got != c.want {
			t.Errorf("verdict(%v -> %v, higher=%v, bound=%v, noisy=%v) = %s, want %s",
				c.a, c.b, c.higher, c.bound, c.noisy, got, c.want)
		}
	}
	if w := worsening(4, 5, false); !near(w, 0.25) {
		t.Errorf("worsening(4 -> 5, lower is better) = %v, want 0.25", w)
	}
	if w := worsening(4, 5, true); !near(w, -0.25) {
		t.Errorf("worsening(4 -> 5, higher is better) = %v, want -0.25", w)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Layer: "core", Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Layer: "a", Name: "first", Start: ms(10), End: ms(40), Parent: 0},  // sibling
		{Layer: "a", Name: "second", Start: ms(50), End: ms(90), Parent: 0}, // sibling with a child
		{Layer: "b", Name: "inner", Start: ms(60), End: ms(80), Parent: 2},  // nested
		{Layer: "b", Name: "inner", Start: ms(82), End: ms(85), Parent: 2},  // second call of the same name
		{Layer: "c", Name: "x", Start: ms(20), End: ms(30), Parent: 1},      // two concurrent children ...
		{Layer: "c", Name: "y", Start: ms(25), End: ms(35), Parent: 1},      // ... overlapping by 5 ms
	}
	want := []time.Duration{ms(30), ms(15), ms(17), ms(20), ms(3), ms(10), ms(10)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s.%s) = %v, want %v", i, spans[i].Layer, spans[i].Name, got[i], want[i])
		}
	}
	if by := selfByCall(spans); !near(by["b.inner"], 0.023) {
		t.Errorf("b.inner summed self time = %v, want 0.023", by["b.inner"])
	}

	// The tracer nests by call order and closes a span when its call fails.
	tr := newTracer("t")
	_ = tr.do("core", "root", func() error {
		tr.run("a", "child", func() {})
		return tr.do("a", "failing", func() error { return errTest })
	})
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || len(tr.open) != 0 {
		t.Fatalf("tracer recorded %+v with %d spans still open", tr.spans, len(tr.open))
	}
	for i, s := range tr.spans {
		if s.End < s.Start || s.End == 0 {
			t.Errorf("span %d was not closed: %+v", i, s)
		}
	}
}

func TestCompareSets(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{
		{Name: "assembly_wall_s", Unit: "s", Better: "lower", Bound: 0.10},
		{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.02},
	}}
	set := func(wall, alloc, calibAfter float64, failed int) *resultSet {
		return &resultSet{Workloads: []*workloadResult{{
			Workload: "w", Attempted: 10, Failed: failed,
			EndToEnd: map[string]metric{"assembly_wall_s": {Value: wall}, "alloc_mb": {Value: alloc}},
			PerLayer: map[string]metric{"host.calib_ms_before": {Value: 100}, "host.calib_ms_after": {Value: calibAfter},
				"inchworm.contigs": {Value: 5}},
		}}}
	}
	base := set(2.0, 100, 101, 0)
	for _, c := range []struct {
		name string
		b    *resultSet
		ok   bool
		want string
	}{
		{"same", set(2.1, 101, 100, 0), true, verdictSame},
		{"slower", set(2.3, 100, 100, 0), false, verdictWorse},
		{"slower on a drifting host", set(2.3, 100, 115, 0), true, verdictUnresolved},
		{"allocates more on a drifting host", set(2.0, 103, 115, 0), false, verdictWorse}, // not a wall metric
		{"an assembly failed", set(2.0, 100, 100, 1), false, verdictWorse},
		{"workload missing", &resultSet{}, false, verdictWorse},
	} {
		var out strings.Builder
		if ok := compareSets(&out, spec, base, c.b); ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok = %v, want %v with a %q row:\n%s", c.name, ok, c.ok, c.want, out.String())
		}
	}
}

func TestSpreadTable(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{
		{Name: "assembly_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}}
	runs := func(wall func(i int) float64) []*workloadResult {
		rs := make([]*workloadResult, 10)
		for i := range rs {
			rs[i] = &workloadResult{Workload: "w", EndToEnd: map[string]metric{
				"assembly_wall_s": {Value: wall(i)}, "setup_s": {Value: float64(1 + i)}}} // set-up spread 100 %
		}
		return rs
	}
	for _, c := range []struct {
		name string
		runs []*workloadResult
		ok   bool
		want string
	}{
		{"steady", runs(func(i int) float64 { return 2 + 0.01*float64(i) }), true, "not judged"},
		{"above a third", runs(func(i int) float64 { return 2 + 0.04*float64(i) }), true, "above a third"},
		{"beyond", runs(func(i int) float64 { return 1 + float64(i) }), false, "BEYOND"},
		{"one run", runs(func(int) float64 { return 2 })[:1], false, "no spread"},
	} {
		var out strings.Builder
		if ok := spreadTable(&out, spec, c.runs); ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok = %v, want %v with %q:\n%s", c.name, ok, c.ok, c.want, out.String())
		}
	}
}
