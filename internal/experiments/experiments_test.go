package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// testLab returns a small-scale lab so the scaling experiments run in
// test time while preserving the paper's qualitative shapes. Under
// -short (make test-short, the inner loop) the datasets shrink a
// further 3x: the shapes asserted below still hold there, and the sweep
// takes seconds instead of the full-size minute.
func testLab() *Lab {
	if testing.Short() {
		return NewLab(0.05)
	}
	return NewLab(0.15)
}

func TestFig7ShapeMatchesPaper(t *testing.T) {
	l := testLab()
	rows, err := Fig7(l, []int{1, 16, 64, 192})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The 1-node run must reproduce the calibration baseline closely.
	if base := rows[0].Total; base < paperGFFBaseline*0.95 || base > paperGFFBaseline*1.05 {
		t.Errorf("1-node total = %.0f, want ~%d", base, paperGFFBaseline)
	}
	// Totals must decrease with node count; speedup must grow.
	for i := 1; i < len(rows); i++ {
		if rows[i].Total >= rows[i-1].Total {
			t.Errorf("total did not decrease: %d nodes %.0f -> %d nodes %.0f",
				rows[i-1].Nodes, rows[i-1].Total, rows[i].Nodes, rows[i].Total)
		}
	}
	// Paper shape: meaningful speedup at 16, larger at 192, with the
	// 192-node speedup well below linear because of the serial regions.
	if rows[1].Speedup < 2 {
		t.Errorf("16-node speedup %.1f too small", rows[1].Speedup)
	}
	if rows[3].Speedup < rows[1].Speedup {
		t.Errorf("192-node speedup %.1f below 16-node %.1f", rows[3].Speedup, rows[1].Speedup)
	}
	if rows[3].Speedup > 100 {
		t.Errorf("192-node speedup %.1f implausibly linear", rows[3].Speedup)
	}
	// Loop max >= loop min (load imbalance measure present).
	for _, r := range rows {
		if r.Loop1Max < r.Loop1Min || r.Loop2Max < r.Loop2Min {
			t.Errorf("min/max inverted at %d nodes", r.Nodes)
		}
	}
	// Fig 8 shape: the non-parallel share grows with the node count.
	if rows[3].NonParPct <= rows[1].NonParPct {
		t.Errorf("non-parallel share did not grow: %.1f%% @16 vs %.1f%% @192",
			rows[1].NonParPct, rows[3].NonParPct)
	}
	var buf bytes.Buffer
	RenderFig7(&buf, rows)
	RenderFig8(&buf, rows)
	if !strings.Contains(buf.String(), "Fig 7") || !strings.Contains(buf.String(), "Fig 8") {
		t.Error("render output missing headers")
	}
}

func TestFig9ShapeMatchesPaper(t *testing.T) {
	l := testLab()
	rows, err := Fig9(l, []int{1, 4, 32})
	if err != nil {
		t.Fatal(err)
	}
	if base := rows[0].Total; base < paperR2TBaseline*0.95 || base > paperR2TBaseline*1.05 {
		t.Errorf("1-node total = %.0f, want ~%d", base, paperR2TBaseline)
	}
	// Near-linear loop scaling 4 -> 32 (paper: 8.37x over 8x nodes).
	loopSpeedup := rows[1].LoopMax / rows[2].LoopMax
	if loopSpeedup < 4 {
		t.Errorf("loop speedup 4->32 nodes = %.1fx, want near-linear", loopSpeedup)
	}
	// Overall speedup at 32 nodes should be an order of magnitude.
	if rows[2].Speedup < 5 {
		t.Errorf("32-node speedup = %.1fx", rows[2].Speedup)
	}
	var buf bytes.Buffer
	RenderFig9(&buf, rows)
	if !strings.Contains(buf.String(), "Fig 9") {
		t.Error("render missing header")
	}
}

func TestFig10ShapeMatchesPaper(t *testing.T) {
	l := testLab()
	rows, err := Fig10(l, []int{1, 16, 128})
	if err != nil {
		t.Fatal(err)
	}
	if base := rows[0].Total; base < paperBowtieBaseline*0.95 || base > paperBowtieBaseline*1.05 {
		t.Errorf("1-node total = %.0f, want ~%.0f", base, float64(paperBowtieBaseline))
	}
	if rows[0].SplitTime != 0 {
		t.Error("baseline must not pay the split")
	}
	// Speedup modest (paper ~3x) and the split dominating at scale.
	last := rows[len(rows)-1]
	if last.Speedup < 1.5 || last.Speedup > 10 {
		t.Errorf("128-node speedup = %.1fx, want modest (~3x)", last.Speedup)
	}
	if last.SplitTime <= last.AlignTime {
		t.Errorf("at 128 nodes split (%.0f) should exceed alignment (%.0f), as in Fig 10",
			last.SplitTime, last.AlignTime)
	}
	var buf bytes.Buffer
	RenderFig10(&buf, rows)
	if !strings.Contains(buf.String(), "pyfasta") {
		t.Error("render missing pyfasta column")
	}
}

func TestFig3Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(&buf, 80, 4, 2, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rank 3") || !strings.Contains(out, "chunk  7") {
		t.Errorf("fig3 output incomplete:\n%s", out)
	}
	if err := Fig3(&buf, 10, 0, 2, 1); err == nil {
		t.Error("accepted zero ranks")
	}
}

func TestFig2AndFig11Profiles(t *testing.T) {
	l := testLab()
	serial, err := Fig2(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Trace.Stages) != 7 {
		t.Fatalf("stages = %d", len(serial.Trace.Stages))
	}
	// Chrysalis must dominate the serial profile (paper: ~50 of ~60 h).
	if serial.ChrysalisHours < serial.Trace.Total()/3600*0.5 {
		t.Errorf("chrysalis %.1f h is not dominant of %.1f h total",
			serial.ChrysalisHours, serial.Trace.Total()/3600)
	}
	if serial.ChrysalisHours < 30 {
		t.Errorf("serial chrysalis = %.1f h, paper says >50 h", serial.ChrysalisHours)
	}
	par, err := Fig11(l)
	if err != nil {
		t.Fatal(err)
	}
	if par.ChrysalisHours >= serial.ChrysalisHours/3 {
		t.Errorf("parallel chrysalis %.1f h not ≪ serial %.1f h", par.ChrysalisHours, serial.ChrysalisHours)
	}
	var buf bytes.Buffer
	RenderPipelineProfile(&buf, serial)
	RenderPipelineProfile(&buf, par)
	if !strings.Contains(buf.String(), "Fig 2") || !strings.Contains(buf.String(), "Fig 11") {
		t.Error("profile render missing headers")
	}
}

func TestFig4Validation(t *testing.T) {
	l := testLab()
	res, err := Fig4(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parallel) != 4 || len(res.Original) != 2 {
		t.Fatalf("comparisons = %d/%d", len(res.Parallel), len(res.Original))
	}
	for i, c := range res.Parallel {
		if c.Total() == 0 {
			t.Errorf("parallel comparison %d empty", i)
		}
	}
	// The paper's conclusion: no significant difference.
	if res.TTest.P < 0.01 {
		t.Errorf("parallel vs original significantly different: p=%g", res.TTest.P)
	}
	var buf bytes.Buffer
	RenderFig4(&buf, res)
	if !strings.Contains(buf.String(), "t-test") {
		t.Error("fig4 render missing t-test")
	}
}

func TestFig56Validation(t *testing.T) {
	if raceEnabled {
		t.Skip("figure regeneration is ~10x slower under -race and would blow the suite timeout; see race_on_test.go")
	}
	l := testLab()
	runs := 2
	if testing.Short() {
		runs = 1 // Smith-Waterman against the reference dominates; one seed per cell
	}
	rows, err := Fig56(l, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 datasets x 2 versions
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		orig, par := rows[i], rows[i+1]
		if orig.Version != "original" || par.Version != "parallel" {
			t.Fatalf("row order wrong: %+v", rows)
		}
		if orig.FullIsoforms == 0 {
			t.Errorf("%s original reconstructed nothing", orig.Dataset)
		}
		// Versions must be comparable (within 40% of each other).
		hi, lo := orig.FullIsoforms, par.FullIsoforms
		if lo > hi {
			hi, lo = lo, hi
		}
		if lo < hi*0.6 {
			t.Errorf("%s versions diverge: original %.1f vs parallel %.1f",
				orig.Dataset, orig.FullIsoforms, par.FullIsoforms)
		}
	}
	var buf bytes.Buffer
	RenderFig56(&buf, rows)
	if !strings.Contains(buf.String(), "Fig 5") || !strings.Contains(buf.String(), "Fig 6") {
		t.Error("fig5/6 render missing headers")
	}
}

func TestHeadlineSummary(t *testing.T) {
	if raceEnabled {
		t.Skip("figure regeneration is ~10x slower under -race and would blow the suite timeout; see race_on_test.go")
	}
	l := testLab()
	h, err := Summary(l)
	if err != nil {
		t.Fatal(err)
	}
	if h.GFFSpeedup192 <= h.GFFSpeedup16 {
		t.Errorf("GFF speedups not increasing: %.1f @16 vs %.1f @192", h.GFFSpeedup16, h.GFFSpeedup192)
	}
	if h.ChrysalisTo >= h.ChrysalisFrom {
		t.Errorf("chrysalis hours did not drop: %.1f -> %.1f", h.ChrysalisFrom, h.ChrysalisTo)
	}
	var buf bytes.Buffer
	RenderHeadline(&buf, h)
	if !strings.Contains(buf.String(), "paper") {
		t.Error("headline render incomplete")
	}
}
