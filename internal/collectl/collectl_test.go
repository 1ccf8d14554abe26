package collectl

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestTraceAppendChainsStarts(t *testing.T) {
	var tr Trace
	tr.Append("jellyfish", 100, 10)
	tr.Append("inchworm", 50, 40)
	tr.Append("chrysalis", 200, 20)
	if tr.Stages[1].Start != 100 || tr.Stages[2].Start != 150 {
		t.Errorf("starts = %g, %g", tr.Stages[1].Start, tr.Stages[2].Start)
	}
	if tr.Total() != 350 {
		t.Errorf("total = %g", tr.Total())
	}
	if tr.PeakRSS() != 40 {
		t.Errorf("peak = %g", tr.PeakRSS())
	}
}

func TestTraceEmpty(t *testing.T) {
	var tr Trace
	if tr.Total() != 0 || tr.PeakRSS() != 0 {
		t.Error("empty trace not zero")
	}
	var buf bytes.Buffer
	if err := tr.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRender(t *testing.T) {
	var tr Trace
	tr.Append("bowtie", 3600, 5)
	tr.Append("graphfromfasta", 7200, 12)
	var buf bytes.Buffer
	if err := tr.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"bowtie", "graphfromfasta", "total: 3.00 h", "peak RSS: 12.0 GB", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMeterRecordsStages(t *testing.T) {
	m := NewMeter()
	if err := m.Run("work", func() error {
		buf := make([]byte, 1<<20)
		_ = buf
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tr := m.Trace()
	if len(tr.Stages) != 1 || tr.Stages[0].Name != "work" {
		t.Fatalf("stages = %+v", tr.Stages)
	}
	if tr.Stages[0].Duration < 0 {
		t.Error("negative duration")
	}
}

func TestMeterPropagatesError(t *testing.T) {
	m := NewMeter()
	want := errors.New("boom")
	if err := m.Run("fail", func() error { return want }); !errors.Is(err, want) {
		t.Errorf("err = %v", err)
	}
	if len(m.Trace().Stages) != 1 {
		t.Error("failed stage not recorded")
	}
}
