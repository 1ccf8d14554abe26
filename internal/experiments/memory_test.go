package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestMemoryFootprints(t *testing.T) {
	l := testLab()
	rows, err := MemoryFootprints(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byVariant := map[string]MemoryRow{}
	for _, r := range rows {
		byVariant[r.Variant] = r
		if r.Bytes <= 0 || r.PaperGB <= 0 {
			t.Errorf("%s/%s: non-positive footprint", r.Structure, r.Variant)
		}
	}
	// DSK's peak must be well under the in-memory counter — the reason
	// the paper mentions it.
	jf := byVariant["jellyfish (in-memory)"]
	dk := byVariant["dsk (16 disk partitions, per counting worker)"]
	if dk.Bytes >= jf.Bytes/2 {
		t.Errorf("dsk peak %d not well below jellyfish %d", dk.Bytes, jf.Bytes)
	}
	var buf bytes.Buffer
	RenderMemory(&buf, rows)
	if !strings.Contains(buf.String(), "hash seeds") {
		t.Error("render incomplete")
	}
}
