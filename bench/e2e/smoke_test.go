package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gotrinity/internal/rnaseq"
)

var errTest = errors.New("test error")

// The tests run the harness on the Tiny preset, never on a named
// workload, so they take seconds.
var (
	tiny       = func() rnaseq.Profile { return rnaseq.Tiny(transcriptomeSeed) }
	tinyMemory = workload{Name: "tiny", Profile: tiny, Ranks: 1}
	tinyHybrid = workload{Name: "tiny-hybrid", Profile: tiny, Ranks: 4, ShardKmers: true}
	tinyFiles  = workload{Name: "tiny-files", Profile: tiny, Ranks: 1, Files: true}
)

// runTiny returns the result and the directory the trace was written to.
func runTiny(t *testing.T, w workload, endToEnd bool) (*workloadResult, string) {
	t.Helper()
	tmp, traceDir := t.TempDir(), t.TempDir()
	res, err := runWorkload(w, runOptions{
		seed: 7, repeats: 2, endToEnd: endToEnd, layers: true, tmpBase: tmp, traceOut: traceDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("%s: the run left %d entries under its temp base", w.Name, len(left))
	}
	return res, traceDir
}

// A run fails an assembly whose transcripts differ from the warm-up's,
// so zero failures means the staged replay reproduced core.Run (or,
// with Files, core.RunFiles) byte for byte and left no temp file.
func TestStagedReplayMatchesProduction(t *testing.T) {
	for _, w := range []workload{tinyMemory, tinyHybrid, tinyFiles} {
		res, _ := runTiny(t, w, false)
		if res.Failed != 0 || res.Attempted != 1+2+1 {
			t.Errorf("%s: attempted %d (want warm-up + 2 timed + replay), failures %v", w.Name, res.Attempted, res.Failures)
		}
		if res.PerLayer["core.staged_total_s"].Value <= 0 {
			t.Errorf("%s: no staged replay was measured", w.Name)
		}
		hybrid, files := w.ShardKmers, w.Files
		if got := res.PerLayer["shard.exchange_bytes"].Value > 0; got != hybrid {
			t.Errorf("%s: shard.exchange_bytes > 0 is %v, want %v", w.Name, got, hybrid)
		}
		if got := res.PerLayer["mpi.bytes_sent"].Value > 0; got != hybrid {
			t.Errorf("%s: mpi.bytes_sent > 0 is %v, want %v", w.Name, got, hybrid)
		}
		for _, name := range []string{"dsk.count_s", "jellyfish.dump_s", "jellyfish.load_s", "bowtie.sam_write_s",
			"bowtie.sam_read_s", "chrysalis.io_s", "seq.fasta_read_mb_per_s", "seq.fasta_write_mb_per_s"} {
			if got := res.PerLayer[name].Value > 0; got != files {
				t.Errorf("%s: %s > 0 is %v, want %v", w.Name, name, got, files)
			}
		}
	}
}

func TestExactCountsRepeat(t *testing.T) {
	for _, w := range []workload{tinyMemory, tinyHybrid} {
		a, _ := runTiny(t, w, false)
		b, _ := runTiny(t, w, false)
		for _, d := range perLayer {
			if d.Kind == 'c' && a.PerLayer[d.Name].Value != b.PerLayer[d.Name].Value {
				t.Errorf("%s: exact count %s = %v, then %v", w.Name, d.Name, a.PerLayer[d.Name].Value, b.PerLayer[d.Name].Value)
			}
		}
	}
}

// BENCHMARK.json and the benchmark must name the same workloads and the
// same metrics with the same units and directions, and a run must emit
// every one of them.
func TestBenchmarkJSONMatchesWhatIsEmitted(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		if w, ok := findWorkload(sw.Name); !ok || w.Why != sw.Why {
			t.Errorf("BENCHMARK.json says of workload %q: %q; the benchmark says (present %v): %q", sw.Name, sw.Why, ok, w.Why)
		}
	}

	res, traceDir := runTiny(t, tinyMemory, true)
	if res.Attempted != setupRepeats+2+1 || res.Failed != 0 {
		t.Errorf("attempted %d, failures %v", res.Attempted, res.Failures)
	}
	for _, g := range []struct {
		what      string
		spec      []specMetric
		catalogue []metricDef
		emitted   map[string]metric
	}{
		{"end_to_end", spec.EndToEnd, endToEnd, res.EndToEnd},
		{"per_layer", spec.PerLayer, perLayer, res.PerLayer},
	} {
		defs := map[string]metricDef{}
		for _, d := range g.catalogue {
			defs[d.Name] = d
		}
		if len(g.spec) != len(defs) || len(g.emitted) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the catalogue %d, a run emitted %d", g.what, len(g.spec), len(defs), len(g.emitted))
		}
		for _, m := range g.spec {
			d, ok := defs[m.Name]
			if !ok {
				t.Errorf("%s: BENCHMARK.json names %q, which the benchmark does not emit", g.what, m.Name)
				continue
			}
			better := map[bool]string{true: "higher", false: "lower"}[d.Higher]
			if m.Unit != d.Unit || m.Better != better {
				t.Errorf("%s %s: BENCHMARK.json says %s, %s is better; the benchmark says %s, %s", g.what, m.Name, m.Unit, m.Better, d.Unit, better)
			}
			if e, ok := g.emitted[m.Name]; !ok || e.Unit != m.Unit {
				t.Errorf("%s %s: emitted %+v (present %v), want unit %s", g.what, m.Name, e, ok, m.Unit)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if res.EndToEnd[m.Name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %v; these are chosen never to be 0", m.Name, res.EndToEnd[m.Name].Value)
		}
	}

	// The driver's line: exactly four keys, every metric with value and unit.
	var out bytes.Buffer
	if err := printContractLine(&out, res); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(out.String()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || !*line.Correct || line.Attempted == nil || line.Failed == nil ||
		len(line.Metrics) != len(endToEnd)+len(perLayer) {
		t.Errorf("contract line %s", out.String())
	}

	// The trace file is Chrome trace JSON: complete events, one root.
	var tr struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Args struct {
				Parent   int    `json:"parent"`
				Workload string `json:"workload"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := readJSON(filepath.Join(traceDir, "tiny.trace.json"), &tr); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" || e.Args.Workload != "tiny" {
			t.Errorf("trace event %+v", e)
		}
		if e.Args.Parent == -1 {
			roots++
		}
	}
	if roots != 1 || len(tr.TraceEvents) < 1+len(stages) {
		t.Errorf("trace has %d events, %d roots", len(tr.TraceEvents), roots)
	}
}

// The seed draws the reads and nothing else: one seed gives one input,
// two seeds give different reads of the same transcriptome.
func TestDatasetFollowsSeed(t *testing.T) {
	p := tiny()
	a, again, b := generate(p, 3), generate(p, 3), generate(p, 4)
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed gave two different datasets")
	}
	if !reflect.DeepEqual(a.Reference, b.Reference) {
		t.Error("the transcriptome changed with the seed")
	}
	if len(a.Reads) != p.Reads || len(b.Reads) != p.Reads {
		t.Fatalf("%d and %d reads, want %d", len(a.Reads), len(b.Reads), p.Reads)
	}
	same, mates := 0, 0
	for i, r := range a.Reads {
		if bytes.Equal(r.Seq, b.Reads[i].Seq) {
			same++
		}
		if len(r.Seq) != p.ReadLen {
			t.Fatalf("read %s has %d bases, want %d", r.ID, len(r.Seq), p.ReadLen)
		}
		if strings.HasSuffix(r.ID, "/1") {
			mates++
			if want := strings.TrimSuffix(r.ID, "1") + "2"; a.Reads[i+1].ID != want {
				t.Fatalf("%s is followed by %s, want its mate %s", r.ID, a.Reads[i+1].ID, want)
			}
		}
	}
	if same > len(a.Reads)/100 {
		t.Errorf("%d of %d reads are the same under two seeds", same, len(a.Reads))
	}
	if share := 2 * float64(mates) / float64(len(a.Reads)); share < 0.3 || share > 0.9 {
		t.Errorf("%.2f of the reads are mates; the profile pairs %.2f of the draws", share, p.PairedFrac)
	}
}
