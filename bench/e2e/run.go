package main

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"gotrinity/internal/core"
	"gotrinity/internal/seq"
)

// runOptions selects what one workload run measures.
type runOptions struct {
	seed int64
	// The timed phase takes repeats assemblies, or, when seconds > 0,
	// as many as fit in that window (never fewer than minTimed).
	repeats int
	seconds float64
	// endToEnd reports the tracing-off numbers; layers adds the traced
	// staged replay and the probes.
	endToEnd, layers bool
	tmpBase          string // where the run's one temp root is made ("" = os.TempDir())
	traceOut         string // directory for <workload>.trace.json ("" = not written)
}

const (
	// setupRepeats: set-up is done this many times and setup_s is the
	// median, so one slow file write does not read as a regression.
	setupRepeats = 3
	minTimed     = 3
)

// inputSizes states how big the generated input is.
type inputSizes struct {
	Reads       int `json:"reads"`
	ReadBases   int `json:"read_bases"`
	RefIsoforms int `json:"ref_isoforms"`
	RefBases    int `json:"ref_bases"`
}

// workloadResult is everything one workload run reports.
type workloadResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Host      hostStamp         `json:"host"`
	Inputs    inputSizes        `json:"inputs"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// sample is what one timed assembly cost.
type sample struct {
	wall, cpu         float64 // seconds
	allocMB, mallocsK float64
	gcCycles, gcPause float64 // count, ms
}

// harness drives one workload: it owns the temp root, the generated
// dataset and the tally of attempted and failed assemblies.
type harness struct {
	w     workload
	opt   runOptions
	root  string // everything on disk lives here; removed on every exit path
	spill string // the external-memory TmpDir, under root
	cfg   core.Config

	data      *dataset
	readsPath string
	want      string // transcripts digest of the first warm-up
	wantFasta []byte

	attempted int
	failures  []string
}

// runWorkload measures one workload. An error means the benchmark
// itself could not run; a failed assembly is counted in the result.
func runWorkload(w workload, opt runOptions) (res *workloadResult, err error) {
	if err := os.MkdirAll(cmp.Or(opt.tmpBase, os.TempDir()), 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(opt.tmpBase, "bench-e2e-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rmErr := os.RemoveAll(root); err == nil {
			err = rmErr
		}
	}()
	h := &harness{w: w, opt: opt, root: root,
		spill: filepath.Join(root, "spill"), readsPath: filepath.Join(root, "reads.fa")}
	if err := os.Mkdir(h.spill, 0o755); err != nil {
		return nil, err
	}
	h.cfg = w.config(opt.seed, h.spill)

	res = &workloadResult{Workload: w.Name, Seed: opt.seed, Host: stampHost()}
	calibBefore := calibrate()

	// --- set-up: generate, write reads.fa, one warm-up assembly.
	setups := setupRepeats
	if !opt.endToEnd {
		setups = 1 // setup_s is an end-to-end number
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		s, err := h.setup()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}
	res.Inputs = inputSizes{Reads: len(h.data.Reads), RefIsoforms: len(h.data.Reference)}
	for _, r := range h.data.Reads {
		res.Inputs.ReadBases += len(r.Seq)
	}
	for _, t := range h.data.Reference {
		res.Inputs.RefBases += len(t.Seq)
	}

	// --- the timed assemblies, tracing off. A layers-only run keeps
	// half the window for the replay and the probes.
	window := time.Duration(opt.seconds * float64(time.Second))
	if !opt.endToEnd {
		window /= 2
	}
	var samples []sample
	for start := time.Now(); ; {
		s, fasta, err := h.assemble()
		if h.check("timed assembly", fasta, err) {
			samples = append(samples, s)
		}
		n := h.attempted - setups
		if window > 0 && n >= minTimed && time.Since(start) >= window {
			break
		}
		if window == 0 && n >= opt.repeats {
			break
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: every timed assembly failed: %v", w.Name, h.failures)
	}
	peakRSS := peakRSSMB()
	col := func(f func(sample) float64) []float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return xs
	}
	wall := col(func(s sample) float64 { return s.wall })

	if opt.endToEnd {
		e := newMetricSet(endToEnd)
		e.setSamples("assembly_wall_s", wall)
		e.set("reads_per_s", float64(len(h.data.Reads))/median(wall))
		e.setSamples("cpu_s", col(func(s sample) float64 { return s.cpu }))
		e.set("peak_rss_mb", peakRSS)
		e.setSamples("alloc_mb", col(func(s sample) float64 { return s.allocMB }))
		e.setSamples("mallocs_k", col(func(s sample) float64 { return s.mallocsK }))
		recall, precision, err := kmerQuality(h.data.Reference, h.wantFasta)
		if err != nil {
			return nil, err
		}
		e.set("ref_kmer_recall", recall)
		e.set("tx_kmer_precision", precision)
		e.setSamples("setup_s", setupS)
		res.EndToEnd = e.values
	}

	if opt.layers {
		l := newMetricSet(perLayer)
		l.set("host.calib_ms_before", calibBefore)
		l.set("runtime.gc_cycles", median(col(func(s sample) float64 { return s.gcCycles })))
		l.set("runtime.gc_pause_ms", median(col(func(s sample) float64 { return s.gcPause })))
		if err := h.traced(l, median(wall)); err != nil {
			return nil, err
		}
		l.set("host.calib_ms_after", calibrate())
		res.PerLayer = l.values
	}

	res.Attempted, res.Failed, res.Failures = h.attempted, len(h.failures), h.failures
	return res, nil
}

// setup generates the dataset from the seed, writes reads.fa and runs
// the warm-up assembly; it returns the seconds all of that took.
func (h *harness) setup() (float64, error) {
	t0 := time.Now()
	h.data = generate(h.w.Profile(), h.opt.seed)
	if err := seq.WriteFastaFile(h.readsPath, h.data.Reads); err != nil {
		return 0, err
	}
	_, fasta, err := h.assemble()
	elapsed := time.Since(t0).Seconds()
	if h.want == "" && err == nil {
		h.want, h.wantFasta = digest(fasta), fasta
	}
	if !h.check("warm-up assembly", fasta, err) && h.want == "" {
		return 0, fmt.Errorf("%s: warm-up assembly failed: %v", h.w.Name, h.failures)
	}
	return elapsed, nil
}

// assemble runs the program once the way the workload uses it and
// measures the call; reading the output back is outside the measurement.
func (h *harness) assemble() (s sample, fasta []byte, err error) {
	workDir := filepath.Join(h.root, "work")
	runtime.GC() // every assembly starts from a collected heap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuSeconds(), time.Now()

	var res *core.Result
	var art *core.FileArtifacts
	if h.w.Files {
		art, err = core.RunFiles(h.readsPath, workDir, h.cfg)
	} else {
		res, err = core.Run(h.data.Reads, h.cfg)
	}

	s.wall, s.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	runtime.ReadMemStats(&after)
	s.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	s.mallocsK = float64(after.Mallocs-before.Mallocs) / 1e3
	s.gcCycles = float64(after.NumGC - before.NumGC)
	s.gcPause = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if err != nil {
		return s, nil, err
	}
	if h.w.Files {
		if fasta, err = os.ReadFile(art.Transcripts); err == nil {
			err = os.RemoveAll(workDir)
		}
	} else {
		fasta, err = fastaBytes(res.TranscriptRecords())
	}
	return s, fasta, err
}

// check tallies one assembly and reports whether it passed: it must
// return no error, emit the same transcripts as the first warm-up, and
// leave nothing behind in the spill directory.
func (h *harness) check(what string, fasta []byte, err error) bool {
	h.attempted++
	fail := func(format string, args ...any) bool {
		h.failures = append(h.failures, fmt.Sprintf("%s %d: ", what, h.attempted)+fmt.Sprintf(format, args...))
		return false
	}
	if err != nil {
		return fail("%v", err)
	}
	if got := digest(fasta); got != h.want {
		return fail("transcripts digest %s, the first warm-up gave %s", got[:12], h.want[:12])
	}
	left, err := os.ReadDir(h.spill)
	if err != nil {
		return fail("listing the spill directory: %v", err)
	}
	if len(left) > 0 {
		return fail("%d temp files left behind, first %s", len(left), left[0].Name())
	}
	return true
}

// traced runs the staged replay with tracing on, then the probes, and
// fills the per-layer metrics. wall is the tracing-off median the
// replay's total is compared with.
func (h *harness) traced(l *metricSet, wall float64) error {
	in := replayInput{files: h.w.Files, cfg: h.cfg}
	if h.w.Files {
		in.readsPath, in.workDir = h.readsPath, filepath.Join(h.root, "staged")
		if err := os.Mkdir(in.workDir, 0o755); err != nil {
			return err
		}
	} else {
		in.reads = h.data.Reads
	}

	runtime.GC()
	stopHeap := sampleHeapPeak()
	tr := newTracer(h.w.Name)
	out, err := replay(tr, in)
	l.set("runtime.heap_live_peak_mb", stopHeap()/1e6)
	var fasta []byte
	if out != nil {
		fasta = out.fasta
	}
	if !h.check("staged replay", fasta, err) {
		// Without a matching replay the per-layer numbers would describe
		// a different computation; report the failure and leave them 0.
		return nil
	}
	if h.opt.traceOut != "" {
		path := filepath.Join(h.opt.traceOut, h.w.Name+".trace.json")
		if err := writeChromeTrace(path, h.w.Name, tr.spans); err != nil {
			return err
		}
	}
	layerMetrics(l, tr.spans, out, wall)
	return probes(l, out, h.root)
}

// sampleHeapPeak polls the live-heap gauge every 5 ms on its own
// goroutine; the returned stop function ends it and gives the peak in
// bytes. runtime/metrics reads this gauge without stopping the world.
func sampleHeapPeak() (stop func() float64) {
	done, finished := make(chan struct{}), make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := 0.0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = math.Max(peak, float64(s[0].Value.Uint64()))
			select {
			case <-done:
				finished <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-finished
	}
}
