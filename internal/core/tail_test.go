package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"gotrinity/internal/bowtie"
	"gotrinity/internal/cluster"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
	"gotrinity/internal/trace"
)

// The determinism battery: the tail (concurrent Bowtie partitions +
// component-parallel DeBruijn/Quantify/Butterfly) must produce, for
// every pool size, every GOMAXPROCS, every rank count and under
// injected faults, exactly what it produces on one worker
// (TailWorkers=1, "serial" below) — every intermediate product and the
// virtual trace exports, where TestConfigLattice compares transcripts
// only. The genuinely serial stage functions are the references of the
// chrysalis and butterfly package tests.

func batteryConfig(ranks, tailWorkers int) Config {
	cfg := tinyConfig()
	cfg.Ranks = ranks
	cfg.TailWorkers = tailWorkers
	cfg.Seed = 7
	cfg.MinPairSupport = 1 // exercise the lockstep support filter
	return cfg
}

// scientificFingerprint serialises every science-bearing output:
// transcript FASTA bytes, components, welds, read assignments and
// per-transcript pair support.
func scientificFingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(transcriptsFasta(t, res))
	fmt.Fprintf(&buf, "components: %v\n", res.GFF.Components)
	fmt.Fprintf(&buf, "welds: %v\n", res.GFF.Welds)
	fmt.Fprintf(&buf, "assignments: %v\n", res.R2T.Assignments)
	fmt.Fprintf(&buf, "pairsupport: %v\n", res.PairSupport)
	return buf.Bytes()
}

// traceFingerprint captures the virtual Chrome + metrics exports. Real
// (wall-clock) spans are excluded by the default export options, so
// these bytes must not depend on scheduling either.
func traceFingerprint(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf, trace.ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteMetrics(&buf, trace.MetricsOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func runBattery(t *testing.T, reads []seq.Record, cfg Config) (*Result, []byte, []byte) {
	t.Helper()
	rec := trace.New(cluster.BlueWonder(cfg.Ranks))
	cfg.Trace = rec
	res, err := Run(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, scientificFingerprint(t, res), traceFingerprint(t, rec)
}

func TestParallelTailByteIdentical(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(31))
	origGM := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(origGM)
	for _, ranks := range []int{1, 4} {
		base, wantSci, wantTrace := runBattery(t, d.Reads, batteryConfig(ranks, 1))
		for _, gm := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(gm)
			// TailWorkers 0 follows GOMAXPROCS; 8 forces a real pool
			// even when GOMAXPROCS is 1.
			for _, workers := range []int{0, 8} {
				res, sci, tr := runBattery(t, d.Reads, batteryConfig(ranks, workers))
				if !bytes.Equal(sci, wantSci) {
					t.Fatalf("ranks=%d gomaxprocs=%d workers=%d: scientific output differs from serial tail",
						ranks, gm, workers)
				}
				if !bytes.Equal(tr, wantTrace) {
					t.Fatalf("ranks=%d gomaxprocs=%d workers=%d: trace virtual exports differ from serial tail",
						ranks, gm, workers)
				}
				// Work units are counters of the input, not the
				// schedule: the partition units must match the serial
				// tail exactly.
				if fmt.Sprint(res.Tail.PartitionUnits) != fmt.Sprint(base.Tail.PartitionUnits) {
					t.Fatalf("ranks=%d gomaxprocs=%d workers=%d: partition units %v != serial %v",
						ranks, gm, workers, res.Tail.PartitionUnits, base.Tail.PartitionUnits)
				}
			}
			runtime.GOMAXPROCS(origGM)
		}
	}
}

// A seeded fault killing one of 4 ranks during the hybrid Chrysalis
// must compose with the concurrent tail: the recovered parallel run
// still matches the fault-free serial tail byte for byte.
func TestParallelTailFaultedMatchesSerial(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(31))
	_, wantSci, _ := runBattery(t, d.Reads, batteryConfig(4, 1))
	fired := false
	for seed := int64(1); seed <= 3; seed++ {
		cfg := batteryConfig(4, 8)
		cfg.FaultSeed = seed
		res, sci, _ := runBattery(t, d.Reads, cfg)
		if res.Faults != nil && len(res.Faults.Injected) > 0 {
			fired = true
		}
		if !bytes.Equal(sci, wantSci) {
			t.Fatalf("fault seed %d: parallel faulted output differs from serial fault-free tail", seed)
		}
	}
	if !fired {
		t.Fatal("no fault fired across seeds 1..3")
	}
}

// The one-worker run and the pool report
// identical Bowtie work counters — they are functions of the input,
// not the schedule. (Makespans are wall-clock and so not comparable
// across runs on a time-sliced host; their max-vs-sum aggregation is
// pinned by the synthetic test below.)
func TestTailBowtieStatsAggregation(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(31))
	serial, _, _ := runBattery(t, d.Reads, batteryConfig(4, 1))
	par, _, _ := runBattery(t, d.Reads, batteryConfig(4, 8))
	if serial.BowtieStats.Reads != par.BowtieStats.Reads ||
		serial.BowtieStats.Aligned != par.BowtieStats.Aligned ||
		serial.BowtieStats.SeedProbes != par.BowtieStats.SeedProbes ||
		serial.BowtieStats.BasesCompared != par.BowtieStats.BasesCompared {
		t.Fatalf("work counters differ: serial %+v vs parallel %+v", serial.BowtieStats, par.BowtieStats)
	}
}

// Stats.Accumulate sums work counters always, but combines makespans
// with max under concurrent accumulation and sum under serial — the
// reported makespan must reflect the schedule shape.
func TestBowtieStatsAccumulateSemantics(t *testing.T) {
	parts := []bowtie.Stats{
		{Reads: 10, Aligned: 4, SeedProbes: 100, BasesCompared: 1000, MakespanSec: 0.5, ThreadImbalance: 1.2},
		{Reads: 20, Aligned: 6, SeedProbes: 200, BasesCompared: 3000, MakespanSec: 0.3, ThreadImbalance: 1.5},
	}
	var ser, con bowtie.Stats
	for _, p := range parts {
		ser.Accumulate(p, false)
		con.Accumulate(p, true)
	}
	for _, st := range []bowtie.Stats{ser, con} {
		if st.Reads != 30 || st.Aligned != 10 || st.SeedProbes != 300 || st.BasesCompared != 4000 {
			t.Fatalf("work counters not summed exactly: %+v", st)
		}
		if st.ThreadImbalance != 1.5 {
			t.Fatalf("imbalance should be the max: %+v", st)
		}
	}
	if ser.MakespanSec != 0.8 {
		t.Errorf("serial makespan = %v, want sum 0.8", ser.MakespanSec)
	}
	if con.MakespanSec != 0.5 {
		t.Errorf("concurrent makespan = %v, want max 0.5", con.MakespanSec)
	}
}
