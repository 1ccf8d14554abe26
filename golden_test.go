package trinity

import (
	"bytes"
	"testing"

	"gotrinity/internal/seq"
)

// Golden end-to-end determinism battery. The pipeline's contract is
// byte determinism of the transcript FASTA: for a fixed dataset seed
// the output must be identical across repeated runs, across hybrid
// rank counts, and across fault-injected runs that recover — the three
// invariants the fault-tolerance layer must not break.

// goldenFasta renders a run's transcripts exactly as `trinity --out`
// writes them.
func goldenFasta(t *testing.T, reads []Read, cfg Config) []byte {
	t.Helper()
	res, err := Assemble(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fw := seq.NewFastaWriter(&buf)
	recs := res.TranscriptRecords()
	for i := range recs {
		if err := fw.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty transcript FASTA")
	}
	return buf.Bytes()
}

func goldenConfig(ranks int) Config {
	return Config{K: 21, ThreadsPerRank: 2, Ranks: ranks, Seed: 1}
}

// TestGoldenRepeatedRunsIdentical: same seed, same config — the
// transcript FASTA must not vary run to run (no map-order or
// goroutine-schedule leakage).
func TestGoldenRepeatedRunsIdentical(t *testing.T) {
	d := GenerateDataset(TinyProfile(7))
	want := goldenFasta(t, d.Reads, goldenConfig(4))
	for run := 1; run <= 2; run++ {
		if got := goldenFasta(t, d.Reads, goldenConfig(4)); !bytes.Equal(got, want) {
			t.Fatalf("run %d produced different transcript FASTA (%d vs %d bytes)", run, len(got), len(want))
		}
	}
}

// TestGoldenRankCountsIdentical: the hybrid decomposition must be
// invisible in the output — Ranks 1, 2 and 4 produce byte-identical
// transcripts.
func TestGoldenRankCountsIdentical(t *testing.T) {
	d := GenerateDataset(TinyProfile(7))
	want := goldenFasta(t, d.Reads, goldenConfig(1))
	for _, ranks := range []int{2, 4} {
		if got := goldenFasta(t, d.Reads, goldenConfig(ranks)); !bytes.Equal(got, want) {
			t.Fatalf("ranks=%d produced different transcript FASTA (%d vs %d bytes)", ranks, len(got), len(want))
		}
	}
}

// TestGoldenFaultedRunMatchesFaultFree is the pipeline-level acceptance
// criterion: a seeded fault plan that kills one of 4 ranks during the
// hybrid Chrysalis must still yield transcripts byte-identical to the
// fault-free run.
func TestGoldenFaultedRunMatchesFaultFree(t *testing.T) {
	d := GenerateDataset(TinyProfile(7))
	want := goldenFasta(t, d.Reads, goldenConfig(4))
	for seed := int64(1); seed <= 3; seed++ {
		cfg := goldenConfig(4)
		cfg.FaultSeed = seed
		res, err := Assemble(d.Reads, cfg)
		if err != nil {
			t.Fatalf("fault seed %d: %v", seed, err)
		}
		if res.Faults == nil || len(res.Faults.Injected) == 0 {
			t.Fatalf("fault seed %d: no fault fired (planned %v)", seed, res.Faults)
		}
		if got := goldenFasta(t, d.Reads, cfg); !bytes.Equal(got, want) {
			t.Fatalf("fault seed %d: recovered transcripts differ from fault-free run", seed)
		}
	}
}

// TestGoldenRecoveryLayerInert: merely enabling the checkpoint/recovery
// layer (no faults) must not change the output either.
func TestGoldenRecoveryLayerInert(t *testing.T) {
	d := GenerateDataset(TinyProfile(7))
	want := goldenFasta(t, d.Reads, goldenConfig(4))
	cfg := goldenConfig(4)
	cfg.Recover = true
	if got := goldenFasta(t, d.Reads, cfg); !bytes.Equal(got, want) {
		t.Fatal("recovery-enabled run differs from baseline")
	}
}
