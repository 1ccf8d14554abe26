package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gotrinity/internal/butterfly"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

func writeFasta(t *testing.T, path string, recs []seq.Record) {
	t.Helper()
	if err := seq.WriteFastaFile(path, recs); err != nil {
		t.Fatal(err)
	}
}

// sameRunOutput pins every scientific product of two runs against each
// other: contigs, alignments, scaffolds, components, welds, read
// assignments, transcripts and pair support must all be byte-identical.
// A run counts pair support only to filter, so it is counted here over
// both runs' transcripts, graphs and reads.
func sameRunOutput(t *testing.T, name string, reads []seq.Record, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Contigs, want.Contigs) {
		t.Errorf("%s: contigs differ (%d vs %d)", name, len(got.Contigs), len(want.Contigs))
	}
	if !reflect.DeepEqual(got.Alignments, want.Alignments) {
		t.Errorf("%s: alignments differ (%d vs %d)", name, len(got.Alignments), len(want.Alignments))
	}
	if !reflect.DeepEqual(got.Scaffolds, want.Scaffolds) {
		t.Errorf("%s: scaffolds differ", name)
	}
	if !reflect.DeepEqual(got.GFF.Components, want.GFF.Components) {
		t.Errorf("%s: components differ", name)
	}
	if !reflect.DeepEqual(got.GFF.Welds, want.GFF.Welds) {
		t.Errorf("%s: welds differ", name)
	}
	if !reflect.DeepEqual(got.R2T.Assignments, want.R2T.Assignments) {
		t.Errorf("%s: assignments differ", name)
	}
	if !reflect.DeepEqual(got.Transcripts, want.Transcripts) {
		t.Errorf("%s: transcripts differ (%d vs %d)", name, len(got.Transcripts), len(want.Transcripts))
	}
	if !reflect.DeepEqual(butterfly.PairSupportParallel(got.Transcripts, got.Graphs, reads, 2),
		butterfly.PairSupportParallel(want.Transcripts, want.Graphs, reads, 2)) {
		t.Errorf("%s: pair support differs", name)
	}
}

// TestRunPackedMatchesASCII is the end-to-end acceptance pin of the
// packed migration: the default (2-bit packed) pipeline must reproduce
// the ASCII fallback byte-for-byte at every rank count — every
// intermediate product, where the config lattice compares transcripts
// only.
func TestRunPackedMatchesASCII(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(31))
	for _, ranks := range []int{1, 4, 16} {
		cfg := tinyConfig()
		cfg.Ranks = ranks
		cfg.Seed = 5
		cfg.ASCIISeq = true
		want, err := Run(d.Reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ASCIISeq = false
		got, err := Run(d.Reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameRunOutput(t, "packed", d.Reads, got, want)
	}
}

// TestRunPackedFaults composes the packed default with injected rank
// kills and recovery: output must still match the fault-free ASCII
// baseline.
func TestRunPackedFaults(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(32))
	base := tinyConfig()
	base.Ranks = 4
	base.Seed = 5
	base.ASCIISeq = true
	want, err := Run(d.Reads, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.ASCIISeq = false
	cfg.FaultSeed = 2
	got, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults == nil || len(got.Faults.Injected) == 0 {
		t.Fatal("no fault fired")
	}
	sameRunOutput(t, "packed/faulted", d.Reads, got, want)
}

// TestRunExternal pins the external-memory mode: dsk counting plus
// packed-resident sequences must reproduce the in-memory run exactly,
// and the report must show the counting peak bounded below the full
// distinct-k-mer set. The second run sets a budget between the
// external resident peak and the in-memory working set — the
// acceptance scenario of a dataset whose working set exceeds the
// configured budget but still completes.
func TestRunExternal(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(33))
	cfg := tinyConfig()
	cfg.Ranks = 4
	want, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.External = ExternalConfig{Enabled: true, TmpDir: t.TempDir(), Partitions: 8}
	got, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameRunOutput(t, "external", d.Reads, got, want)
	rep := got.External
	if rep == nil {
		t.Fatal("external run produced no report")
	}
	if rep.Counting.PeakPartition >= rep.Counting.DistinctKmers/2 {
		t.Errorf("counting peak %d not bounded below distinct %d", rep.Counting.PeakPartition, rep.Counting.DistinctKmers)
	}
	if rep.ResidentPeakBytes >= rep.InMemoryBytes {
		t.Errorf("resident peak %d not below in-memory working set %d", rep.ResidentPeakBytes, rep.InMemoryBytes)
	}
	if !rep.WithinBudget {
		t.Error("unbudgeted run reported over budget")
	}

	// Budget the second run below the in-memory working set.
	cfg.External.MemoryBudget = (rep.ResidentPeakBytes + rep.InMemoryBytes) / 2
	got2, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameRunOutput(t, "external/budgeted", d.Reads, got2, want)
	rep2 := got2.External
	if rep2.InMemoryBytes <= rep2.BudgetBytes {
		t.Errorf("in-memory working set %d does not exceed budget %d", rep2.InMemoryBytes, rep2.BudgetBytes)
	}
	if !rep2.WithinBudget {
		t.Errorf("external resident peak %d exceeded budget %d", rep2.ResidentPeakBytes, rep2.BudgetBytes)
	}
}

// TestRunExternalASCII pins the orthogonality of the two switches: the
// external counting pass composes with the ASCII fallback too.
func TestRunExternalASCII(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(34))
	cfg := tinyConfig()
	want, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ASCIISeq = true
	cfg.External = ExternalConfig{Enabled: true, TmpDir: t.TempDir()}
	got, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameRunOutput(t, "external/ascii", d.Reads, got, want)
}

// TestRunFilesPackedExternal drives the file-exchange runner in the
// packed external mode: every on-disk artifact must be byte-identical
// to the ASCII in-memory run's.
func TestRunFilesPackedExternal(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(35))
	dir := t.TempDir()
	readsPath := filepath.Join(dir, "reads.fa")
	writeFasta(t, readsPath, d.Reads)

	cfg := tinyConfig()
	cfg.ASCIISeq = true
	wantArt, err := RunFiles(readsPath, filepath.Join(dir, "ascii"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ASCIISeq = false
	cfg.External = ExternalConfig{Enabled: true, TmpDir: t.TempDir()}
	gotArt, err := RunFiles(readsPath, filepath.Join(dir, "packed"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{
		{wantArt.Kmers, gotArt.Kmers},
		{wantArt.Contigs, gotArt.Contigs},
		{wantArt.SAM, gotArt.SAM},
		{wantArt.Components, gotArt.Components},
		{wantArt.Assignments, gotArt.Assignments},
		{wantArt.Transcripts, gotArt.Transcripts},
	} {
		want, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s", pair[1], pair[0])
		}
	}
}

// TestRunExternalBowtieSpill pins the external Bowtie partition spill:
// with External.Enabled the per-partition alignments round-trip
// through the temp layout without changing any output, the report
// meters the spill, and the budget arithmetic folds the largest
// resident partition into the run peak.
func TestRunExternalBowtieSpill(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(33))
	cfg := tinyConfig()
	cfg.Ranks = 4
	cfg.Seed = 5
	want, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.External = ExternalConfig{Enabled: true, TmpDir: t.TempDir(), Partitions: 8}
	got, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameRunOutput(t, "external/spill", d.Reads, got, want)
	rep := got.External
	if rep == nil || rep.BowtieSpill == nil {
		t.Fatal("external run produced no bowtie spill report")
	}
	sp := rep.BowtieSpill
	if sp.Partitions == 0 || sp.SpillBytes <= 0 {
		t.Errorf("empty spill stats %+v", sp)
	}
	if sp.PeakPartitionBytes <= 0 || sp.PeakPartitionBytes > sp.SpillBytes {
		t.Errorf("peak partition %d vs total %d", sp.PeakPartitionBytes, sp.SpillBytes)
	}
	if sp.PeakPartitionAlignments <= 0 {
		t.Error("no partition alignments metered")
	}
	if rep.ResidentPeakBytes != rep.PackedSeqBytes+max(rep.CountingPeakBytes, sp.PeakPartitionBytes) {
		t.Errorf("resident peak %d does not fold the spill peak", rep.ResidentPeakBytes)
	}
	if rep.InMemoryBytes != rep.ASCIISeqBytes+rep.InMemoryCountBytes+sp.SpillBytes {
		t.Errorf("in-memory working set %d does not count the spilled bytes", rep.InMemoryBytes)
	}
}

// One partition is merged the moment it finishes: spilling it would
// write and re-read every alignment to save nothing.
func TestRunExternalSinglePartitionDoesNotSpill(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(33))
	cfg := tinyConfig()
	want, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.External = ExternalConfig{Enabled: true, TmpDir: t.TempDir(), Partitions: 8}
	got, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameRunOutput(t, "external/one partition", d.Reads, got, want)
	if got.External == nil || got.External.BowtieSpill != nil {
		t.Errorf("a single partition spilled: %+v", got.External)
	}
}
