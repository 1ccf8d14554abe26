package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gotrinity/internal/bowtie"
	"gotrinity/internal/cluster"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
	"gotrinity/internal/trace"
)

func TestRunFilesProducesAllArtifacts(t *testing.T) {
	dir := t.TempDir()
	d := rnaseq.Generate(rnaseq.Tiny(21))
	readsPath := filepath.Join(dir, "reads.fa")
	if err := seq.WriteFastaFile(readsPath, d.Reads); err != nil {
		t.Fatal(err)
	}
	art, err := RunFiles(readsPath, filepath.Join(dir, "work"), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, path := range map[string]string{
		"kmers":       art.Kmers,
		"contigs":     art.Contigs,
		"sam":         art.SAM,
		"components":  art.Components,
		"assignments": art.Assignments,
		"transcripts": art.Transcripts,
	} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s artifact missing: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s artifact empty", name)
		}
	}
	ts, err := seq.ReadFastaFile(art.Transcripts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) == 0 {
		t.Fatal("no transcripts in file")
	}
}

// writeReads writes a dataset's reads where RunFiles can find them.
func writeReads(t *testing.T, reads []seq.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reads.fa")
	writeFasta(t, path, reads)
	return path
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// RunFiles is Run with the file sinks on, so everything Run honours it
// honours too. Each case below was a divergence of the hand-written
// RunFiles this replaced (TestConfigLattice's files axis covers Ranks,
// ShardKmers, ASCIISeq, External, TailWorkers and FaultSeed for output).
func TestRunFilesHonoursConfig(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(22))
	readsPath := writeReads(t, d.Reads)

	t.Run("malformed FaultSpec is an error", func(t *testing.T) {
		cfg := tinyConfig()
		cfg.FaultSpec = "garbage"
		if _, err := RunFiles(readsPath, t.TempDir(), cfg); err == nil {
			t.Error("accepted a malformed fault spec")
		}
	})

	t.Run("MinPairSupport filters", func(t *testing.T) {
		cfg := tinyConfig()
		cfg.MinPairSupport = 2
		mem, err := Run(d.Reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		unfiltered, err := Run(d.Reads, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(mem.Transcripts) == len(unfiltered.Transcripts) {
			t.Fatal("MinPairSupport=2 filtered nothing: the case tests nothing")
		}
		art, err := RunFiles(readsPath, t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := readFile(t, art.Transcripts), transcriptsFasta(t, mem); !bytes.Equal(got, want) {
			t.Errorf("transcripts.fa is %d bytes, Run's transcripts %d", len(got), len(want))
		}
	})

	t.Run("Trace records the seven stage spans", func(t *testing.T) {
		cfg := tinyConfig()
		cfg.Trace = trace.New(cluster.BlueWonder(1))
		cfg.SampleInterval = time.Millisecond
		if _, err := RunFiles(readsPath, t.TempDir(), cfg); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, sp := range cfg.Trace.Spans() {
			if sp.Cat == "pipeline" {
				got = append(got, sp.Name)
			}
		}
		want := make([]string, len(stages))
		for i := range stages {
			want[i] = stages[i].name
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("pipeline spans %v, want %v", got, want)
		}
		var metrics bytes.Buffer
		if err := cfg.Trace.WriteMetrics(&metrics, trace.MetricsOptions{IncludeReal: true}); err != nil {
			t.Fatal(err)
		}
		if metrics.Len() == 0 {
			t.Error("no metrics recorded")
		}
	})

	t.Run("FaultSeed fires and recovers", func(t *testing.T) {
		cfg := tinyConfig()
		cfg.Ranks = 4
		want, err := Run(d.Reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultSeed = 7
		cfg.Trace = trace.New(cluster.BlueWonder(cfg.Ranks))
		art, err := RunFiles(readsPath, t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Trace.Counts()["faults_total:kind=rank_death"] == 0 {
			t.Error("the planned kill did not fire")
		}
		if !bytes.Equal(readFile(t, art.Transcripts), transcriptsFasta(t, want)) {
			t.Error("recovered transcripts.fa differs from the fault-free run")
		}
	})
}

// Chaining the stages by hand — each stage entry run alone over the
// files the previous one wrote, naming only the inputs its cmd/ tool
// takes — reproduces every artifact of RunFiles byte for byte.
func TestStageChainMatchesRunFiles(t *testing.T) {
	d := rnaseq.Generate(rnaseq.Tiny(24))
	readsPath := writeReads(t, d.Reads)
	for _, ranks := range []int{1, 4} {
		for _, shard := range []bool{false, true} {
			t.Run(fmt.Sprintf("ranks=%d/shard=%v", ranks, shard), func(t *testing.T) {
				cfg := tinyConfig()
				cfg.Ranks = ranks
				cfg.ShardKmers = shard
				cfg.Seed = 3
				want, err := RunFiles(readsPath, t.TempDir(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				got := FileArtifacts{
					Reads:       readsPath,
					Kmers:       filepath.Join(dir, "k"),
					Contigs:     filepath.Join(dir, "c"),
					SAM:         filepath.Join(dir, "s"),
					Components:  filepath.Join(dir, "comp"),
					Assignments: filepath.Join(dir, "a"),
					Transcripts: filepath.Join(dir, "t"),
				}
				for _, step := range []struct {
					stage string
					files FileArtifacts
				}{
					{"jellyfish", FileArtifacts{Reads: got.Reads, Kmers: got.Kmers}},
					{"inchworm", FileArtifacts{Kmers: got.Kmers, Contigs: got.Contigs}},
					{"bowtie", FileArtifacts{Reads: got.Reads, Contigs: got.Contigs, SAM: got.SAM}},
					{"graphfromfasta", FileArtifacts{Kmers: got.Kmers, Contigs: got.Contigs, SAM: got.SAM, Components: got.Components}},
					{"readstotranscripts", FileArtifacts{Reads: got.Reads, Contigs: got.Contigs, Components: got.Components, Assignments: got.Assignments}},
					{"butterfly", FileArtifacts{Reads: got.Reads, Contigs: got.Contigs, Components: got.Components, Assignments: got.Assignments, Transcripts: got.Transcripts}},
				} {
					if _, err := RunStage(step.stage, step.files, cfg); err != nil {
						t.Fatalf("%s alone: %v", step.stage, err)
					}
				}
				for _, pair := range [][2]string{
					{want.Kmers, got.Kmers},
					{want.Contigs, got.Contigs},
					{want.SAM, got.SAM},
					{want.Components, got.Components},
					{want.Assignments, got.Assignments},
					{want.Transcripts, got.Transcripts},
				} {
					if !bytes.Equal(readFile(t, pair[1]), readFile(t, pair[0])) {
						t.Errorf("%s of the chain differs from RunFiles's %s", filepath.Base(pair[1]), filepath.Base(pair[0]))
					}
				}
			})
		}
	}
	if _, err := RunStage("quantify", FileArtifacts{}, tinyConfig()); err == nil {
		t.Error("accepted an unknown stage name")
	}
}

func TestRunFilesBadInput(t *testing.T) {
	if _, err := RunFiles("/nonexistent/reads.fa", t.TempDir(), tinyConfig()); err == nil {
		t.Error("accepted missing reads file")
	}
}

func TestReadSAMRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := rnaseq.Generate(rnaseq.Tiny(23))
	res, err := Run(d.Reads, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]bowtie.SAMHeaderEntry, len(res.Contigs))
	for i, c := range res.Contigs {
		refs[i] = bowtie.SAMHeaderEntry{Name: c.ID, Length: len(c.Seq)}
	}
	path := filepath.Join(dir, "x.sam")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bowtie.WriteSAMRecords(f, refs, res.Alignments); err != nil {
		t.Fatal(err)
	}
	f.Close()
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	back, err := bowtie.ReadSAM(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(res.Alignments) {
		t.Fatalf("read %d alignments, wrote %d", len(back), len(res.Alignments))
	}
	// Spot-check the first record against the original (order differs:
	// SAM is contig/pos sorted).
	byRead := map[string]bowtie.Alignment{}
	for _, a := range res.Alignments {
		byRead[a.ReadID] = a
	}
	for _, a := range back {
		orig := byRead[a.ReadID]
		if a.ContigID != orig.ContigID || a.Pos != orig.Pos ||
			a.Reverse != orig.Reverse || a.Mismatches != orig.Mismatches ||
			a.ReadLen != orig.ReadLen {
			t.Fatalf("round trip mismatch: %+v vs %+v", a, orig)
		}
	}
}

// alignments.sam is outside input to the stages after Bowtie: a user can
// edit it or swap in another aligner's between stages. A record the
// contig set cannot hold must stop the run with a typed error naming
// the line and contig, never scaffold onto contig 0.
func TestScaffoldsFromEditedSAM(t *testing.T) {
	dir := t.TempDir()
	d := rnaseq.Generate(rnaseq.Tiny(23))
	readsPath := filepath.Join(dir, "reads.fa")
	if err := seq.WriteFastaFile(readsPath, d.Reads); err != nil {
		t.Fatal(err)
	}
	art, err := RunFiles(readsPath, filepath.Join(dir, "work"), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	contigs, err := seq.ReadFastaFile(art.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	p := &pipeline{res: &Result{Contigs: contigs}}
	if err := loadSAM(p, art.SAM); err != nil {
		t.Fatalf("unedited SAM rejected: %v", err)
	}
	orig, err := os.ReadFile(art.SAM)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(orig), "\n")
	rec := -1 // first alignment record
	for i, l := range lines {
		if l != "" && l[0] != '@' {
			rec = i
			break
		}
	}
	if rec < 0 {
		t.Fatal("no alignment record in the SAM")
	}
	for _, tc := range []struct {
		name      string
		field     int // SAM column to overwrite
		value     string
		wantKnown bool
	}{
		{"unknown RNAME", 2, "no_such_contig", false},
		{"position past the end", 3, "1000000", true},
	} {
		fields := strings.Split(lines[rec], "\t")
		fields[tc.field] = tc.value
		edited := append([]string(nil), lines...)
		edited[rec] = strings.Join(fields, "\t")
		if err := os.WriteFile(art.SAM, []byte(strings.Join(edited, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		err := loadSAM(p, art.SAM)
		var re *bowtie.SAMRefError
		if !errors.As(err, &re) {
			t.Fatalf("%s: error %v, want *bowtie.SAMRefError", tc.name, err)
		}
		if re.Line != rec+1 || re.ContigID != fields[2] || (re.ContigLen >= 0) != tc.wantKnown {
			t.Errorf("%s: %+v (record is on line %d)", tc.name, re, rec+1)
		}
	}
}
