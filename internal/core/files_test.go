package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gotrinity/internal/bowtie"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
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

// The file-based pipeline must produce the same transcripts as the
// in-memory pipeline for the same config.
func TestRunFilesMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	d := rnaseq.Generate(rnaseq.Tiny(22))
	readsPath := filepath.Join(dir, "reads.fa")
	if err := seq.WriteFastaFile(readsPath, d.Reads); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	art, err := RunFiles(readsPath, filepath.Join(dir, "work"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fileTs, err := seq.ReadFastaFile(art.Transcripts)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Run(d.Reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	memSet := map[string]bool{}
	for _, tr := range mem.Transcripts {
		memSet[string(tr.Seq)] = true
	}
	if len(fileTs) != len(mem.Transcripts) {
		t.Fatalf("file %d vs memory %d transcripts", len(fileTs), len(mem.Transcripts))
	}
	for _, tr := range fileTs {
		if !memSet[string(tr.Seq)] {
			t.Fatalf("file transcript %s missing from in-memory run", tr.ID)
		}
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
	if _, err := scaffoldsFromSAM(art.SAM, contigs); err != nil {
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
		_, err := scaffoldsFromSAM(art.SAM, contigs)
		var re *bowtie.SAMRefError
		if !errors.As(err, &re) {
			t.Fatalf("%s: error %v, want *bowtie.SAMRefError", tc.name, err)
		}
		if re.Line != rec+1 || re.ContigID != fields[2] || (re.ContigLen >= 0) != tc.wantKnown {
			t.Errorf("%s: %+v (record is on line %d)", tc.name, re, rec+1)
		}
	}
}
