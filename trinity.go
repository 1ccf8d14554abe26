// Package trinity is the public API of this reproduction of
// "Parallelization of the Trinity pipeline for de novo transcriptome
// assembly" (Sachdeva, Kim, Jordan, Winn — IEEE IPDPSW/HiCOMB 2014,
// DOI 10.1109/IPDPSW.2014.67).
//
// The package re-exports the full pipeline (Jellyfish → Inchworm →
// Chrysalis → Butterfly), the hybrid MPI+OpenMP Chrysalis that is the
// paper's contribution, the synthetic dataset generators standing in
// for the paper's proprietary read sets, and the experiment harnesses
// that regenerate every figure of the evaluation. See README.md for a
// walkthrough, DESIGN.md for the system inventory, and EXPERIMENTS.md
// for paper-vs-measured results.
//
// Quick start:
//
//	dataset := trinity.GenerateDataset(trinity.TinyProfile(1))
//	result, err := trinity.Assemble(dataset.Reads, trinity.Config{Ranks: 4})
//	if err != nil { ... }
//	for _, tr := range result.Transcripts { fmt.Println(tr.ID, len(tr.Seq)) }
package trinity

import (
	"io"

	"gotrinity/internal/butterfly"
	"gotrinity/internal/chrysalis"
	"gotrinity/internal/cluster"
	"gotrinity/internal/core"
	"gotrinity/internal/experiments"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
	"gotrinity/internal/trace"
	"gotrinity/internal/validate"
)

// Read is one sequencing read or any other named sequence.
type Read = seq.Record

// Config configures a pipeline run; the zero value is a sensible
// single-node (OpenMP-only) run with k=25. Set Ranks > 1 to use the
// hybrid MPI+OpenMP Chrysalis.
type Config = core.Config

// Result carries every intermediate and final product of a run.
type Result = core.Result

// Transcript is one reconstructed isoform.
type Transcript = butterfly.Transcript

// Component is one cluster of welded Inchworm contigs (an "Inchworm
// bundle").
type Component = chrysalis.Component

// Dataset is a generated transcriptome plus its simulated reads.
type Dataset = rnaseq.Dataset

// Profile parameterises synthetic dataset generation.
type Profile = rnaseq.Profile

// Assemble runs the full Trinity pipeline over the reads.
func Assemble(reads []Read, cfg Config) (*Result, error) {
	return core.Run(reads, cfg)
}

// TraceRecorder is the unified tracing and metrics collector; set one
// on Config.Trace to record a run and export it as a Chrome trace,
// Prometheus-style metrics, or a Fig. 2/11 stage timeline (see
// internal/trace).
type TraceRecorder = trace.Recorder

// NewTraceRecorder creates a recorder whose virtual-time conversions
// model `nodes` Blue Wonder nodes (one MPI rank per node).
func NewTraceRecorder(nodes int) *TraceRecorder {
	if nodes < 1 {
		nodes = 1
	}
	return trace.New(cluster.BlueWonder(nodes))
}

// FileArtifacts lists the intermediate files a file-based run writes.
type FileArtifacts = core.FileArtifacts

// AssembleFiles runs the pipeline with every stage exchanging data
// through files in workDir, as the real Trinity modules do.
func AssembleFiles(readsPath, workDir string, cfg Config) (*FileArtifacts, error) {
	return core.RunFiles(readsPath, workDir, cfg)
}

// GenerateDataset builds a synthetic RNA-seq dataset from a profile.
func GenerateDataset(p Profile) *Dataset {
	return rnaseq.Generate(p)
}

// Dataset profiles mirroring the paper's four datasets (scaled), plus
// a fast profile for tests and demos.
var (
	SugarbeetProfile     = rnaseq.Sugarbeet
	WhiteflyProfile      = rnaseq.Whitefly
	SchizophreniaProfile = rnaseq.Schizophrenia
	DrosophilaProfile    = rnaseq.Drosophila
	TinyProfile          = rnaseq.Tiny
)

// ReadFasta loads a FASTA file.
func ReadFasta(path string) ([]Read, error) { return seq.ReadFastaFile(path) }

// WriteFasta writes records to a FASTA file.
func WriteFasta(path string, recs []Read) error { return seq.WriteFastaFile(path, recs) }

// Lab prepares the experiment harnesses that regenerate the paper's
// figures; scale < 1 shrinks the synthetic datasets proportionally.
type Lab = experiments.Lab

// NewLab creates an experiment lab at the given dataset scale
// (<= 0 means full laptop scale, 1.0).
func NewLab(scale float64) *Lab { return experiments.NewLab(scale) }

// Experiment entry points, one per figure of the paper (see DESIGN.md
// §4 for the experiment index).
var (
	Fig2  = experiments.Fig2
	Fig3  = experiments.Fig3
	Fig4  = experiments.Fig4
	Fig56 = experiments.Fig56
	Fig7  = experiments.Fig7
	Fig9  = experiments.Fig9
	Fig10 = experiments.Fig10
	Fig11 = experiments.Fig11
)

// Ablations quantify the design choices the paper discusses in §III:
// distribution strategy, OpenMP schedule, read distribution scheme,
// and PyFasta balancing mode.
var (
	AblationDistribution    = experiments.AblationDistribution
	AblationSchedule        = experiments.AblationSchedule
	AblationR2TDistribution = experiments.AblationR2TDistribution
	AblationPyFastaMode     = experiments.AblationPyFastaMode
	MemoryFootprints        = experiments.MemoryFootprints
)

// Summary computes the paper's headline speedups on a lab.
func Summary(l *Lab) (*experiments.Headline, error) { return experiments.Summary(l) }

// RenderSummary prints paper-vs-measured headline numbers.
func RenderSummary(w io.Writer, h *experiments.Headline) { experiments.RenderHeadline(w, h) }

// CompareTranscriptSets classifies one transcript set against another
// with Smith-Waterman alignment (the paper's Fig. 4 methodology).
var CompareTranscriptSets = validate.CompareTranscriptSets
