package core

import (
	"fmt"
	"os"
	"path/filepath"

	"gotrinity/internal/bowtie"
	"gotrinity/internal/butterfly"
	"gotrinity/internal/chrysalis"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/seq"
)

// RunFiles executes the pipeline with every stage exchanging data
// through files in workDir, exactly as the real Trinity modules do
// ("the files being output from one software module are then consumed
// by the following module", §II-A). Each stage re-reads its inputs
// from disk, so this path exercises all the on-disk formats and is
// what chaining the cmd/ binaries by hand produces. It returns the
// paths of every artifact.
type FileArtifacts struct {
	Reads       string // input (copied in if not already in workDir)
	Kmers       string // jellyfish dump
	Contigs     string // inchworm contigs FASTA
	SAM         string // bowtie alignments
	Components  string // graphfromfasta components
	Assignments string // readstotranscripts assignments
	Transcripts string // butterfly output FASTA
}

// RunFiles assembles readsPath into workDir, writing every
// intermediate file.
func RunFiles(readsPath, workDir string, cfg Config) (*FileArtifacts, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	art := &FileArtifacts{
		Reads:       readsPath,
		Kmers:       filepath.Join(workDir, "kmers.txt"),
		Contigs:     filepath.Join(workDir, "contigs.fa"),
		SAM:         filepath.Join(workDir, "alignments.sam"),
		Components:  filepath.Join(workDir, "components.txt"),
		Assignments: filepath.Join(workDir, "assignments.txt"),
		Transcripts: filepath.Join(workDir, "transcripts.fa"),
	}

	// jellyfish: reads -> k-mer dump. The packed default counts from
	// the 2-bit reads; External counts through dsk's disk partitions.
	// Either way the dump file is byte-identical to the ASCII path's.
	reads, err := seq.ReadFastaFile(readsPath)
	if err != nil {
		return nil, fmt.Errorf("core: reading %s: %w", readsPath, err)
	}
	var preads []seq.PackedRecord
	if !cfg.ASCIISeq {
		preads = seq.PackRecords(reads)
	}
	var table *jellyfish.CountTable
	switch {
	case cfg.External.Enabled:
		if table, _, err = externalCount(reads, preads, &cfg); err != nil {
			return nil, err
		}
	case preads != nil:
		if table, err = jellyfish.CountPacked(preads, jellyfish.Options{K: cfg.K}); err != nil {
			return nil, err
		}
	default:
		if table, err = jellyfish.Count(reads, jellyfish.Options{K: cfg.K}); err != nil {
			return nil, err
		}
	}
	if err := jellyfish.DumpFile(art.Kmers, table, 1); err != nil {
		return nil, err
	}

	// inchworm: dump -> contigs.
	entries, err := jellyfish.LoadFile(art.Kmers, cfg.K)
	if err != nil {
		return nil, err
	}
	contigs, _, err := inchwormFromEntries(entries, cfg)
	if err != nil {
		return nil, err
	}
	if err := seq.WriteFastaFile(art.Contigs, contigs); err != nil {
		return nil, err
	}

	// bowtie: reads + contigs -> SAM. The packed default indexes and
	// verifies the 2-bit forms.
	contigs, err = seq.ReadFastaFile(art.Contigs)
	if err != nil {
		return nil, err
	}
	var pcontigs []seq.Packed
	if preads != nil {
		pcontigs = make([]seq.Packed, len(contigs))
		for i := range contigs {
			pcontigs[i] = seq.Pack(contigs[i].Seq)
		}
	}
	var als []bowtie.Alignment
	if preads != nil {
		prec := make([]seq.PackedRecord, len(contigs))
		for i := range contigs {
			prec[i] = seq.PackedRecord{ID: contigs[i].ID, Seq: pcontigs[i]}
		}
		pix, err := bowtie.NewPackedIndex(prec, cfg.Bowtie)
		if err != nil {
			return nil, err
		}
		als, _ = bowtie.NewPackedAligner(pix).AlignAll(preads)
	} else {
		ix, err := bowtie.NewIndex(contigs, cfg.Bowtie)
		if err != nil {
			return nil, err
		}
		als, _ = bowtie.NewAligner(ix).AlignAll(reads)
	}
	als = bowtie.BestPerRead(als)
	refs := make([]bowtie.SAMHeaderEntry, len(contigs))
	for i, c := range contigs {
		refs[i] = bowtie.SAMHeaderEntry{Name: c.ID, Length: len(c.Seq)}
	}
	samFile, err := os.Create(art.SAM)
	if err != nil {
		return nil, err
	}
	if err := bowtie.WriteSAMRecords(samFile, refs, als); err != nil {
		samFile.Close()
		return nil, err
	}
	if err := samFile.Close(); err != nil {
		return nil, err
	}

	// graphfromfasta: contigs + reads (+ SAM scaffolds) -> components.
	scaffolds, err := scaffoldsFromSAM(art.SAM, contigs)
	if err != nil {
		return nil, err
	}
	gff, err := chrysalis.GraphFromFasta(contigs, table, cfg.Ranks, chrysalis.GFFOptions{
		K:                 cfg.K,
		MinWeldSupport:    cfg.MinWeldSupport,
		MaxWeldsPerContig: cfg.MaxWelds,
		ThreadsPerRank:    cfg.ThreadsPerRank,
		Seed:              cfg.Seed,
		ShardKmers:        cfg.ShardKmers,
		Packed:            preads != nil,
		PackedContigs:     pcontigs,
		ScaffoldPairs:     scaffolds,
	})
	if err != nil {
		return nil, err
	}
	if err := chrysalis.WriteComponentsFile(art.Components, gff.Components); err != nil {
		return nil, err
	}

	// readstotranscripts: reads + contigs + components -> assignments.
	comps, err := chrysalis.ReadComponentsFile(art.Components)
	if err != nil {
		return nil, err
	}
	r2t, err := chrysalis.ReadsToTranscripts(reads, contigs, comps, cfg.Ranks, chrysalis.R2TOptions{
		K:              cfg.K,
		MaxMemReads:    cfg.MaxMemReads,
		ThreadsPerRank: cfg.ThreadsPerRank,
		ShardKmers:     cfg.ShardKmers,
		Packed:         preads != nil,
		PackedReads:    preads,
		PackedContigs:  pcontigs,
	})
	if err != nil {
		return nil, err
	}
	if err := chrysalis.WriteAssignmentsFile(art.Assignments, r2t.Assignments); err != nil {
		return nil, err
	}

	// butterfly: contigs + components + reads + assignments -> transcripts.
	// The file-based runner uses the same component-parallel tail as the
	// in-memory pipeline.
	assigns, err := chrysalis.ReadAssignmentsFile(art.Assignments)
	if err != nil {
		return nil, err
	}
	graphs, _, _, err := chrysalis.FastaToDeBruijnParallel(contigs, comps, cfg.K, reads, assigns, cfg.tailWorkers())
	if err != nil {
		return nil, err
	}
	bopt := cfg.Butterfly
	if bopt.Seed == 0 {
		bopt.Seed = cfg.Seed
	}
	ts, _ := butterfly.ReconstructParallel(graphs, bopt, cfg.tailWorkers())
	if err := seq.WriteFastaFile(art.Transcripts, butterfly.Records(ts)); err != nil {
		return nil, err
	}
	return art, nil
}

// scaffoldsFromSAM reads the alignments back from samPath — a file a
// user may have edited or produced with another tool — and derives the
// scaffold pairs. A record the contig set cannot hold (unknown RNAME,
// span past the contig's end) is a *bowtie.SAMRefError, never a silent
// scaffold onto the wrong contig.
func scaffoldsFromSAM(samPath string, contigs []seq.Record) ([][2]int32, error) {
	f, err := os.Open(samPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	als, err := bowtie.ReadSAMFor(f, contigs)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", samPath, err)
	}
	return ScaffoldPairs(als), nil
}

func inchwormFromEntries(entries []jellyfish.Entry, cfg Config) ([]seq.Record, int, error) {
	contigs, st, err := inchwormRun(entries, cfg)
	return contigs, st.Contigs, err
}
