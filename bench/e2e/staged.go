package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"gotrinity/internal/bowtie"
	"gotrinity/internal/butterfly"
	"gotrinity/internal/chrysalis"
	"gotrinity/internal/core"
	"gotrinity/internal/dsk"
	"gotrinity/internal/inchworm"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/omp"
	"gotrinity/internal/pyfasta"
	"gotrinity/internal/seq"
)

// kmerLen is core.Config's default K, which every workload runs with.
const kmerLen = 25

// replayInput is what one staged replay assembles: the in-memory reads
// (core.Run's order) or, with files set, readsPath into workDir
// (core.RunFiles's order, every hand-off through a file).
type replayInput struct {
	files     bool
	reads     []seq.Record
	readsPath string
	workDir   string
	cfg       core.Config
}

// replayOut is what the replay produced: the output to check against
// the production run, the Stats/Profile structs the layers returned
// (the source of every exact-count metric) and the intermediate data
// the probes reuse.
type replayOut struct {
	fasta []byte // the transcripts as FASTA, what core.Run/RunFiles emit

	reads       []seq.Record
	preads      []seq.PackedRecord
	table       *jellyfish.CountTable
	contigs     []seq.Record
	pcontigs    []seq.Packed
	transcripts []butterfly.Transcript

	dsk             dsk.Stats
	inchworm        inchworm.Stats
	splitBases      []int // contig bases per non-empty Bowtie partition
	bowtie          bowtie.Stats
	bowtieIndex     int // bytes, summed over partitions
	alignedReads    int
	gff             *chrysalis.GFFResult
	r2t             *chrysalis.R2TResult
	componentUnits  []float64
	butterflyThread omp.Profile

	fastaReadBytes  int64
	fastaWriteBytes int64
}

func digest(fasta []byte) string {
	sum := sha256.Sum256(fasta)
	return hex.EncodeToString(sum[:])
}

func fastaBytes(recs []seq.Record) ([]byte, error) {
	var b bytes.Buffer
	fw := seq.NewFastaWriter(&b)
	for i := range recs {
		if err := fw.Write(&recs[i]); err != nil {
			return nil, err
		}
	}
	if err := fw.Flush(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// replay assembles the input by calling each layer's public functions
// in the order core.Run (or, with in.files, core.RunFiles) calls them,
// with a span around each call. It follows the default production path
// only: packed sequences, hash seeds, the component-parallel tail.
//
// One difference from core.Run is deliberate: with Ranks > 1 core.Run
// aligns the Bowtie partitions concurrently, splitting the thread team
// between them, and the replay aligns them one after another with the
// whole team, so that the spans never overlap and self time stays a
// partition of the wall. Output and work counts are the same.
func replay(tr *tracer, in replayInput) (*replayOut, error) {
	out := &replayOut{reads: in.reads}
	cfg := in.cfg
	workers := runtime.GOMAXPROCS(0) // core's tail pool size
	art := func(name string) string { return filepath.Join(in.workDir, name) }

	fileSize := func(path string) int64 {
		st, err := os.Stat(path)
		if err != nil {
			return 0 // the caller's read or write of path has already failed
		}
		return st.Size()
	}
	readFasta := func(path string) (recs []seq.Record, err error) {
		err = tr.do("seq", "fasta_read", func() (err error) {
			recs, err = seq.ReadFastaFile(path)
			return err
		})
		out.fastaReadBytes += fileSize(path)
		return recs, err
	}
	writeFasta := func(path string, recs []seq.Record) error {
		err := tr.do("seq", "fasta_write", func() error { return seq.WriteFastaFile(path, recs) })
		out.fastaWriteBytes += fileSize(path)
		return err
	}
	packContigs := func() {
		tr.run("seq", "pack", func() {
			out.pcontigs = make([]seq.Packed, len(out.contigs))
			for i := range out.contigs {
				out.pcontigs[i] = seq.Pack(out.contigs[i].Seq)
			}
		})
	}
	// alignPartition indexes the contigs ids names and aligns every read
	// against them, returning hits numbered by global contig index.
	alignPartition := func(ids []int) ([]bowtie.Alignment, error) {
		part := make([]seq.PackedRecord, len(ids))
		bases := 0
		for j, ci := range ids {
			part[j] = seq.PackedRecord{ID: out.contigs[ci].ID, Seq: out.pcontigs[ci]}
			bases += out.pcontigs[ci].Len()
		}
		out.splitBases = append(out.splitBases, bases)
		var ix *bowtie.PackedIndex
		err := tr.do("bowtie", "index", func() (err error) {
			ix, err = bowtie.NewPackedIndex(part, bowtie.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		out.bowtieIndex += ix.MemoryFootprint()
		var als []bowtie.Alignment
		tr.run("bowtie", "align", func() {
			var st bowtie.Stats
			als, st = bowtie.NewPackedAligner(ix).AlignAll(out.preads)
			out.bowtie.Accumulate(st, false)
		})
		for i := range als {
			als[i].Contig = ids[als[i].Contig]
		}
		return als, nil
	}
	allContigs := func() []int {
		all := make([]int, len(out.contigs))
		for i := range all {
			all[i] = i
		}
		return all
	}

	var comps []chrysalis.Component
	var assigns []chrysalis.Assignment
	var graphs []*chrysalis.ComponentGraph
	var scaffolds [][2]int32

	err := tr.do("core", "assembly", func() error {
		// --- reads in, packed once.
		if in.files {
			var err error
			if out.reads, err = readFasta(in.readsPath); err != nil {
				return err
			}
		}
		tr.run("seq", "pack", func() {
			out.preads = seq.PackRecords(out.reads)
		})

		// --- jellyfish: count, in memory or through dsk's partitions.
		err := tr.do("core", "jellyfish", func() error {
			if !in.files {
				return tr.do("jellyfish", "count", func() (err error) {
					out.table, err = jellyfish.CountPacked(out.preads, jellyfish.Options{K: kmerLen})
					return err
				})
			}
			var entries []jellyfish.Entry
			err := tr.do("dsk", "count", func() (err error) {
				entries, out.dsk, err = dsk.CountPacked(out.preads, dsk.Options{
					K: kmerLen, Partitions: cfg.External.Partitions, TmpDir: cfg.External.TmpDir})
				return err
			})
			if err != nil {
				return err
			}
			tr.run("jellyfish", "from_entries", func() {
				out.table = jellyfish.FromEntries(kmerLen, entries)
			})
			return tr.do("jellyfish", "dump", func() error {
				return jellyfish.DumpFile(art("kmers.txt"), out.table, 1)
			})
		})
		if err != nil {
			return fmt.Errorf("jellyfish: %w", err)
		}

		// --- inchworm: dictionary in, contigs out.
		err = tr.do("core", "inchworm", func() error {
			var entries []jellyfish.Entry
			if in.files {
				err := tr.do("jellyfish", "load", func() (err error) {
					entries, err = jellyfish.LoadFile(art("kmers.txt"), kmerLen)
					return err
				})
				if err != nil {
					return err
				}
			} else {
				tr.run("jellyfish", "entries", func() {
					entries = out.table.Entries(1)
				})
			}
			err := tr.do("inchworm", "run", func() (err error) {
				out.contigs, out.inchworm, err = inchworm.Run(entries, inchworm.Options{K: kmerLen})
				return err
			})
			if err != nil {
				return err
			}
			if len(out.contigs) == 0 {
				return fmt.Errorf("no contigs")
			}
			if in.files {
				return writeFasta(art("contigs.fa"), out.contigs)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("inchworm: %w", err)
		}
		if !in.files {
			packContigs()
		}

		// --- bowtie: reads against contigs, one alignment per read.
		err = tr.do("core", "bowtie", func() error {
			if in.files {
				var err error
				if out.contigs, err = readFasta(art("contigs.fa")); err != nil {
					return err
				}
				packContigs()
				als, err := alignPartition(allContigs())
				if err != nil {
					return err
				}
				tr.run("bowtie", "merge", func() {
					als = bowtie.BestPerRead(als)
				})
				out.alignedReads = len(als)
				return tr.do("bowtie", "sam_write", func() error {
					refs := make([]bowtie.SAMHeaderEntry, len(out.contigs))
					for i, c := range out.contigs {
						refs[i] = bowtie.SAMHeaderEntry{Name: c.ID, Length: len(c.Seq)}
					}
					f, err := os.Create(art("alignments.sam"))
					if err != nil {
						return err
					}
					if err := bowtie.WriteSAMRecords(f, refs, als); err != nil {
						f.Close()
						return err
					}
					return f.Close()
				})
			}
			parts := [][]int{allContigs()}
			if cfg.Ranks > 1 {
				err := tr.do("pyfasta", "split", func() (err error) {
					parts, _, err = pyfasta.SplitIndices(out.contigs, cfg.Ranks, pyfasta.EvenBases)
					return err
				})
				if err != nil {
					return err
				}
			}
			var nodeAls [][]bowtie.Alignment
			for _, ids := range parts {
				if len(ids) == 0 {
					continue
				}
				als, err := alignPartition(ids)
				if err != nil {
					return err
				}
				nodeAls = append(nodeAls, als)
			}
			tr.run("bowtie", "merge", func() {
				als := bowtie.BestPerRead(bowtie.MergeSAM(nodeAls))
				out.alignedReads = len(als)
				scaffolds = core.ScaffoldPairs(als)
			})
			return nil
		})
		if err != nil {
			return fmt.Errorf("bowtie: %w", err)
		}

		// --- graphfromfasta: weld contigs into components.
		err = tr.do("core", "graphfromfasta", func() error {
			if in.files {
				err := tr.do("bowtie", "sam_read", func() error {
					f, err := os.Open(art("alignments.sam"))
					if err != nil {
						return err
					}
					defer f.Close()
					als, err := bowtie.ReadSAM(f)
					if err != nil {
						return err
					}
					index := make(map[string]int, len(out.contigs))
					for i, c := range out.contigs {
						index[c.ID] = i
					}
					for i := range als {
						als[i].Contig = index[als[i].ContigID]
					}
					scaffolds = core.ScaffoldPairs(als)
					return nil
				})
				if err != nil {
					return err
				}
			}
			err := tr.do("chrysalis", "gff", func() (err error) {
				out.gff, err = chrysalis.GraphFromFasta(out.contigs, out.table, cfg.Ranks, chrysalis.GFFOptions{
					K:              kmerLen,
					ThreadsPerRank: cfg.ThreadsPerRank,
					Seed:           cfg.Seed,
					ShardKmers:     cfg.ShardKmers,
					ScaffoldPairs:  scaffolds,
					Packed:         true,
					PackedContigs:  out.pcontigs,
				})
				return err
			})
			if err != nil {
				return err
			}
			comps = out.gff.Components
			if in.files {
				return tr.do("chrysalis", "io", func() error {
					return chrysalis.WriteComponentsFile(art("components.txt"), comps)
				})
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("graphfromfasta: %w", err)
		}

		// --- readstotranscripts: assign reads to components.
		err = tr.do("core", "readstotranscripts", func() error {
			if in.files {
				err := tr.do("chrysalis", "io", func() (err error) {
					comps, err = chrysalis.ReadComponentsFile(art("components.txt"))
					return err
				})
				if err != nil {
					return err
				}
			}
			err := tr.do("chrysalis", "r2t", func() (err error) {
				out.r2t, err = chrysalis.ReadsToTranscripts(out.reads, out.contigs, comps, cfg.Ranks, chrysalis.R2TOptions{
					K:              kmerLen,
					ThreadsPerRank: cfg.ThreadsPerRank,
					ShardKmers:     cfg.ShardKmers,
					Packed:         true,
					PackedReads:    out.preads,
					PackedContigs:  out.pcontigs,
				})
				return err
			})
			if err != nil {
				return err
			}
			assigns = out.r2t.Assignments
			if in.files {
				return tr.do("chrysalis", "io", func() error {
					return chrysalis.WriteAssignmentsFile(art("assignments.txt"), assigns)
				})
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("readstotranscripts: %w", err)
		}

		// --- fastatodebruijn + quantify: one graph per component.
		err = tr.do("core", "fastatodebruijn", func() error {
			if in.files {
				err := tr.do("chrysalis", "io", func() (err error) {
					assigns, err = chrysalis.ReadAssignmentsFile(art("assignments.txt"))
					return err
				})
				if err != nil {
					return err
				}
			}
			return tr.do("chrysalis", "f2d", func() (err error) {
				graphs, out.componentUnits, _, err = chrysalis.FastaToDeBruijnParallel(
					out.contigs, comps, kmerLen, out.reads, assigns, workers)
				return err
			})
		})
		if err != nil {
			return fmt.Errorf("fastatodebruijn: %w", err)
		}

		// --- butterfly: transcripts from the quantified graphs.
		return tr.do("core", "butterfly", func() error {
			tr.run("butterfly", "reconstruct", func() {
				out.transcripts, out.butterflyThread = butterfly.ReconstructParallel(
					graphs, butterfly.Options{Seed: cfg.Seed}, workers)
			})
			if in.files {
				return writeFasta(art("transcripts.fa"), butterfly.Records(out.transcripts))
			}
			tr.run("butterfly", "pair_support", func() {
				butterfly.PairSupportParallel(out.transcripts, graphs, out.reads, workers)
			})
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("staged replay: %w", err)
	}

	if in.files {
		out.fasta, err = os.ReadFile(art("transcripts.fa"))
	} else {
		out.fasta, err = fastaBytes(butterfly.Records(out.transcripts))
	}
	if err != nil {
		return nil, fmt.Errorf("staged replay: %w", err)
	}
	return out, nil
}
