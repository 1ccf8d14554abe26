// The stage list: the seven Trinity modules in the order Trinity.pl
// runs them. Each entry's run is the stage body, written once (the
// Config → option-struct mapping, the packed/ASCII pick, the partition
// split → align → merge); its file/save/load is the artifact the stage
// hands the next module when the run goes through files. Run, RunFiles
// and RunStage (pipeline.go) all walk this list.
package core

import (
	"errors"
	"fmt"
	"os"
	"time"

	"gotrinity/internal/bowtie"
	"gotrinity/internal/butterfly"
	"gotrinity/internal/chrysalis"
	"gotrinity/internal/inchworm"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/omp"
	"gotrinity/internal/pyfasta"
	"gotrinity/internal/seq"
	"gotrinity/internal/trace"
)

type stage struct {
	name string
	run  func(p *pipeline) error
	// file picks the artifact's path; save writes the stage's product
	// there and load reads it back in place of the in-memory product. All
	// three are nil for a product that only ever lives in memory.
	file func(a *FileArtifacts) string
	save func(p *pipeline, path string) error
	load func(p *pipeline, path string) error
}

var stages = []stage{
	{
		// reads → k-mer count table; kmers.txt reads back as the sorted
		// entries Inchworm consumes (GraphFromFasta keeps the table).
		name: "jellyfish", run: runJellyfish,
		file: func(a *FileArtifacts) string { return a.Kmers },
		save: func(p *pipeline, path string) error { return jellyfish.DumpFile(path, p.table, 1) },
		load: func(p *pipeline, path string) (err error) {
			p.entries, err = jellyfish.LoadFile(path, p.cfg.K)
			return err
		},
	},
	{
		// k-mer dictionary → contigs.fa.
		name: "inchworm", run: runInchworm,
		file: func(a *FileArtifacts) string { return a.Contigs },
		save: func(p *pipeline, path string) error { return seq.WriteFastaFile(path, p.res.Contigs) },
		load: func(p *pipeline, path string) (err error) {
			p.res.Contigs, err = seq.ReadFastaFile(path)
			return err
		},
	},
	{
		// reads + contigs → one alignment per read; alignments.sam.
		name: "bowtie", run: runBowtie,
		file: func(a *FileArtifacts) string { return a.SAM },
		save: saveSAM, load: loadSAM,
	},
	{
		// contigs + count table + alignments' scaffold pairs → components.txt.
		name: "graphfromfasta", run: runGraphFromFasta,
		file: func(a *FileArtifacts) string { return a.Components },
		save: func(p *pipeline, path string) error {
			return chrysalis.WriteComponentsFile(path, p.res.GFF.Components)
		},
		load: func(p *pipeline, path string) (err error) {
			p.res.GFF.Components, err = chrysalis.ReadComponentsFile(path)
			return err
		},
	},
	{
		// reads + contigs + components → assignments.txt.
		name: "readstotranscripts", run: runReadsToTranscripts,
		file: func(a *FileArtifacts) string { return a.Assignments },
		save: func(p *pipeline, path string) error {
			return chrysalis.WriteAssignmentsFile(path, p.res.R2T.Assignments)
		},
		load: func(p *pipeline, path string) (err error) {
			p.res.R2T.Assignments, err = chrysalis.ReadAssignmentsFile(path)
			return err
		},
	},
	{
		// contigs + components + reads + assignments → one quantified
		// graph per component, in memory only.
		name: "fastatodebruijn", run: runFastaToDeBruijn,
	},
	{
		// graphs (+ reads for pair support) → transcripts.fa.
		name: "butterfly", run: runButterfly,
		file: func(a *FileArtifacts) string { return a.Transcripts },
		save: func(p *pipeline, path string) error {
			return seq.WriteFastaFile(path, butterfly.Records(p.res.Transcripts))
		},
	},
}

// runJellyfish counts k-mers over the reads — in memory by default,
// through dsk's disk partitions under External.
func runJellyfish(p *pipeline) (err error) {
	cfg := p.cfg
	switch {
	case cfg.External.Enabled:
		p.table, p.res.External, err = externalCount(p.reads, p.preads, cfg)
	case cfg.ASCIISeq:
		p.table, err = jellyfish.Count(p.reads, jellyfish.Options{K: cfg.K})
	default:
		p.table, err = jellyfish.CountPacked(p.preads, jellyfish.Options{K: cfg.K})
	}
	return err
}

// runInchworm assembles greedy contigs from the k-mer dictionary: the
// dump's entries when it was read back, else the count table's. From
// the table it takes only the entries Inchworm's error filter keeps —
// the filter's effective threshold, so a MinKmerCount of 1 still keeps
// singletons — unsorted, since Inchworm sorts its seeds itself, and
// reports every distinct k-mer as offered.
func runInchworm(p *pipeline) error {
	entries := p.entries
	p.entries = nil
	offered := len(entries)
	if entries == nil {
		if p.table == nil {
			return errors.New("no k-mer dump to read the dictionary from")
		}
		minCount := p.cfg.MinKmerCount
		if minCount <= 0 {
			minCount = 2 // inchworm.Options' default
		}
		entries, offered = p.table.Kept(minCount), p.table.Distinct()
	}
	contigs, st, err := inchworm.Run(entries, inchworm.Options{
		K:            p.cfg.K,
		MinKmerCount: p.cfg.MinKmerCount,
	})
	if err != nil {
		return err
	}
	st.KmersIn = offered
	if len(contigs) == 0 {
		return errors.New("no contigs (too few reads?)")
	}
	p.res.Contigs, p.res.InchwormStats = contigs, st
	return nil
}

// runBowtie aligns the reads to the contigs: PyFasta-split the contigs
// Ranks ways, align every partition — concurrently when the tail pool
// allows (the paper runs each partition on its own node, §III-A/Fig.
// 9-10) — and merge per-partition alignments in partition order, so
// output is byte-identical for every worker count.
func runBowtie(p *pipeline) error {
	cfg, res := p.cfg, p.res
	idx, st, err := pyfasta.SplitIndices(res.Contigs, cfg.Ranks, pyfasta.EvenBases)
	if err != nil {
		return err
	}
	res.SplitStats = st
	var parts [][]int // contig indices of each non-empty partition
	for _, ids := range idx {
		if len(ids) > 0 {
			parts = append(parts, ids)
		}
	}
	workers := cfg.TailWorkers
	concurrent := workers > 1 && len(parts) > 1
	// Inner alignment threads: concurrent partitions divide the
	// configured team among the pool's workers so total parallelism
	// stays at the configured level instead of multiplying.
	inner := cfg.Bowtie.Threads
	if inner <= 0 {
		inner = omp.DefaultThreads()
	}
	if concurrent {
		inner = max(1, inner/min(workers, len(parts)))
	}

	// Under external mode, partitions spill their alignments to the
	// temp layout as they finish and the merge reads them back, so the
	// resident alignment state is one partition per worker, not all of
	// them. A lone partition is merged the moment it finishes: spilling
	// it could save nothing.
	var spill *alignmentSpill
	if cfg.External.Enabled && len(parts) > 1 {
		dir, err := os.MkdirTemp(cfg.External.TmpDir, "bowtie-") // "" = os.TempDir()
		if err != nil {
			return fmt.Errorf("spill dir: %w", err)
		}
		defer os.RemoveAll(dir)
		spill = &alignmentSpill{dir: dir}
	}

	type partOut struct {
		als []bowtie.Alignment
		st  bowtie.Stats
		err error
	}
	outs := make([]partOut, len(parts))
	pcontigs := p.packedContigs()
	// One worker, or one partition, runs the loop on this goroutine.
	omp.ParallelFor(len(parts), workers, omp.Schedule{Kind: omp.Dynamic}, func(part, tid int) {
		t0 := time.Now()
		als, st, bases, err := alignPartition(p, pcontigs, parts[part], inner)
		nAls := len(als)
		if err == nil && spill != nil {
			err = spill.put(part, als)
			als = nil // resident copy dropped; the merge reads it back
		}
		outs[part] = partOut{als: als, st: st, err: err}
		cfg.Trace.RealSpan("bowtie", fmt.Sprintf("partition%d", part),
			t0.Sub(p.start).Seconds(), time.Since(t0).Seconds(),
			fmt.Sprintf("contigs=%d bases=%d alignments=%d", len(parts[part]), bases, nAls))
	})

	// Merge in deterministic partition order; report the first failed
	// partition (also in partition order).
	nodeAls := make([][]bowtie.Alignment, len(parts))
	res.Tail.PartitionUnits = make([]float64, len(parts))
	for part, out := range outs {
		if out.err == nil && spill != nil {
			out.als, out.err = spill.get(part)
		}
		if out.err != nil {
			return out.err
		}
		nodeAls[part] = out.als
		res.BowtieStats.Accumulate(out.st, concurrent)
		res.Tail.PartitionUnits[part] = float64(out.st.SeedProbes + out.st.BasesCompared)
	}
	if spill != nil && res.External != nil {
		res.External.addBowtieSpill(spill.stats)
	}
	res.Alignments = bowtie.BestPerRead(bowtie.MergeSAM(nodeAls))
	cfg.Trace.RealEvent("omp", "bowtie_alignall", trace.RealRank,
		fmt.Sprintf("makespan=%.6fs imbalance=%.3f aligned=%d/%d partitions=%d workers=%d",
			res.BowtieStats.MakespanSec, res.BowtieStats.ThreadImbalance,
			res.BowtieStats.Aligned, res.BowtieStats.Reads, len(parts), workers))
	return nil
}

// alignPartition aligns all reads against one contig partition and
// renumbers the hits to global contig indices via the partition's
// offset table (local index → global index, a slice lookup). The
// packed default indexes and verifies the partition 2-bit packed;
// alignments are byte-identical to the ASCII path, whose exhaustive
// aligner reports more seed probes and compared bases.
func alignPartition(p *pipeline, pcontigs []seq.Packed, ids []int, inner int) (als []bowtie.Alignment, st bowtie.Stats, bases int, err error) {
	contigs := p.res.Contigs
	opt := p.cfg.Bowtie
	opt.Threads = inner
	if p.cfg.ASCIISeq {
		part := make([]seq.Record, len(ids))
		for j, ci := range ids {
			part[j] = contigs[ci]
			bases += len(contigs[ci].Seq)
		}
		ix, err := bowtie.NewIndex(part, opt)
		if err != nil {
			return nil, st, bases, err
		}
		als, st = bowtie.NewAligner(ix).AlignAll(p.reads)
	} else {
		part := make([]seq.PackedRecord, len(ids))
		for j, ci := range ids {
			part[j] = seq.PackedRecord{ID: contigs[ci].ID, Seq: pcontigs[ci]}
			bases += pcontigs[ci].Len()
		}
		ix, err := bowtie.NewPackedIndex(part, opt)
		if err != nil {
			return nil, st, bases, err
		}
		als, st = bowtie.NewPackedAligner(ix).AlignAll(p.preads)
	}
	for i := range als {
		als[i].Contig = ids[als[i].Contig] // offset table: local → global
	}
	return als, st, bases, nil
}

func saveSAM(p *pipeline, path string) error {
	refs := make([]bowtie.SAMHeaderEntry, len(p.res.Contigs))
	for i, c := range p.res.Contigs {
		refs[i] = bowtie.SAMHeaderEntry{Name: c.ID, Length: len(c.Seq)}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bowtie.WriteSAMRecords(f, refs, p.res.Alignments); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadSAM reads the alignments back from path — a file a user may have
// edited or produced with another tool. A record the contig set cannot
// hold (unknown RNAME, span past the contig's end) is a
// *bowtie.SAMRefError, never a silent scaffold onto the wrong contig.
func loadSAM(p *pipeline, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if p.res.Alignments, err = bowtie.ReadSAMFor(f, p.res.Contigs); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runGraphFromFasta welds contigs into components (hybrid when
// Ranks > 1), combining weld pairs with the scaffold pairs the Bowtie
// alignments imply. Run alone over a k-mer dump, it rebuilds the count
// table from the dump's entries.
func runGraphFromFasta(p *pipeline) error {
	cfg, res := p.cfg, p.res
	if p.table == nil {
		p.table = jellyfish.FromEntries(cfg.K, p.entries)
		p.entries = nil
	}
	res.Scaffolds = ScaffoldPairs(res.Alignments)
	var err error
	res.GFF, err = chrysalis.GraphFromFasta(res.Contigs, p.table, cfg.Ranks, chrysalis.GFFOptions{
		K:                 cfg.K,
		MinWeldSupport:    cfg.MinWeldSupport,
		MaxWeldsPerContig: cfg.MaxWelds,
		ThreadsPerRank:    cfg.ThreadsPerRank,
		Seed:              cfg.Seed,
		ShardKmers:        cfg.ShardKmers,
		ScaffoldPairs:     res.Scaffolds,
		Replicas:          cfg.Replicas,
		Packed:            !cfg.ASCIISeq,
		PackedContigs:     p.packedContigs(),
		Faults:            p.plan,
		Recovery:          p.recovery,
		Trace:             cfg.Trace,
	})
	p.table = nil // GraphFromFasta was the table's last reader
	return err
}

// runReadsToTranscripts assigns reads to components.
func runReadsToTranscripts(p *pipeline) error {
	cfg, res := p.cfg, p.res
	var err error
	res.R2T, err = chrysalis.ReadsToTranscripts(p.reads, res.Contigs, res.GFF.Components, cfg.Ranks, chrysalis.R2TOptions{
		K:              cfg.K,
		MaxMemReads:    cfg.MaxMemReads,
		ThreadsPerRank: cfg.ThreadsPerRank,
		ShardKmers:     cfg.ShardKmers,
		Replicas:       cfg.Replicas,
		Packed:         !cfg.ASCIISeq,
		PackedReads:    p.preads,
		PackedContigs:  p.packedContigs(),
		Faults:         p.plan,
		Recovery:       p.recovery,
		Trace:          cfg.Trace,
	})
	p.preads, p.pcontigs = nil, nil // ReadsToTranscripts was their last reader
	if err != nil {
		return err
	}
	if p.recovery.Enabled {
		res.Faults = &FaultReport{GFF: res.GFF.Recovery, R2T: res.R2T.Recovery}
		if p.plan != nil {
			res.Faults.Planned = p.plan.Faults()
			res.Faults.Injected = p.plan.Fired()
		}
	}
	return nil
}

// runFastaToDeBruijn builds one quantified graph per component
// (FastaToDebruijn + QuantifyGraph), component-parallel in LPT
// (largest-first) order under the tail pool.
func runFastaToDeBruijn(p *pipeline) error {
	cfg, res := p.cfg, p.res
	graphs, units, prof, err := chrysalis.FastaToDeBruijnParallel(
		res.Contigs, res.GFF.Components, cfg.K, p.reads, res.R2T.Assignments, cfg.TailWorkers)
	if err != nil {
		return err
	}
	res.Graphs = graphs
	res.Tail.ComponentUnits = units
	cfg.Trace.RealEvent("omp", "fastatodebruijn_components", trace.RealRank,
		fmt.Sprintf("components=%d workers=%d makespan=%.6fs imbalance=%.3f",
			len(graphs), prof.Threads, prof.Makespan().Seconds(), prof.Imbalance()))
	return nil
}

// runButterfly reconstructs transcripts from the quantified graphs,
// one component per work item under the tail pool. The run seed flows
// into the path-enumeration tie-breaking unless the caller pinned its
// own butterfly seed.
func runButterfly(p *pipeline) error {
	cfg, res := p.cfg, p.res
	bopt := cfg.Butterfly
	if bopt.Seed == 0 {
		bopt.Seed = cfg.Seed
	}
	var prof omp.Profile
	res.Transcripts, prof = butterfly.ReconstructParallel(res.Graphs, bopt, cfg.TailWorkers)
	cfg.Trace.RealEvent("omp", "butterfly_components", trace.RealRank,
		fmt.Sprintf("components=%d transcripts=%d workers=%d makespan=%.6fs imbalance=%.3f",
			len(res.Graphs), len(res.Transcripts), prof.Threads,
			prof.Makespan().Seconds(), prof.Imbalance()))
	// Pair support is computed only where it filters. It filters in
	// lockstep with the transcripts — a transcript's support is
	// independent of which other transcripts survive, so no second read
	// scan is needed.
	if cfg.MinPairSupport > 0 {
		res.PairSupport = butterfly.PairSupportParallel(res.Transcripts, res.Graphs, p.reads, cfg.TailWorkers)
		res.Transcripts, res.PairSupport = butterfly.FilterByPairSupport(
			res.Transcripts, res.PairSupport, cfg.MinPairSupport)
	}
	return nil
}
