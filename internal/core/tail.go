// The pipeline tail: Bowtie partitions aligned by a bounded worker
// pool (the paper runs each PyFasta partition on its own node,
// §III-A/Fig. 9-10) and, downstream of Chrysalis, component-parallel
// FastaToDebruijn/QuantifyGraph/Butterfly phases. Every phase merges
// results in a fixed order (partition order, component order), so
// output is byte-identical for every worker count and a fixed seed.
package core

import (
	"fmt"
	"time"

	"gotrinity/internal/bowtie"
	"gotrinity/internal/butterfly"
	"gotrinity/internal/chrysalis"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/mpi"
	"gotrinity/internal/omp"
	"gotrinity/internal/pyfasta"
	"gotrinity/internal/seq"
	"gotrinity/internal/trace"
)

// TailStats meters the parallelizable pipeline tail in deterministic
// work units — functions of the input alone, independent of worker
// count, scheduling, and wall clock. They feed the tail makespan model
// (BENCH_pipeline.json): serial tail cost is the sum of all units,
// parallel tail cost is the LPT makespan of each phase's units over
// the worker pool (omp.LPTMakespan).
type TailStats struct {
	// PartitionUnits holds one entry per non-empty Bowtie partition:
	// seed probes + bases compared, the aligner's exact work counters.
	PartitionUnits []float64
	// ComponentUnits holds one entry per component: contig bases plus
	// assigned-read bases, the weight of the component-parallel
	// DeBruijn/Quantify/Butterfly work.
	ComponentUnits []float64
}

// tailWorkers resolves Config.TailWorkers: 0 (or negative) means
// hardware parallelism.
func (c *Config) tailWorkers() int {
	if c.TailWorkers > 0 {
		return c.TailWorkers
	}
	return omp.DefaultThreads()
}

// runTail executes the pipeline tail as the paper's stage → barrier →
// stage sequence: each phase drains completely before the next begins.
func runTail(reads []seq.Record, pp *packedPipe, res *Result, cfg *Config, table *jellyfish.CountTable,
	plan *mpi.FaultPlan, recovery chrysalis.RecoveryOptions, runStart time.Time,
	stage func(string, func() error) error) error {

	// --- Bowtie: align reads to contigs; with Ranks>1 the contig set
	// is PyFasta-split and the partitions aligned concurrently by the
	// tail worker pool, merged in partition order.
	err := stage("bowtie", func() error {
		if err := runBowtiePartitions(reads, pp, res, cfg, runStart); err != nil {
			return err
		}
		cfg.Trace.RealEvent("omp", "bowtie_alignall", trace.RealRank,
			fmt.Sprintf("makespan=%.6fs imbalance=%.3f aligned=%d/%d partitions=%d workers=%d",
				res.BowtieStats.MakespanSec, res.BowtieStats.ThreadImbalance,
				res.BowtieStats.Aligned, res.BowtieStats.Reads,
				len(res.Tail.PartitionUnits), cfg.tailWorkers()))
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: bowtie: %w", err)
	}

	// --- GraphFromFasta: weld contigs into components (hybrid when
	// Ranks > 1), combining weld pairs with Bowtie scaffold pairs.
	err = stage("graphfromfasta", func() error {
		var err error
		res.GFF, err = chrysalis.GraphFromFasta(res.Contigs, table, cfg.Ranks, chrysalis.GFFOptions{
			K:                 cfg.K,
			MinWeldSupport:    cfg.MinWeldSupport,
			MaxWeldsPerContig: cfg.MaxWelds,
			ThreadsPerRank:    cfg.ThreadsPerRank,
			Seed:              cfg.Seed,
			ShardKmers:        cfg.ShardKmers,
			ScaffoldPairs:     res.Scaffolds,
			Replicas:          cfg.Replicas,
			Packed:            pp != nil,
			PackedContigs:     pp.contigSeqs(),
			Faults:            plan,
			Recovery:          recovery,
			Trace:             cfg.Trace,
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("core: graphfromfasta: %w", err)
	}

	// --- ReadsToTranscripts: assign reads to components.
	err = stage("readstotranscripts", func() error {
		var err error
		res.R2T, err = chrysalis.ReadsToTranscripts(reads, res.Contigs, res.GFF.Components,
			cfg.Ranks, chrysalis.R2TOptions{
				K:              cfg.K,
				MaxMemReads:    cfg.MaxMemReads,
				ThreadsPerRank: cfg.ThreadsPerRank,
				ShardKmers:     cfg.ShardKmers,
				Replicas:       cfg.Replicas,
				Packed:         pp != nil,
				PackedReads:    pp.readRecs(),
				PackedContigs:  pp.contigSeqs(),
				Faults:         plan,
				Recovery:       recovery,
				Trace:          cfg.Trace,
			})
		return err
	})
	if err != nil {
		return fmt.Errorf("core: readstotranscripts: %w", err)
	}
	if recovery.Enabled {
		res.Faults = &FaultReport{GFF: res.GFF.Recovery, R2T: res.R2T.Recovery}
		if plan != nil {
			res.Faults.Planned = plan.Faults()
			res.Faults.Injected = plan.Fired()
		}
	}

	// --- FastaToDebruijn + QuantifyGraph: one quantified graph per
	// component, built component-parallel in LPT (largest-first) order
	// by the tail pool.
	err = stage("fastatodebruijn", func() error {
		graphs, units, prof, err := chrysalis.FastaToDeBruijnParallel(
			res.Contigs, res.GFF.Components, cfg.K, reads, res.R2T.Assignments, cfg.tailWorkers())
		if err != nil {
			return err
		}
		res.Graphs = graphs
		res.Tail.ComponentUnits = units
		cfg.Trace.RealEvent("omp", "fastatodebruijn_components", trace.RealRank,
			fmt.Sprintf("components=%d workers=%d makespan=%.6fs imbalance=%.3f",
				len(graphs), prof.Threads, prof.Makespan().Seconds(), prof.Imbalance()))
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: fastatodebruijn: %w", err)
	}

	// --- Butterfly: transcripts from the quantified graphs, one
	// component per work item under the same tail pool. The run seed
	// flows into the path-enumeration tie-breaking unless the caller
	// pinned its own butterfly seed. Pair support filters in lockstep
	// with the transcripts — a transcript's support count is
	// independent of which other transcripts survive, so no second
	// read scan is needed.
	err = stage("butterfly", func() error {
		bopt := cfg.Butterfly
		if bopt.Seed == 0 {
			bopt.Seed = cfg.Seed
		}
		var prof omp.Profile
		res.Transcripts, prof = butterfly.ReconstructParallel(res.Graphs, bopt, cfg.tailWorkers())
		res.PairSupport = butterfly.PairSupportParallel(res.Transcripts, res.Graphs, reads, cfg.tailWorkers())
		cfg.Trace.RealEvent("omp", "butterfly_components", trace.RealRank,
			fmt.Sprintf("components=%d transcripts=%d workers=%d makespan=%.6fs imbalance=%.3f",
				len(res.Graphs), len(res.Transcripts), prof.Threads,
				prof.Makespan().Seconds(), prof.Imbalance()))
		if cfg.MinPairSupport > 0 {
			res.Transcripts, res.PairSupport = butterfly.FilterByPairSupport(
				res.Transcripts, res.PairSupport, cfg.MinPairSupport)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: butterfly: %w", err)
	}
	return nil
}

// runBowtiePartitions is the bowtie stage body: PyFasta-split the
// contigs (Ranks > 1), align every partition — concurrently when the
// tail pool allows — and merge per-partition alignments in partition
// order. Per-alignment contig renumbering uses the partition's offset
// table (local index → global index, a slice lookup) instead of a
// name-keyed map probe per alignment.
func runBowtiePartitions(reads []seq.Record, pp *packedPipe, res *Result, cfg *Config, runStart time.Time) error {
	var idx [][]int
	if cfg.Ranks > 1 {
		var st pyfasta.Stats
		var err error
		idx, st, err = pyfasta.SplitIndices(res.Contigs, cfg.Ranks, pyfasta.EvenBases)
		if err != nil {
			return err
		}
		res.SplitStats = st
	} else {
		all := make([]int, len(res.Contigs))
		for i := range all {
			all[i] = i
		}
		idx = [][]int{all}
	}
	active := 0 // partitions that actually hold contigs
	for _, ids := range idx {
		if len(ids) > 0 {
			active++
		}
	}
	workers := cfg.tailWorkers()
	concurrent := workers > 1 && active > 1
	// Inner alignment threads: concurrent partitions divide the
	// configured team among the pool's workers so total parallelism
	// stays at the configured level instead of multiplying.
	inner := cfg.Bowtie.Threads
	if inner <= 0 {
		inner = omp.DefaultThreads()
	}
	if concurrent {
		div := workers
		if div > active {
			div = active
		}
		if inner = inner / div; inner < 1 {
			inner = 1
		}
	}

	// Under external mode, partitions spill their alignments to the
	// temp layout as they finish and the merge reads them back, so the
	// resident alignment state is one partition per worker, not all of
	// them.
	var spill *alignmentSpill
	if cfg.External.Enabled {
		var err error
		if spill, err = newAlignmentSpill(cfg.External.TmpDir); err != nil {
			return err
		}
		defer spill.cleanup()
	}

	type partOut struct {
		als   []bowtie.Alignment
		st    bowtie.Stats
		bases int
		err   error
	}
	outs := make([]partOut, len(idx))
	alignPart := func(p int) {
		ids := idx[p]
		if len(ids) == 0 {
			return
		}
		t0 := time.Now()
		als, st, bases, err := alignPartition(reads, pp, res.Contigs, ids, cfg, inner)
		if err != nil {
			outs[p].err = err
			return
		}
		nAls := len(als)
		if spill != nil {
			if err := spill.put(p, als); err != nil {
				outs[p].err = err
				return
			}
			als = nil // resident copy dropped; the merge reads it back
		}
		outs[p] = partOut{als: als, st: st, bases: bases}
		cfg.Trace.RealSpan("bowtie", fmt.Sprintf("partition%d", p),
			t0.Sub(runStart).Seconds(), time.Since(t0).Seconds(),
			fmt.Sprintf("contigs=%d bases=%d alignments=%d", len(ids), bases, nAls))
	}
	if concurrent {
		omp.ParallelFor(len(idx), workers, omp.Schedule{Kind: omp.Dynamic},
			func(p, tid int) { alignPart(p) })
	} else {
		for p := range idx {
			alignPart(p)
		}
	}

	// Merge in deterministic partition order; report the first failed
	// partition (also in partition order).
	var nodeAls [][]bowtie.Alignment
	units := make([]float64, 0, len(idx))
	for p := range outs {
		if outs[p].err != nil {
			return outs[p].err
		}
		if len(idx[p]) == 0 {
			continue
		}
		als := outs[p].als
		if spill != nil {
			var err error
			if als, err = spill.get(p); err != nil {
				return err
			}
		}
		nodeAls = append(nodeAls, als)
		res.BowtieStats.Accumulate(outs[p].st, concurrent)
		units = append(units, float64(outs[p].st.SeedProbes+outs[p].st.BasesCompared))
	}
	if spill != nil && res.External != nil {
		res.External.addBowtieSpill(spill.snapshot())
	}
	res.Tail.PartitionUnits = units
	res.Alignments = bowtie.BestPerRead(bowtie.MergeSAM(nodeAls))
	res.Scaffolds = ScaffoldPairs(res.Alignments)
	return nil
}

// alignPartition aligns all reads against one contig partition and
// renumbers the hits to global contig indices via the partition's
// offset table. With a packed pipe the partition is indexed and
// verified 2-bit packed; alignments and stats are byte-identical to
// the ASCII path.
func alignPartition(reads []seq.Record, pp *packedPipe, contigs []seq.Record, ids []int, cfg *Config, inner int) ([]bowtie.Alignment, bowtie.Stats, int, error) {
	bases := 0
	opt := cfg.Bowtie
	opt.Threads = inner
	var als []bowtie.Alignment
	var st bowtie.Stats
	if pp != nil {
		part := make([]seq.PackedRecord, len(ids))
		for j, ci := range ids {
			part[j] = seq.PackedRecord{ID: contigs[ci].ID, Seq: pp.contigs[ci]}
			bases += pp.contigs[ci].Len()
		}
		ix, err := bowtie.NewPackedIndex(part, opt)
		if err != nil {
			return nil, bowtie.Stats{}, bases, err
		}
		als, st = bowtie.NewPackedAligner(ix).AlignAll(pp.reads)
	} else {
		part := make([]seq.Record, len(ids))
		for j, ci := range ids {
			part[j] = contigs[ci]
			bases += len(contigs[ci].Seq)
		}
		ix, err := bowtie.NewIndex(part, opt)
		if err != nil {
			return nil, bowtie.Stats{}, bases, err
		}
		als, st = bowtie.NewAligner(ix).AlignAll(reads)
	}
	for i := range als {
		als[i].Contig = ids[als[i].Contig] // offset table: local → global
	}
	return als, st, bases, nil
}
