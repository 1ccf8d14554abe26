package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"gotrinity/internal/butterfly"
	"gotrinity/internal/dbg"
	"gotrinity/internal/kmer"
	"gotrinity/internal/mpiio"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
)

// maxRatio caps an imbalance ratio: omp.Profile.Imbalance is +Inf when
// a thread got no work, which JSON cannot carry.
const maxRatio = 1e6

// layerMetrics fills the wall ('w') and exact-count ('c') per-layer
// metrics from the replay's spans and from the Stats and Profile
// structs the layers returned. A layer's _s is the summed self time of
// its spans; wall is the tracing-off median assembly.
func layerMetrics(l *metricSet, spans []span, out *replayOut, wall float64) {
	self := selfByCall(spans)
	reads := float64(len(out.reads))

	packedBases := 0
	for i := range out.preads {
		packedBases += out.preads[i].Seq.Len()
	}
	for i := range out.pcontigs {
		packedBases += out.pcontigs[i].Len()
	}
	l.set("seq.pack_s", self["seq.pack"])
	l.set("seq.pack_mbases_per_s", ratio(float64(packedBases)/1e6, self["seq.pack"]))
	l.set("seq.fasta_read_mb_per_s", ratio(float64(out.fastaReadBytes)/1e6, self["seq.fasta_read"]))
	l.set("seq.fasta_write_mb_per_s", ratio(float64(out.fastaWriteBytes)/1e6, self["seq.fasta_write"]))

	total := float64(out.table.Total())
	l.set("jellyfish.count_s", self["jellyfish.count"])
	l.set("jellyfish.kmers_total", total)
	l.set("jellyfish.distinct_kmers", float64(out.table.Distinct()))
	l.set("jellyfish.count_mkmers_per_s", ratio(total/1e6, self["jellyfish.count"]))
	l.set("jellyfish.entries_s", self["jellyfish.entries"])
	l.set("jellyfish.dump_s", self["jellyfish.dump"])
	l.set("jellyfish.load_s", self["jellyfish.load"])

	l.set("dsk.count_s", self["dsk.count"])
	l.set("dsk.partition_bytes", float64(out.dsk.PartitionBytes))
	l.set("dsk.peak_partition_kmers", float64(out.dsk.PeakPartition))
	l.set("dsk.count_mkmers_per_s", ratio(float64(out.dsk.TotalKmers)/1e6, self["dsk.count"]))

	l.set("inchworm.run_s", self["inchworm.run"])
	l.set("inchworm.extension_ops", float64(out.inchworm.ExtensionOps))
	l.set("inchworm.kmers_kept", float64(out.inchworm.KmersKept))
	l.set("inchworm.contigs", float64(out.inchworm.Contigs))
	l.set("inchworm.contig_bases", float64(out.inchworm.BasesOut))
	l.set("inchworm.mops_per_s", ratio(float64(out.inchworm.ExtensionOps)/1e6, self["inchworm.run"]))

	l.set("pyfasta.split_s", self["pyfasta.split"])
	if len(out.splitBases) > 1 {
		l.set("pyfasta.max_over_mean_bases", maxOverMean(intsToFloats(out.splitBases)))
	}

	l.set("bowtie.index_s", self["bowtie.index"])
	l.set("bowtie.align_s", self["bowtie.align"])
	l.set("bowtie.merge_s", self["bowtie.merge"])
	l.set("bowtie.seed_probes", float64(out.bowtie.SeedProbes))
	l.set("bowtie.bases_compared", float64(out.bowtie.BasesCompared))
	l.set("bowtie.aligned_frac", float64(out.alignedReads)/reads)
	l.set("bowtie.reads_per_s", ratio(float64(out.bowtie.Reads), self["bowtie.align"]))
	l.set("bowtie.index_mb", float64(out.bowtieIndex)/1e6)
	l.set("bowtie.sam_write_s", self["bowtie.sam_write"])
	l.set("bowtie.sam_read_s", self["bowtie.sam_read"])
	l.set("omp.bowtie_thread_imbalance", math.Min(out.bowtie.ThreadImbalance, maxRatio))

	// Chrysalis: work units, memory and traffic are summed (or maxed)
	// over the ranks' profiles.
	var gffUnits []float64
	var gffResident, r2tResident, shardBytes, mpiBytes, mpiMsgs, mpiColl int64
	tiles := 0
	for _, p := range out.gff.Profiles {
		gffUnits = append(gffUnits, p.SetupUnits+p.Loop1Units+p.MidUnits+p.Loop2Units+p.OutputUnits)
		gffResident = max(gffResident, p.ResidentKmerBytes)
		shardBytes += p.ShardExchangeBytes
		tiles += len(p.Overlap1) + len(p.Overlap2)
		mpiBytes += p.Comm1.BytesSent + p.Comm2.BytesSent
		mpiMsgs += p.Comm1.Messages + p.Comm2.Messages
		mpiColl += p.Comm1.CollectiveOps + p.Comm2.CollectiveOps
	}
	r2tUnits := 0.0
	for _, p := range out.r2t.Profiles {
		r2tUnits += p.SetupUnits + p.LoopUnits + p.StreamUnits + p.ConcatUnits
		r2tResident = max(r2tResident, p.ResidentKmerBytes)
		shardBytes += p.ShardExchangeBytes
		tiles += len(p.Overlap)
		mpiBytes += p.Comm.BytesSent
		mpiMsgs += p.Comm.Messages
		mpiColl += p.Comm.CollectiveOps
	}
	l.set("chrysalis.gff_s", self["chrysalis.gff"])
	l.set("chrysalis.gff_work_units", sum(gffUnits))
	l.set("chrysalis.gff_welds", float64(len(out.gff.Welds)))
	l.set("chrysalis.gff_components", float64(len(out.gff.Components)))
	l.set("chrysalis.gff_rank_imbalance", maxOverMean(gffUnits))
	l.set("chrysalis.gff_resident_kmer_mb", float64(gffResident)/1e6)
	l.set("chrysalis.r2t_s", self["chrysalis.r2t"])
	l.set("chrysalis.r2t_work_units", r2tUnits)
	l.set("chrysalis.r2t_assigned_frac", float64(len(out.r2t.Assignments))/reads)
	l.set("chrysalis.r2t_reads_per_s", ratio(reads, self["chrysalis.r2t"]))
	l.set("chrysalis.r2t_resident_kmer_mb", float64(r2tResident)/1e6)
	l.set("chrysalis.f2d_s", self["chrysalis.f2d"])
	l.set("chrysalis.f2d_component_units", sum(out.componentUnits))
	l.set("chrysalis.io_s", self["chrysalis.io"])
	l.set("shard.exchange_bytes", float64(shardBytes))
	l.set("shard.tiles", float64(tiles))
	l.set("mpi.bytes_sent", float64(mpiBytes))
	l.set("mpi.messages", float64(mpiMsgs))
	l.set("mpi.collective_ops", float64(mpiColl))

	txBases := 0
	for _, t := range out.transcripts {
		txBases += len(t.Seq)
	}
	l.set("butterfly.reconstruct_s", self["butterfly.reconstruct"])
	l.set("butterfly.pair_support_s", self["butterfly.pair_support"])
	l.set("butterfly.transcripts", float64(len(out.transcripts)))
	l.set("butterfly.transcript_bases", float64(txBases))
	l.set("butterfly.transcripts_per_s", ratio(float64(len(out.transcripts)), self["butterfly.reconstruct"]))
	l.set("omp.butterfly_imbalance", math.Min(out.butterflyThread.Imbalance(), maxRatio))

	// The root span covers the whole replay, so its duration is the sum
	// of every span's self time.
	staged := (spans[0].End - spans[0].Start).Seconds()
	l.set("core.staged_total_s", staged)
	l.set("core.trace_overhead_frac", (staged-wall)/wall)
	for _, s := range spans {
		if s.Layer == "core" && s.Parent == 0 {
			l.set("core.stage_share."+s.Name, (s.End-s.Start).Seconds()/staged)
		}
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func intsToFloats(xs []int) []float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return fs
}

// maxOverMean is the load-imbalance measure: 1 when every part is equal.
func maxOverMean(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return ratio(m*float64(len(xs)), sum(xs))
}

// probeSink keeps the compiler from dropping a probe's lookups.
var probeSink uint64

// probes times layers the replay cannot isolate, each as a separate
// call on the workload's own data, and fills the 'p' metrics (with the
// exact counts those calls yield). dir is scratch space.
func probes(l *metricSet, out *replayOut, dir string) error {
	// kmer: the packed iterator over every read.
	t0 := time.Now()
	n := 0
	for i := range out.preads {
		it := kmer.NewPackedIterator(out.preads[i].Seq, kmerLen)
		for _, _, ok := it.Next(); ok; _, _, ok = it.Next() {
			n++
		}
	}
	l.set("kmer.packed_iter_mkmers_per_s", ratio(float64(n)/1e6, time.Since(t0).Seconds()))

	// jellyfish: freeze the table, then look up every contig k-mer.
	t0 = time.Now()
	frozen := out.table.Freeze()
	gets, counted := 0, uint64(0)
	for i := range out.pcontigs {
		it := kmer.NewPackedIterator(out.pcontigs[i], kmerLen)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			gets++
			counted += uint64(frozen.Get(m))
		}
	}
	probeSink = counted
	l.set("jellyfish.frozen_get_ns", ratio(float64(time.Since(t0).Nanoseconds()), float64(gets)))
	l.set("jellyfish.table_mb", float64(frozen.MemBytes())/1e6)

	// dbg: one graph over every contig, compacted.
	t0 = time.Now()
	g, err := dbg.New(kmerLen)
	if err != nil {
		return err
	}
	for i := range out.contigs {
		g.AddSequence(out.contigs[i].Seq, 1)
	}
	g.Compact()
	l.set("dbg.build_compact_s", time.Since(t0).Seconds())
	l.set("dbg.nodes", float64(g.NodeCount()))

	// mpiio: the transcripts written as per-component partitions with
	// positional writes; the file must equal the serial FASTA.
	var parts [][]seq.Record
	ts := out.transcripts
	for i, j := 0, 0; i < len(ts); i = j {
		for j = i; j < len(ts) && ts[j].Component == ts[i].Component; j++ {
		}
		parts = append(parts, butterfly.Records(ts[i:j]))
	}
	path := filepath.Join(dir, "probe-transcripts.fa")
	t0 = time.Now()
	if err := mpiio.WriteFastaPartitions(path, parts); err != nil {
		return err
	}
	l.set("mpiio.write_s", time.Since(t0).Seconds())
	written, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	l.set("mpiio.bytes", float64(len(written)))
	if !bytes.Equal(written, out.fasta) {
		return fmt.Errorf("probe: mpiio wrote %d bytes that differ from the %d-byte serial FASTA", len(written), len(out.fasta))
	}
	return nil
}

// kmerQuality compares the distinct canonical k-mers of the assembled
// transcripts with those of the ground-truth isoforms: recall is the
// share of reference k-mers the output holds, precision the share of
// output k-mers the reference holds. It is what stops a faster
// assembler that emits junk, at a cost of milliseconds where
// full-length alignment of every transcript takes minutes.
func kmerQuality(ref []rnaseq.Transcript, fasta []byte) (recall, precision float64, err error) {
	canon := func(into map[kmer.Kmer]struct{}, s []byte) {
		it := kmer.NewIterator(s, kmerLen)
		for m, _, ok := it.Next(); ok; m, _, ok = it.Next() {
			c, _ := m.Canonical(kmerLen)
			into[c] = struct{}{}
		}
	}
	refSet := map[kmer.Kmer]struct{}{}
	for i := range ref {
		canon(refSet, ref[i].Seq)
	}
	recs, err := seq.NewFastaReader(bytes.NewReader(fasta)).ReadAll()
	if err != nil {
		return 0, 0, fmt.Errorf("parsing the transcripts: %w", err)
	}
	txSet := map[kmer.Kmer]struct{}{}
	for i := range recs {
		canon(txSet, recs[i].Seq)
	}
	if len(refSet) == 0 || len(txSet) == 0 {
		return 0, 0, fmt.Errorf("no k-mers to compare: %d reference, %d assembled", len(refSet), len(txSet))
	}
	shared := 0
	for m := range txSet {
		if _, ok := refSet[m]; ok {
			shared++
		}
	}
	return float64(shared) / float64(len(refSet)), float64(shared) / float64(len(txSet)), nil
}
