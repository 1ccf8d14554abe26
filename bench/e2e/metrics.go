package main

import (
	"fmt"
	"sort"
)

// The seven barrier stages of core.Run, in order; the staged replay
// opens one span per stage and core.stage_share.<stage> reports each
// one's share of the replay.
var stages = []string{
	"jellyfish", "inchworm", "bowtie", "graphfromfasta",
	"readstotranscripts", "fastatodebruijn", "butterfly",
}

// metricDef names one metric the benchmark emits. Kind says where a
// per-layer number comes from: 'w' wall time (or a rate over it) from
// the traced replay or the timed assemblies, 'c' an exact count that
// must repeat bit-for-bit on the same input, 'p' a probe timed on the
// workload's own data after the replay.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // true when a higher value is better
	Kind   byte
}

// endToEnd is what a user of the assembler sees. failed_frac is
// reported in every result set and judged by -compare, but it is always
// 0 on a healthy run, so BENCHMARK.json carries it as the failed count
// and not as a bounded metric.
var endToEnd = []metricDef{
	{"assembly_wall_s", "s", false, 'w'},
	{"reads_per_s", "reads/s", true, 'w'},
	{"cpu_s", "s", false, 'w'},
	{"peak_rss_mb", "MB", false, 'w'},
	{"alloc_mb", "MB", false, 'w'},
	{"mallocs_k", "kobjects", false, 'w'},
	{"ref_kmer_recall", "fraction", true, 'c'},
	{"tx_kmer_precision", "fraction", true, 'c'},
	{"setup_s", "s", false, 'w'},
}

// wallMetrics are the end-to-end metrics that follow the host's speed;
// -compare reports them as unresolved when a set is stamped noisy.
var wallMetrics = map[string]bool{
	"assembly_wall_s": true, "reads_per_s": true, "cpu_s": true, "setup_s": true,
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"seq.pack_s", "s", false, 'w'},
		{"seq.pack_mbases_per_s", "Mbases/s", true, 'w'},
		{"seq.fasta_read_mb_per_s", "MB/s", true, 'w'},
		{"seq.fasta_write_mb_per_s", "MB/s", true, 'w'},

		{"kmer.packed_iter_mkmers_per_s", "Mkmers/s", true, 'p'},

		{"jellyfish.count_s", "s", false, 'w'},
		{"jellyfish.kmers_total", "count", false, 'c'},
		{"jellyfish.distinct_kmers", "count", false, 'c'},
		{"jellyfish.count_mkmers_per_s", "Mkmers/s", true, 'w'},
		{"jellyfish.entries_s", "s", false, 'w'},
		{"jellyfish.frozen_get_ns", "ns", false, 'p'},
		{"jellyfish.table_mb", "MB", false, 'c'},
		{"jellyfish.dump_s", "s", false, 'w'},
		{"jellyfish.load_s", "s", false, 'w'},

		{"dsk.count_s", "s", false, 'w'},
		{"dsk.partition_bytes", "bytes", false, 'c'},
		{"dsk.peak_partition_kmers", "count", false, 'c'},
		{"dsk.count_mkmers_per_s", "Mkmers/s", true, 'w'},

		{"inchworm.run_s", "s", false, 'w'},
		{"inchworm.extension_ops", "count", false, 'c'},
		{"inchworm.kmers_kept", "count", false, 'c'},
		{"inchworm.contigs", "count", false, 'c'},
		{"inchworm.contig_bases", "bases", false, 'c'},
		{"inchworm.mops_per_s", "Mops/s", true, 'w'},

		{"pyfasta.split_s", "s", false, 'w'},
		{"pyfasta.max_over_mean_bases", "ratio", false, 'c'},

		{"bowtie.index_s", "s", false, 'w'},
		{"bowtie.align_s", "s", false, 'w'},
		{"bowtie.merge_s", "s", false, 'w'},
		{"bowtie.seed_probes", "count", false, 'c'},
		{"bowtie.bases_compared", "count", false, 'c'},
		{"bowtie.aligned_frac", "fraction", true, 'c'},
		{"bowtie.reads_per_s", "reads/s", true, 'w'},
		{"bowtie.index_mb", "MB", false, 'c'},
		{"bowtie.sam_write_s", "s", false, 'w'},
		{"bowtie.sam_read_s", "s", false, 'w'},

		{"chrysalis.gff_s", "s", false, 'w'},
		{"chrysalis.gff_work_units", "units", false, 'c'},
		{"chrysalis.gff_welds", "count", false, 'c'},
		{"chrysalis.gff_components", "count", false, 'c'},
		{"chrysalis.gff_rank_imbalance", "ratio", false, 'c'},
		{"chrysalis.gff_resident_kmer_mb", "MB", false, 'c'},
		{"chrysalis.r2t_s", "s", false, 'w'},
		{"chrysalis.r2t_work_units", "units", false, 'c'},
		{"chrysalis.r2t_assigned_frac", "fraction", true, 'c'},
		{"chrysalis.r2t_reads_per_s", "reads/s", true, 'w'},
		{"chrysalis.r2t_resident_kmer_mb", "MB", false, 'c'},
		{"chrysalis.f2d_s", "s", false, 'w'},
		{"chrysalis.f2d_component_units", "units", false, 'c'},
		{"chrysalis.io_s", "s", false, 'w'},

		{"shard.exchange_bytes", "bytes", false, 'c'},
		{"shard.tiles", "count", false, 'c'},

		{"mpi.bytes_sent", "bytes", false, 'c'},
		{"mpi.messages", "count", false, 'c'},
		{"mpi.collective_ops", "count", false, 'c'},

		{"omp.bowtie_thread_imbalance", "ratio", false, 'w'},
		{"omp.butterfly_imbalance", "ratio", false, 'w'},

		{"dbg.build_compact_s", "s", false, 'p'},
		{"dbg.nodes", "count", false, 'c'},

		{"butterfly.reconstruct_s", "s", false, 'w'},
		{"butterfly.pair_support_s", "s", false, 'w'},
		{"butterfly.transcripts", "count", false, 'c'},
		{"butterfly.transcript_bases", "bases", false, 'c'},
		{"butterfly.transcripts_per_s", "1/s", true, 'w'},

		{"mpiio.write_s", "s", false, 'p'},
		{"mpiio.bytes", "bytes", false, 'c'},

		{"core.staged_total_s", "s", false, 'w'},
		{"core.trace_overhead_frac", "fraction", false, 'w'},
	}
	for _, st := range stages {
		defs = append(defs, metricDef{"core.stage_share." + st, "fraction", false, 'w'})
	}
	return append(defs,
		metricDef{"runtime.gc_cycles", "count", false, 'w'},
		metricDef{"runtime.gc_pause_ms", "ms", false, 'w'},
		metricDef{"runtime.heap_live_peak_mb", "MB", false, 'w'},

		metricDef{"host.calib_ms_before", "ms", false, 'w'},
		metricDef{"host.calib_ms_after", "ms", false, 'w'},
	)
}

// metric is one reported value. N, Min and Max are set on the
// end-to-end numbers that are a median over the timed assemblies.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// metricSet collects the values of one catalogue (endToEnd or
// perLayer). Every per-layer metric is emitted on every workload; one
// a workload does not exercise stays 0.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]metric
}

func newMetricSet(catalogue []metricDef) *metricSet {
	ms := &metricSet{defs: map[string]metricDef{}, values: map[string]metric{}}
	for _, d := range catalogue {
		ms.defs[d.Name] = d
		ms.values[d.Name] = metric{Unit: d.Unit}
	}
	return ms
}

// set records a value; a name outside the catalogue is a bug in the
// benchmark, not in the program it measures.
func (ms *metricSet) set(name string, v float64) {
	d, ok := ms.defs[name]
	if !ok {
		panic(fmt.Sprintf("metric %q is not in the catalogue", name))
	}
	ms.values[name] = metric{Value: v, Unit: d.Unit}
}

// setSamples records the median of xs with the sample count and range.
func (ms *metricSet) setSamples(name string, xs []float64) {
	ms.set(name, median(xs))
	s := sorted(xs)
	m := ms.values[name]
	m.N, m.Min, m.Max = len(s), s[0], s[len(s)-1]
	ms.values[name] = m
}

func (ms *metricSet) get(name string) float64 { return ms.values[name].Value }

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ratio is a/b, 0 when b is 0 (a rate over a span that did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
