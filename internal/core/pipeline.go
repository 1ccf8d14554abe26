// Package core orchestrates the full Trinity workflow — the role of
// the Trinity.pl driver script: Jellyfish → Inchworm → Chrysalis
// (Bowtie, GraphFromFasta, ReadsToTranscripts, FastaToDebruijn,
// QuantifyGraph) → Butterfly. Like the paper's extended Trinity.pl it
// takes an "nprocs" argument: with Ranks=1 the Chrysalis hot spots run
// as the original OpenMP-only code; with Ranks>1 they run the hybrid
// MPI+OpenMP implementation.
package core

import (
	"fmt"
	"strings"
	"time"

	"gotrinity/internal/bowtie"
	"gotrinity/internal/butterfly"
	"gotrinity/internal/chrysalis"
	"gotrinity/internal/collectl"
	"gotrinity/internal/inchworm"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/mpi"
	"gotrinity/internal/pyfasta"
	"gotrinity/internal/seq"
	"gotrinity/internal/trace"
)

// Config assembles the per-stage options of one pipeline run.
type Config struct {
	K              int   // pipeline k-mer length (Trinity default 25)
	Ranks          int   // MPI processes for the hybrid Chrysalis (the Trinity.pl nprocs argument)
	ThreadsPerRank int   // OpenMP threads per rank (default 16)
	Seed           int64 // run seed; perturbs the weld harvest order (stochastic output)

	MinKmerCount   int // Inchworm error filter (default 2)
	MinWeldSupport int // GraphFromFasta weld read support (default 2)
	MaxWelds       int // GraphFromFasta per-contig weld cap (default 100)
	MaxMemReads    int // ReadsToTranscripts chunk size (default 1000)
	Replicas       int // timing-replay replicas for the cost model (default 1)
	MinPairSupport int // drop transcripts spanned by fewer mate pairs (0 = keep all)

	// ASCIISeq falls back to byte-per-base ASCII sequences on the hot
	// paths. The default (false) runs 2-bit packed sequences end-to-end:
	// reads are packed once after ingest, contigs once after Inchworm,
	// and Jellyfish counting, the Bowtie seed/verify loops, and the
	// Chrysalis weld/assign kernels all consume the packed forms — ASCII
	// exists only at file boundaries. Output is byte-identical either
	// way; only resident sequence bytes change (4× smaller packed).
	ASCIISeq bool

	// External selects the external-memory assembly mode: k-mer
	// counting runs through dsk's disk partitions and the sequence
	// state stays packed-resident, bounding peak memory below the full
	// in-memory working set. See ExternalConfig.
	External ExternalConfig

	// ShardKmers partitions the Chrysalis k-mer lookup state —
	// GraphFromFasta's read counts, contig occurrence index and weld
	// index, and ReadsToTranscripts' k-mer→bundle table — across the
	// ranks by owner rank instead of replicating it on every rank;
	// remote rows are fetched in batched lookup rounds. Output is
	// byte-identical either way — only per-rank memory and
	// communication change.
	ShardKmers bool

	// TailWorkers bounds the pipeline-tail worker pool: the concurrent
	// Bowtie partition alignments and the component-parallel
	// FastaToDebruijn/QuantifyGraph/Butterfly phases. 0 (the default)
	// uses hardware parallelism (GOMAXPROCS). Output is byte-identical
	// for every worker count and a fixed seed.
	TailWorkers int

	// SampleInterval enables the Collectl-style background sampler at
	// the given period, filling Result.Samples/Marks (0 = disabled).
	SampleInterval time.Duration

	// --- Fault injection and recovery (the Chrysalis fault layer; see
	// internal/mpi/fault.go and internal/chrysalis/recovery.go).

	// FaultSpec injects a deterministic failure schedule into the
	// hybrid Chrysalis stages, in mpi.ParseFaultSpec syntax (e.g.
	// "kill:rank=1,call=5; slow:rank=2,call=0,delay=10ms").
	FaultSpec string
	// FaultSeed, when non-zero and FaultSpec is empty, derives a
	// seeded plan killing one rank at a pseudo-random call index —
	// the acceptance scenario of the fault-tolerance tests.
	FaultSeed int64
	// Recover enables chunk checkpointing and recovery even without
	// injected faults (a fault plan implies it).
	Recover bool
	// MaxRetries bounds the recovery rounds per pooling phase
	// (default 3).
	MaxRetries int
	// RetryBackoff is the wait before each recovery round, doubling
	// per round.
	RetryBackoff time.Duration
	// RankTimeout evicts ranks that stall a collective longer than
	// this (the straggler policy; 0 = never evict).
	RankTimeout time.Duration

	Bowtie    bowtie.Options
	Butterfly butterfly.Options

	// Trace, when non-nil, records the whole run: real pipeline stage
	// spans, virtual per-rank spans from the hybrid Chrysalis stages,
	// MPI traffic, fault/recovery events, OpenMP section summaries, and
	// the sampler's heap series. See internal/trace.
	Trace *trace.Recorder
}

func (c *Config) normalize() error {
	if c.K <= 0 {
		c.K = 25
	}
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.ThreadsPerRank <= 0 {
		c.ThreadsPerRank = 16
	}
	if c.K > 31 {
		return fmt.Errorf("core: k=%d out of range", c.K)
	}
	return nil
}

// Result carries every intermediate and final product of a run.
type Result struct {
	Contigs     []seq.Record         // Inchworm contigs
	Alignments  []bowtie.Alignment   // Bowtie read→contig alignments
	Scaffolds   [][2]int32           // contig pairs inferred from mate pairs
	GFF         *chrysalis.GFFResult // components + welds + per-rank profiles
	R2T         *chrysalis.R2TResult // read assignments + per-rank profiles
	Graphs      []*chrysalis.ComponentGraph
	Transcripts []butterfly.Transcript
	PairSupport []int             // mate pairs spanning each transcript (indexed like Transcripts)
	Trace       *collectl.Trace   // measured stage trace (laptop scale)
	Samples     []collectl.Sample // background samples (when SampleInterval > 0)
	Marks       []collectl.Mark   // stage-boundary marks for the samples

	InchwormStats inchworm.Stats
	BowtieStats   bowtie.Stats
	SplitStats    pyfasta.Stats
	Tail          TailStats // deterministic work units of the parallel tail

	External *ExternalReport // non-nil when External.Enabled
	Faults   *FaultReport    // non-nil when the fault layer was active
}

// FaultReport summarises what the fault layer injected and recovered
// during one run.
type FaultReport struct {
	Planned  []mpi.Fault               // faults scheduled for the run
	Injected []mpi.Fault               // faults that actually fired, in firing order
	GFF      *chrysalis.RecoveryReport // GraphFromFasta recovery summary
	R2T      *chrysalis.RecoveryReport // ReadsToTranscripts recovery summary
}

// TranscriptRecords returns the final transcripts as FASTA records.
func (r *Result) TranscriptRecords() []seq.Record {
	return butterfly.Records(r.Transcripts)
}

// packedPipe carries the packed twins of the pipeline's resident
// sequences — reads packed once before counting, contigs once after
// Inchworm — shared by every downstream stage. nil selects the ASCII
// fallback everywhere.
type packedPipe struct {
	reads   []seq.PackedRecord
	contigs []seq.Packed // parallel to Result.Contigs
}

// readRecs/contigSeqs are nil-safe accessors so option structs can be
// filled without branching on the mode.
func (pp *packedPipe) readRecs() []seq.PackedRecord {
	if pp == nil {
		return nil
	}
	return pp.reads
}

func (pp *packedPipe) contigSeqs() []seq.Packed {
	if pp == nil {
		return nil
	}
	return pp.contigs
}

// Run executes the full pipeline over the given reads.
func Run(reads []seq.Record, cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// Build the fault plan and recovery policy for the hybrid stages.
	var plan *mpi.FaultPlan
	if cfg.FaultSpec != "" {
		var err error
		if plan, err = mpi.ParseFaultSpec(cfg.FaultSpec); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	} else if cfg.FaultSeed != 0 {
		// Call indices 0–7 are reached by every rank even on the tiny
		// test datasets (fewer chunks per rank mean fewer fault points),
		// so a kill drawn from that window is guaranteed to fire.
		plan = mpi.RandomKillPlan(cfg.FaultSeed, cfg.Ranks, 1, 8)
	}
	recovery := chrysalis.RecoveryOptions{
		Enabled:     cfg.Recover || plan != nil || cfg.RankTimeout > 0,
		MaxRounds:   cfg.MaxRetries,
		Backoff:     cfg.RetryBackoff,
		RankTimeout: cfg.RankTimeout,
	}
	res := &Result{}
	meter := collectl.NewMeter()
	var sampler *collectl.Sampler
	if cfg.SampleInterval > 0 {
		sampler = collectl.NewSampler(cfg.SampleInterval)
		sampler.Start()
	}
	runStart := time.Now()
	stage := func(name string, fn func() error) error {
		if sampler != nil {
			sampler.MarkStage(name)
		}
		t0 := time.Now()
		err := meter.Run(name, fn)
		cfg.Trace.RealSpan("pipeline", name, t0.Sub(runStart).Seconds(), time.Since(t0).Seconds(), "")
		return err
	}

	// Pack the reads once; every downstream consumer (counting, Bowtie,
	// ReadsToTranscripts) works from the 2-bit forms.
	var pp *packedPipe
	if !cfg.ASCIISeq {
		pp = &packedPipe{reads: seq.PackRecords(reads)}
	}

	// --- Jellyfish: k-mer counting over the reads — in-memory by
	// default, dsk's disk-partitioned pass under External.
	var table *jellyfish.CountTable
	err := stage("jellyfish", func() error {
		var err error
		switch {
		case cfg.External.Enabled:
			table, res.External, err = externalCount(reads, pp.readRecs(), &cfg)
		case pp != nil:
			table, err = jellyfish.CountPacked(pp.reads, jellyfish.Options{K: cfg.K})
		default:
			table, err = jellyfish.Count(reads, jellyfish.Options{K: cfg.K})
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core: jellyfish: %w", err)
	}

	// --- Inchworm: greedy contigs from the k-mer dictionary.
	err = stage("inchworm", func() error {
		contigs, st, err := inchworm.Run(table.Entries(1), inchworm.Options{
			K:            cfg.K,
			MinKmerCount: cfg.MinKmerCount,
		})
		res.Contigs, res.InchwormStats = contigs, st
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core: inchworm: %w", err)
	}
	if len(res.Contigs) == 0 {
		return nil, fmt.Errorf("core: inchworm produced no contigs (too few reads?)")
	}
	// Pack the contigs once for the tail's seed index, weld kernels and
	// bundle tables.
	if pp != nil {
		pp.contigs = make([]seq.Packed, len(res.Contigs))
		for i := range res.Contigs {
			pp.contigs[i] = seq.Pack(res.Contigs[i].Seq)
		}
	}

	// --- The pipeline tail (Bowtie → GraphFromFasta →
	// ReadsToTranscripts → FastaToDebruijn/Quantify → Butterfly), as
	// barrier-stepped stages.
	if err := runTail(reads, pp, res, &cfg, table, plan, recovery, runStart, stage); err != nil {
		return nil, err
	}

	if sampler != nil {
		res.Samples, res.Marks = sampler.Stop()
		cfg.Trace.AddHeapSeries(res.Samples, res.Marks)
	}
	res.Trace = meter.Trace()
	return res, nil
}

// ScaffoldPairs derives contig pairs from mate-paired alignments: when
// read X/1 and X/2 align to two different contigs, those contigs are
// candidates for the same bundle (§III-A's combination of Bowtie
// output with welding pairs).
func ScaffoldPairs(als []bowtie.Alignment) [][2]int32 {
	mate := map[string]int{} // pair base id -> contig of the first-seen mate
	seen := map[[2]int32]bool{}
	var out [][2]int32
	for _, a := range als {
		base, ok := pairBase(a.ReadID)
		if !ok {
			continue
		}
		if other, dup := mate[base]; dup {
			if other != a.Contig {
				p := [2]int32{int32(other), int32(a.Contig)}
				if p[0] > p[1] {
					p[0], p[1] = p[1], p[0]
				}
				if !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
		} else {
			mate[base] = a.Contig
		}
	}
	return out
}

// pairBase strips the /1 or /2 mate suffix, returning ok=false for
// unpaired read ids.
func pairBase(id string) (string, bool) {
	if strings.HasSuffix(id, "/1") || strings.HasSuffix(id, "/2") {
		return id[:len(id)-2], true
	}
	return "", false
}
