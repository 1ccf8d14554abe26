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
	"os"
	"path/filepath"
	"strings"
	"time"

	"gotrinity/internal/bowtie"
	"gotrinity/internal/butterfly"
	"gotrinity/internal/chrysalis"
	"gotrinity/internal/collectl"
	"gotrinity/internal/inchworm"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/mpi"
	"gotrinity/internal/omp"
	"gotrinity/internal/pyfasta"
	"gotrinity/internal/seq"
	"gotrinity/internal/trace"
)

// Config assembles the per-stage options of one pipeline run.
type Config struct {
	K              int   // pipeline k-mer length (Trinity default 25)
	Ranks          int   // MPI processes for the hybrid Chrysalis (the Trinity.pl nprocs argument)
	ThreadsPerRank int   // OpenMP threads per rank (default 16): the Chrysalis cost model's, and the cap on each rank's real workers, at most GOMAXPROCS/Ranks
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
	if c.TailWorkers <= 0 {
		c.TailWorkers = omp.DefaultThreads()
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
	// PairSupport counts the mate pairs spanning each transcript
	// (indexed like Transcripts). It is computed only to filter, so it is
	// nil unless MinPairSupport > 0.
	PairSupport []int
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

// FileArtifacts names the files a file-based run exchanges between
// modules: RunFiles fills every path, RunStage uses the ones its
// caller set.
type FileArtifacts struct {
	Reads       string // input reads FASTA
	Kmers       string // jellyfish dump
	Contigs     string // inchworm contigs FASTA
	SAM         string // bowtie alignments
	Components  string // graphfromfasta components
	Assignments string // readstotranscripts assignments
	Transcripts string // butterfly output FASTA
}

// pipeline is the state the stage list (stages.go) runs over.
type pipeline struct {
	cfg *Config
	res *Result
	// art switches the file sinks on: a stage's artifact is written to
	// its path once the stage has run and read back, in place of the
	// in-memory product, before the next one does. nil = all in memory.
	art      *FileArtifacts
	readBack int // stages[:readBack] have had their artifacts read back

	reads    []seq.Record
	preads   []seq.PackedRecord // the reads 2-bit packed, once; nil under ASCIISeq
	pcontigs []seq.Packed       // see packedContigs

	table   *jellyfish.CountTable // the k-mer dictionary as counted …
	entries []jellyfish.Entry     // … and as read back from the dump

	plan     *mpi.FaultPlan
	recovery chrysalis.RecoveryOptions
	meter    *collectl.Meter
	sampler  *collectl.Sampler
	start    time.Time
}

// packedContigs returns the contigs 2-bit packed for the seed index,
// weld kernels and bundle tables, packing them on first use — after
// Inchworm, or after contigs.fa was read back. nil under ASCIISeq.
func (p *pipeline) packedContigs() []seq.Packed {
	if p.pcontigs == nil && !p.cfg.ASCIISeq {
		p.pcontigs = make([]seq.Packed, len(p.res.Contigs))
		for i := range p.res.Contigs {
			p.pcontigs[i] = seq.Pack(p.res.Contigs[i].Seq)
		}
	}
	return p.pcontigs
}

// step is the one place a stage starts and ends. Inside the stage's
// span it reads back every upstream artifact not yet read (in a whole
// run, the one the previous step wrote; for a stage run alone, every
// file the caller named), runs the stage and writes its artifact.
func (p *pipeline) step(i int) error {
	s := &stages[i]
	if p.sampler != nil {
		p.sampler.MarkStage(s.name)
	}
	t0 := time.Now()
	err := p.meter.Run(s.name, func() error {
		for ; p.art != nil && p.readBack < i; p.readBack++ {
			if up := &stages[p.readBack]; up.load != nil && up.file(p.art) != "" {
				if err := up.load(p, up.file(p.art)); err != nil {
					return err
				}
			}
		}
		if err := s.run(p); err != nil {
			return err
		}
		if p.art != nil && s.save != nil && s.file(p.art) != "" {
			return s.save(p, s.file(p.art))
		}
		return nil
	})
	p.cfg.Trace.RealSpan("pipeline", s.name, t0.Sub(p.start).Seconds(), time.Since(t0).Seconds(), "")
	if err != nil {
		return fmt.Errorf("core: %s: %w", s.name, err)
	}
	return nil
}

// run is the one orchestrator: stages[first..last] in order over reads
// (or, with sinks on, the reads file art names), under the fault plan,
// the sampler and the stage meter.
func run(reads []seq.Record, art *FileArtifacts, cfg *Config, first, last int) (*Result, error) {
	err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if art != nil && art.Reads != "" {
		if reads, err = seq.ReadFastaFile(art.Reads); err != nil {
			return nil, fmt.Errorf("core: reading %s: %w", art.Reads, err)
		}
	}
	p := &pipeline{cfg: cfg, art: art, reads: reads, meter: collectl.NewMeter()}
	// GFF and R2T start empty, not nil, so that a stage run alone finds
	// its upstream products where their loads put them.
	p.res = &Result{GFF: &chrysalis.GFFResult{}, R2T: &chrysalis.R2TResult{}}
	// The fault plan and recovery policy of the hybrid stages.
	if cfg.FaultSpec != "" {
		if p.plan, err = mpi.ParseFaultSpec(cfg.FaultSpec); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	} else if cfg.FaultSeed != 0 {
		// Call indices 0–7 are reached by every rank even on the tiny
		// test datasets (fewer chunks per rank mean fewer fault points),
		// so a kill drawn from that window is guaranteed to fire.
		p.plan = mpi.RandomKillPlan(cfg.FaultSeed, cfg.Ranks, 1, 8)
	}
	p.recovery = chrysalis.RecoveryOptions{
		Enabled:     cfg.Recover || p.plan != nil || cfg.RankTimeout > 0,
		MaxRounds:   cfg.MaxRetries,
		Backoff:     cfg.RetryBackoff,
		RankTimeout: cfg.RankTimeout,
	}
	// Pack the reads once; every downstream consumer (counting, Bowtie,
	// ReadsToTranscripts) works from the 2-bit forms.
	if !cfg.ASCIISeq {
		p.preads = seq.PackRecords(reads)
	}
	if cfg.SampleInterval > 0 {
		p.sampler = collectl.NewSampler(cfg.SampleInterval)
		p.sampler.Start()
	}
	p.start = time.Now()
	for i := first; i <= last && err == nil; i++ {
		err = p.step(i)
	}
	if p.sampler != nil {
		p.res.Samples, p.res.Marks = p.sampler.Stop()
		cfg.Trace.AddHeapSeries(p.res.Samples, p.res.Marks)
	}
	p.res.Trace = p.meter.Trace()
	if err != nil {
		return nil, err
	}
	return p.res, nil
}

// Run executes the full pipeline over the given reads: the stage list
// with no file sinks.
func Run(reads []seq.Record, cfg Config) (*Result, error) {
	return run(reads, nil, &cfg, 0, len(stages)-1)
}

// RunFiles assembles readsPath into workDir with every stage
// exchanging data through files, exactly as the real Trinity modules
// do ("the files being output from one software module are then
// consumed by the following module", §II-A): the stage list with every
// sink on, so each stage re-reads its predecessor's output from disk
// and every on-disk format is exercised. It returns the paths of every
// artifact.
func RunFiles(readsPath, workDir string, cfg Config) (*FileArtifacts, error) {
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
	if _, err := run(nil, art, &cfg, 0, len(stages)-1); err != nil {
		return nil, err
	}
	return art, nil
}

// RunStage runs one stage on its own, as the per-stage tools under
// cmd/ do: every upstream artifact art names is read from its file, the
// stage runs under cfg exactly as it does inside Run, and its artifact
// is written to the path art names for it. A stage whose input has no
// file form runs after the stage producing it ("butterfly" builds the
// component graphs first).
func RunStage(name string, art FileArtifacts, cfg Config) (*Result, error) {
	for last := range stages {
		if stages[last].name != name {
			continue
		}
		first := last
		for first > 0 && stages[first-1].save == nil {
			first--
		}
		return run(nil, &art, &cfg, first, last)
	}
	return nil, fmt.Errorf("core: unknown stage %q", name)
}

// ScaffoldPairs derives contig pairs from mate-paired alignments: when
// read X/1 and X/2 align to two different contigs, those contigs are
// candidates for the same bundle (§III-A's combination of Bowtie
// output with welding pairs).
func ScaffoldPairs(als []bowtie.Alignment) [][2]int32 {
	// One pair base per two aligned mates; the contig pairs found are a
	// few hundred, so seen is left to grow.
	mate := make(map[string]int, len(als)/2) // pair base id -> contig of the first-seen mate
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
