// Package experiments regenerates every table and figure of the
// paper's evaluation (§II-B benchmark, §IV validation, §V results).
// Each FigN function returns printable rows; cmd/experiments and the
// root-level benchmarks drive them. The scaling figures execute the
// real hybrid algorithms on the scaled synthetic dataset and convert
// metered work into paper-scale seconds with the cluster cost model
// calibrated against the paper's single-node baselines (see DESIGN.md
// §2 and §5 for the substitution rationale).
package experiments

import (
	"fmt"
	"io"

	"gotrinity/internal/bowtie"
	"gotrinity/internal/chrysalis"
	"gotrinity/internal/cluster"
	"gotrinity/internal/core"
	"gotrinity/internal/jellyfish"
	"gotrinity/internal/rnaseq"
	"gotrinity/internal/seq"
	"gotrinity/internal/trace"
)

// Paper baselines (seconds on one 16-thread node, sugarbeet dataset).
const (
	paperGFFBaseline    = 122610     // §V-A
	paperR2TBaseline    = 20190      // §V-B
	paperBowtieBaseline = 8.2 * 3600 // §V-C: "slightly more than 8 hours"
	threadsPerNode      = 16

	// timingReplicas replays the work streams at paper-scale item
	// granularity (see internal/chrysalis/replicate.go): the scaled
	// dataset has hundreds of contigs where the paper has millions, so
	// raw makespans would be floored by single items at high rank
	// counts.
	timingReplicas = 64
)

// Lab prepares and caches the shared inputs (dataset, k-mer table,
// contigs) that several figures reuse.
type Lab struct {
	// Scale multiplies the preset read counts; 1.0 is the default
	// laptop-scale dataset, tests use smaller values.
	Scale float64
	// K is the pipeline k-mer length.
	K int
	// Log receives progress lines; nil silences them.
	Log io.Writer
	// Trace, when non-nil, records the figures' full pipeline runs
	// (Fig. 2/11) for export; see internal/trace.
	Trace *trace.Recorder

	sugar *prepared
}

// prepared caches the sugarbeet front half of the pipeline.
type prepared struct {
	dataset *rnaseq.Dataset
	table   *jellyfish.CountTable
	contigs []seq.Record
}

// NewLab creates a lab with the given dataset scale (<=0 means 1.0).
func NewLab(scale float64) *Lab {
	if scale <= 0 {
		scale = 1
	}
	return &Lab{Scale: scale, K: 25}
}

func (l *Lab) logf(format string, args ...any) {
	if l.Log != nil {
		fmt.Fprintf(l.Log, format+"\n", args...)
	}
}

// profile applies the lab scale to a preset.
func (l *Lab) profile(p rnaseq.Profile) rnaseq.Profile {
	p.Reads = int(float64(p.Reads) * l.Scale)
	if p.Reads < 500 {
		p.Reads = 500
	}
	// Shrink the transcriptome with the read count so coverage stays
	// assembly-grade.
	if l.Scale < 1 {
		p.Genes = int(float64(p.Genes) * l.Scale)
		if p.Genes < 10 {
			p.Genes = 10
		}
	}
	return p
}

// Sugarbeet returns the cached benchmarking dataset with its read
// k-mer table and Inchworm contigs.
func (l *Lab) Sugarbeet() (*prepared, error) {
	if l.sugar != nil {
		return l.sugar, nil
	}
	l.logf("generating sugarbeet dataset (scale %.2f)...", l.Scale)
	d := rnaseq.Generate(l.profile(rnaseq.Sugarbeet(1)))
	table, err := jellyfish.Count(d.Reads, jellyfish.Options{K: l.K})
	if err != nil {
		return nil, err
	}
	l.logf("jellyfish: %d distinct k-mers from %d reads", table.Distinct(), len(d.Reads))
	contigs, _, err := inchwormContigs(table, l.K)
	if err != nil {
		return nil, err
	}
	l.logf("inchworm: %d contigs", len(contigs))
	l.sugar = &prepared{dataset: d, table: table, contigs: contigs}
	return l.sugar, nil
}

// bwConfig returns the Blue Wonder model for the given node count,
// pre-scaled to the dataset.
func (l *Lab) bwConfig(nodes int, d *rnaseq.Dataset) cluster.Config {
	cfg := cluster.BlueWonder(nodes)
	cfg.WorkScale = d.ScaleFactor()
	return cfg
}

// gffRankSeconds converts one rank's GraphFromFasta profile into
// paper-scale seconds per phase under the given (calibrated) model.
// Loop times include the pooling communication that follows them, as
// the paper's loop timings do; the non-parallel time covers setup,
// the mid-loop weld index build, and output generation.
func gffRankSeconds(p chrysalis.GFFRankProfile, cfg cluster.Config) (loop1, loop2, nonpar, total float64) {
	loop1 = cfg.WorkTime(p.Loop1Units) + cfg.CommTime(p.Comm1)
	loop2 = cfg.WorkTime(p.Loop2Units) + cfg.CommTime(p.Comm2)
	nonpar = cfg.WorkTime(p.SetupUnits + p.MidUnits + p.OutputUnits)
	return loop1, loop2, nonpar, loop1 + loop2 + nonpar
}

// calibrateGFF runs the 1-rank baseline and calibrates the model so
// its total equals the paper's 122,610 s.
func (l *Lab) calibrateGFF(p *prepared) (cluster.Config, *chrysalis.GFFResult, error) {
	base, err := chrysalis.GraphFromFasta(p.contigs, p.table, 1, chrysalis.GFFOptions{
		K:              l.K,
		ThreadsPerRank: threadsPerNode,
		Replicas:       timingReplicas,
	})
	if err != nil {
		return cluster.Config{}, nil, err
	}
	prof := base.Profiles[0]
	unitTotal := prof.SetupUnits + prof.MidUnits + prof.OutputUnits + prof.Loop1Units + prof.Loop2Units
	cfg := l.bwConfig(1, p.dataset)
	cfg.Calibrate(unitTotal, p.dataset.ScaleFactor(), paperGFFBaseline, 1)
	return cfg, base, nil
}

// r2tRankSeconds converts one rank's ReadsToTranscripts profile into
// paper-scale seconds: the MPI loop, and the rest (k-mer→bundle setup,
// redundant streaming, concat, gather).
func r2tRankSeconds(p chrysalis.R2TRankProfile, cfg cluster.Config) (loop, rest, total float64) {
	loop = cfg.WorkTime(p.LoopUnits)
	rest = cfg.WorkTime(p.SetupUnits+p.StreamUnits+p.ConcatUnits) + cfg.CommTime(p.Comm)
	return loop, rest, loop + rest
}

func (l *Lab) calibrateR2T(p *prepared, comps []chrysalis.Component) (cluster.Config, error) {
	base, err := chrysalis.ReadsToTranscripts(p.dataset.Reads, p.contigs, comps, 1, chrysalis.R2TOptions{
		K:              l.K,
		ThreadsPerRank: threadsPerNode,
		Replicas:       timingReplicas,
	})
	if err != nil {
		return cluster.Config{}, err
	}
	prof := base.Profiles[0]
	unitTotal := prof.SetupUnits + prof.LoopUnits + prof.StreamUnits + prof.ConcatUnits
	cfg := l.bwConfig(1, p.dataset)
	cfg.Calibrate(unitTotal, p.dataset.ScaleFactor(), paperR2TBaseline, 1)
	return cfg, nil
}

// inchwormContigs runs Inchworm over a dictionary.
func inchwormContigs(table *jellyfish.CountTable, k int) ([]seq.Record, int64, error) {
	contigs, st, err := inchwormRun(table.Kept(1), k)
	return contigs, st.ExtensionOps, err
}

// pipelineConfig is the standard configuration used by the validation
// figures (ranks set per run).
func pipelineConfig(k, ranks int, seed int64) core.Config {
	return core.Config{
		K:              k,
		Ranks:          ranks,
		ThreadsPerRank: 4,
		Seed:           seed,
		MaxWelds:       8, // tight cap so run seeds genuinely perturb output
		Bowtie:         bowtie.Options{SeedLen: 16, Threads: 4},
	}
}
